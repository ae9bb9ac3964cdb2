// Command bench is the repository's benchmark: four workloads that host
// the system under test in-process through its public functions, verify
// every output against an in-process reference, and report the
// end-to-end and per-layer metrics BENCHMARK.json lists. See README.md.
//
//	bash bench/run.sh                       all workloads, result file in bench/out/
//	bash bench/run.sh -all -trace 1         ... plus the traced per-layer run
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh compare A.json B.json
//	bash bench/run.sh selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the knobs of one invocation.
type options struct {
	seed    int64
	seconds float64
	reps    int
	scale   float64
	outDir  string
}

// env is what one workload run works with.
type env struct {
	options
	traced bool
	dir    string // scratch directory of this run, removed afterwards
	res    *Result
	log    io.Writer
	start  time.Time // first timed cycle; --seconds counts from here

	heapPeak uint64 // largest HeapSys seen after a cycle
	gcCycles uint32 // GC cycles inside the cycles
}

// scaled applies -scale to a tuple count.
func (e *env) scaled(n int) int { return max(int(float64(n)*e.scale), 64) }

// done reports whether the rounds are over: a traced run makes a fixed
// number, an untraced one at least -reps and then on until it has
// measured for --seconds.
func (e *env) done(round int) bool {
	if e.traced {
		return round >= tracedRounds
	}
	return round >= e.reps && time.Since(e.start).Seconds() >= e.seconds
}

// noteMem keeps the rt layer's tally over a cycle's memory snapshots.
func (e *env) noteMem(before, after memSnap) {
	e.heapPeak = max(e.heapPeak, after.heapSys)
	e.gcCycles += after.numGC - before.numGC
}

func (e *env) recordRuntime() {
	e.res.add("rt.heap_peak_mb", float64(e.heapPeak)/(1<<20))
	e.res.add("rt.gc_cycles", float64(e.gcCycles))
}

var workloads = map[string]func(*env) error{
	"file_mixed":    func(e *env) error { return runFile(e, false) },
	"file_columnar": func(e *env) error { return runFile(e, true) },
	"serve_mem":     func(e *env) error { return runServe(e, false) },
	"serve_wal":     func(e *env) error { return runServe(e, true) },
}

// runWorkload runs one workload once, traced or not, with the
// calibration loop before and after it.
func runWorkload(name string, opt options, traced bool, m *Manifest, log io.Writer) (*Result, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	dir, err := os.MkdirTemp(opt.outDir, "work-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{options: opt, traced: traced, dir: dir, res: newResult(name, opt.seed, traced), log: log}
	before := calibrate()
	if err := fn(e); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	after := calibrate()
	e.res.add("gen.calib_ns", float64(before+after)/2)
	if drift := float64(after-before) / float64(before); drift > 0.1 || drift < -0.1 {
		e.res.Noisy = true
	}
	if err := e.res.finish(m); err != nil {
		return nil, err
	}
	return e.res, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload of the manifest (and its traced run when
// asked) and returns the set.
func runAll(opt options, trace bool, m *Manifest, log io.Writer) (*RunFile, error) {
	rf := &RunFile{
		Time:       time.Now().UTC().Format("20060102T150405Z"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       opt.seed,
		Commit:     gitCommit(),
	}
	modes := []bool{false}
	if trace {
		modes = append(modes, true)
	}
	for _, w := range m.Workloads {
		for _, traced := range modes {
			res, err := runWorkload(w.Name, opt, traced, m, log)
			if err != nil {
				return nil, err
			}
			res.print(log, m)
			rf.Results = append(rf.Results, res)
		}
	}
	return rf, nil
}

func writeRunFile(rf *RunFile, dir string) (string, error) {
	path := filepath.Join(dir, "result-"+rf.Time+".json")
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// Two cores, two client connections: the harness never asks for more
	// parallelism than the box has.
	runtime.GOMAXPROCS(runtime.NumCPU())
	m, err := loadManifest()
	if err != nil {
		return err
	}
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if len(args) != 3 {
				return fmt.Errorf("usage: compare A.json B.json")
			}
			return compareFiles(args[1], args[2], m, os.Stdout)
		case "selfcheck":
			return selfcheck(args[1:], m, os.Stdout)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	opt, trace := addFlags(fs)
	workload := fs.String("workload", "", "run this one workload and print the driver's result line last")
	all := fs.Bool("all", false, "run every workload and write bench/out/result-<timestamp>.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	if *workload != "" {
		res, err := runWorkload(*workload, *opt, *trace == 1, m, os.Stdout)
		if err != nil {
			return err
		}
		res.print(os.Stdout, m)
		line, err := res.contractLine(m)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", *workload, res.Failed, res.Attempted)
		}
		return nil
	}
	if !*all && len(args) > 0 {
		return fmt.Errorf("give -all, --workload NAME, compare or selfcheck")
	}
	rf, err := runAll(*opt, *trace == 1, m, os.Stdout)
	if err != nil {
		return err
	}
	path, err := writeRunFile(rf, opt.outDir)
	if err != nil {
		return err
	}
	fmt.Println("result file:", path)
	for _, res := range rf.Results {
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
		}
	}
	return nil
}

// addFlags registers the flags shared by the run modes and selfcheck.
func addFlags(fs *flag.FlagSet) (*options, *int) {
	opt := &options{}
	fs.Int64Var(&opt.seed, "seed", 1, "drives input generation and the seed field of every pollution config")
	fs.Float64Var(&opt.seconds, "seconds", 20, "how long a workload measures: the saturation phase repeats until this much time is spent")
	fs.IntVar(&opt.reps, "reps", 3, "repetitions of every timed phase (the minimum, for the saturation phase)")
	fs.Float64Var(&opt.scale, "scale", 1, "multiplies every tuple count (the smoke test uses 0.01)")
	fs.StringVar(&opt.outDir, "out", "out", "directory for result files, traces and scratch data")
	trace := fs.Int("trace", 0, "1 = the traced run: spans, the budget pass and the per-layer metrics")
	return opt, trace
}
