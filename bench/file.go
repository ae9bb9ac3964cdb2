package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/csvio"
	"icewafl/internal/obs"
	"icewafl/internal/schemafile"
	"icewafl/internal/stream"
)

const (
	// fileTuples is the input size of the file workloads at -scale 1.
	fileTuples = 100_000
	// fileReorder is cmd/icewafl's default -reorder window.
	fileReorder = 64
	// filePacedRate is the open-loop rate of the file workloads' paced
	// phase, about a third of what file_mixed sustains on two cores.
	filePacedRate = 50_000
	// onTimeLimit is the latency limit behind on_time_ratio.
	onTimeLimit = 100 * time.Millisecond
	// tracedRounds is how many rounds a traced run makes; it does not
	// fill --seconds.
	tracedRounds = 2
)

// memSnap is the part of runtime.MemStats the benchmark reports.
type memSnap struct {
	totalAlloc, mallocs, heapSys uint64
	numGC                        uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, heapSys: ms.HeapSys, numGC: ms.NumGC}
}

// fileWorkload is file_mixed (tuple-wise) or file_columnar: a generated
// air-quality CSV on disk, polluted to a dirty CSV and a JSON-lines log
// the way cmd/icewafl -stream does it.
type fileWorkload struct {
	e        *env
	columnar bool
	cfgJSON  string
	n        int

	csvPath, schemaPath string
	inBytes             int64
	inDigest            string

	refDirty, refLog string
	refLogEntries    int
}

// fileCycle is one cold cycle: set-up, run, and what it left behind.
type fileCycle struct {
	setup, build, run, logWrite time.Duration
	mem0, mem1                  memSnap
	n, srcRows                  int
	pace                        *pacer
	pickup                      []int64
}

type fileCycleOpt struct {
	polluted bool    // false = pass-through: reader → writer, no Process
	paced    bool    // open-loop source, per-tuple sink timestamps
	obsOn    bool    // Process.Obs set
	tr       *tracer // spans around the layer calls
}

func (w *fileWorkload) dirtyPath() string { return filepath.Join(w.e.dir, "dirty.csv") }
func (w *fileWorkload) logPath() string   { return filepath.Join(w.e.dir, "log.jsonl") }

// open is the set-up every cycle repeats: schema, reader, Process.
func (w *fileWorkload) open(polluted, columnar bool) (in *os.File, schema *stream.Schema, reader stream.Source, proc *core.Process, build time.Duration, err error) {
	if schema, err = schemafile.Load(w.schemaPath); err != nil {
		return
	}
	if polluted {
		if _, proc, build, err = buildProcess(w.cfgJSON, schema); err != nil {
			return
		}
	}
	if in, err = os.Open(w.csvPath); err != nil {
		return
	}
	if columnar {
		reader, err = csvio.NewColumnReader(in, schema)
	} else {
		reader, err = csvio.NewReader(in, schema)
	}
	if err != nil {
		in.Close()
	}
	return
}

// pollute starts the workload's runner over src.
func (w *fileWorkload) pollute(proc *core.Process, src stream.Source, columnar bool) (stream.Source, *core.Log, error) {
	if columnar {
		return proc.RunStreamColumnar(src, fileReorder)
	}
	return proc.RunStream(src, fileReorder)
}

// reference computes the digests every cycle is checked against: a
// tuple-wise RunStream of the same pipeline and seed, rendered by the
// same writers straight into hashes. file_columnar is therefore checked
// against the tuple-wise engine, not against itself.
func (w *fileWorkload) reference() error {
	in, schema, reader, proc, _, err := w.open(true, false)
	if err != nil {
		return err
	}
	defer in.Close()
	dirty, plog, err := w.pollute(proc, reader, false)
	if err != nil {
		return err
	}
	h := sha256.New()
	n, err := stream.Copy(csvio.NewWriter(h, schema), dirty)
	if err != nil {
		return err
	}
	if n != w.n {
		return fmt.Errorf("reference run emitted %d of %d tuples; the pipeline must not drop", n, w.n)
	}
	w.refDirty = hex.EncodeToString(h.Sum(nil))
	hl := sha256.New()
	if err := plog.WriteJSON(hl); err != nil {
		return err
	}
	w.refLog, w.refLogEntries = hex.EncodeToString(hl.Sum(nil)), plog.Len()
	return nil
}

// latencySink stamps each tuple, by id, when the sink has accepted it.
type latencySink struct {
	stream.Sink
	t0     time.Time
	pickup []int64
}

func (s *latencySink) Write(t stream.Tuple) error {
	err := s.Sink.Write(t)
	s.pickup[t.ID-1] = int64(time.Since(s.t0))
	return err
}

// tracedCopy is stream.Copy with a pull span and a write span per tuple
// batch. The source wrapper below the runner hangs its spans under the
// pull span, so the pull span's self time is the runner's own work.
func tracedCopy(tr *tracer, root int, open, batch *int, sink stream.Sink, src stream.Source) (int, error) {
	n := 0
	mark := time.Now()
	for {
		pull := tr.begin("core.pull", root, *batch)
		write := tr.begin("csvio.write", root, *batch)
		*open = pull
		for i := 0; i < traceBatch; i++ {
			t, err := src.Next()
			now := time.Now()
			tr.add(pull, mark, now)
			mark = now
			if err == io.EOF {
				err = sink.Close()
				tr.add(write, mark, time.Now())
				return n, err
			}
			if err != nil {
				sink.Close()
				return n, err
			}
			if err := sink.Write(t); err != nil {
				sink.Close()
				return n, err
			}
			now = time.Now()
			tr.add(write, mark, now)
			mark = now
			n++
		}
		*batch++
	}
}

// cycle runs one cold cycle of the workload.
func (w *fileWorkload) cycle(opt fileCycleOpt) (*fileCycle, error) {
	c := &fileCycle{}
	if opt.paced {
		c.pace = newPacer(filePacedRate, w.n)
		c.pickup = make([]int64, w.n)
	}
	runtime.GC()
	c.mem0 = readMem()

	setupStart := time.Now()
	in, schema, reader, proc, build, err := w.open(opt.polluted, w.columnar)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	if opt.obsOn {
		proc.Obs = obs.NewRegistry()
	}
	out, err := os.Create(w.dirtyPath())
	if err != nil {
		return nil, err
	}
	defer out.Close()
	var sink stream.Sink = csvio.NewWriter(out, schema)
	c.setup, c.build = time.Since(setupStart), build

	src := reader
	if c.pace != nil {
		src = paced(src, c.pace)
	}
	root, open, batch := -1, -1, 0
	var ts *tracedSource
	if opt.tr != nil {
		root = opt.tr.begin("cycle", -1, -1)
		open = root
		src, ts = traced(src, opt.tr, "csvio.read", &open, &batch)
	}

	runStart := time.Now()
	if c.pace != nil {
		c.pace.t0 = runStart
		sink = &latencySink{Sink: sink, t0: runStart, pickup: c.pickup}
	}
	dirty := src
	var plog *core.Log
	if opt.polluted {
		if dirty, plog, err = w.pollute(proc, src, w.columnar); err != nil {
			return nil, err
		}
	}
	if opt.tr != nil {
		c.n, err = tracedCopy(opt.tr, root, &open, &batch, sink, dirty)
	} else {
		c.n, err = stream.Copy(sink, dirty)
	}
	if err != nil {
		return nil, err
	}
	if plog != nil {
		// As cmd/icewafl does: the log goes to its file once the stream is
		// drained, through the encoder straight onto the *os.File.
		logStart := time.Now()
		lf, err := os.Create(w.logPath())
		if err != nil {
			return nil, err
		}
		if err := plog.WriteJSON(lf); err != nil {
			lf.Close()
			return nil, err
		}
		if err := lf.Close(); err != nil {
			return nil, err
		}
		c.logWrite = time.Since(logStart)
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	c.run = time.Since(runStart)
	if opt.tr != nil {
		opt.tr.add(root, runStart, time.Now())
		c.srcRows = ts.rows
	}
	c.mem1 = readMem()
	return c, w.verify(c, opt.polluted)
}

// verify checks what the cycle wrote against the reference digests.
// Every expected tuple at the dirty sink and every expected log entry
// is one attempted operation; a digest mismatch fails the whole stream.
func (w *fileWorkload) verify(c *fileCycle, polluted bool) error {
	res := w.e.res
	res.ops(int64(w.n))
	want, kind := w.inDigest, "pass-through"
	if polluted {
		want, kind = w.refDirty, "dirty"
	}
	got, _, err := fileDigest(w.dirtyPath())
	if err != nil {
		return err
	}
	switch {
	case c.n != w.n:
		res.failf(int64(w.n), "%s stream has %d tuples, want %d", kind, c.n, w.n)
	case got != want:
		res.failf(int64(w.n), "%s digest %s, reference %s", kind, got, want)
	}
	if !polluted {
		return nil
	}
	res.ops(int64(w.refLogEntries))
	if got, _, err = fileDigest(w.logPath()); err != nil {
		return err
	}
	if got != w.refLog {
		res.failf(int64(w.refLogEntries), "log digest %s, reference %s", got, w.refLog)
	}
	return nil
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recordPaced reports a paced phase: delivery latency from due time at
// every sink that was to receive each tuple, and how the generator
// itself behaved.
func recordPaced(res *Result, p *pacer, pickups ...[]int64) {
	all, onTime := latencies(p, onTimeLimit, pickups...)
	offered := p.n * len(pickups)
	res.add("deliver_p50_ms", ms(time.Duration(percentile(all, 0.50))))
	res.add("on_time_ratio", float64(onTime)/float64(offered))
	res.add("client.deliver_p99_ms", ms(time.Duration(percentile(all, 0.99))))
	res.add("client.deliver_p999_ms", ms(time.Duration(percentile(all, 0.999))))
	res.add("client.deliver_max_ms", ms(time.Duration(percentile(all, 1))))
	res.add("gen.late_p99_ms", ms(p.lateP99()))
	res.add("gen.backlog_max_tuples", float64(p.backlogMax))
}

func runFile(e *env, columnar bool) error {
	w := &fileWorkload{e: e, columnar: columnar, n: e.scaled(fileTuples)}
	w.cfgJSON = fmt.Sprintf(mixedConfig, e.seed)
	if columnar {
		w.cfgJSON = fmt.Sprintf(numericConfig, e.seed)
	}
	res := e.res

	genStart := time.Now()
	var err error
	if w.csvPath, w.schemaPath, w.inBytes, err = genAirQuality(e.dir, e.seed, w.n); err != nil {
		return err
	}
	res.add("gen.input_s", time.Since(genStart).Seconds())
	if w.inDigest, _, err = fileDigest(w.csvPath); err != nil {
		return err
	}
	if err := w.reference(); err != nil {
		return err
	}

	n := float64(w.n)
	var polRuns, coldRuns, tracedRuns, obsRuns []float64
	var polMallocs, passMallocs []float64
	note := func(c *fileCycle) { e.noteMem(c.mem0, c.mem1) }
	e.start = time.Now()
	for round := 0; !e.done(round); round++ {
		pol, err := w.cycle(fileCycleOpt{polluted: true})
		if err != nil {
			return err
		}
		pass, err := w.cycle(fileCycleOpt{})
		if err != nil {
			return err
		}
		note(pol)
		note(pass)
		polRuns = append(polRuns, pol.run.Seconds())
		coldRuns = append(coldRuns, (pol.setup + pol.run).Seconds())
		polMallocs = append(polMallocs, float64(pol.mem1.mallocs-pol.mem0.mallocs))
		passMallocs = append(passMallocs, float64(pass.mem1.mallocs-pass.mem0.mallocs))
		res.add("setup_s", pol.setup.Seconds())
		res.add("config.build_ms", ms(pol.build))
		res.add("tuples_per_s", n/pol.run.Seconds())
		res.add("overhead_ratio", pol.run.Seconds()/pass.run.Seconds())
		// No checkpoint covers this path (reorder window, columnar), so
		// coming back from a kill is a cold start and a full re-run.
		res.add("recover_s", coldRuns[round])
		res.add("wire_bytes_per_tuple", (fileSize(w.dirtyPath())+fileSize(w.logPath()))/n)
		res.add("alloc_bytes_per_tuple", float64(pol.mem1.totalAlloc-pol.mem0.totalAlloc)/n)

		if round < e.reps {
			pc, err := w.cycle(fileCycleOpt{polluted: true, paced: true})
			if err != nil {
				return err
			}
			note(pc)
			res.add("setup_s", pc.setup.Seconds())
			recordPaced(res, pc.pace, pc.pickup)
		}
		if !e.traced {
			continue
		}

		tr := newTracer()
		tc, err := w.cycle(fileCycleOpt{polluted: true, tr: tr})
		if err != nil {
			return err
		}
		note(tc)
		tracedRuns = append(tracedRuns, tc.run.Seconds())
		self := tr.self()
		read, pull, write := self["csvio.read"], self["core.pull"], self["csvio.write"]
		perTuple := func(d time.Duration) float64 { return float64(d) / n }
		res.add("csvio.read_ns_per_tuple", perTuple(read))
		res.add("csvio.write_ns_per_tuple", perTuple(write))
		res.add("core.pollute_ns_per_tuple", perTuple(pull))
		res.add("core.log_write_ns_per_tuple", perTuple(tc.logWrite))
		res.add("core.tuples_in", float64(tc.srcRows))
		res.add("core.tuples_out", float64(tc.n))
		res.add("budget.coverage_ratio", float64(read+pull+write+tc.logWrite)/float64(tc.run))
		if err := tr.flush(filepath.Join(e.outDir, "trace-"+res.Workload+".json")); err != nil {
			return err
		}

		oc, err := w.cycle(fileCycleOpt{polluted: true, obsOn: true})
		if err != nil {
			return err
		}
		note(oc)
		obsRuns = append(obsRuns, oc.run.Seconds())
	}
	// overhead_ratio stays the median of the per-pair ratios: the two
	// cycles of a pair are adjacent in time, so slow drift cancels in
	// each ratio, which measured steadier than the ratio of the bests.
	polRun := slices.Min(polRuns)
	res.best("tuples_per_s", n/polRun)
	res.best("recover_s", slices.Min(coldRuns))
	if !e.traced {
		return nil
	}

	tracedRun := slices.Min(tracedRuns)
	res.add("trace.overhead_ratio", polRun/tracedRun)
	res.add("obs.on_off_ratio", slices.Min(obsRuns)/polRun)
	res.add("core.allocs_per_tuple", (summarize(polMallocs).Median-summarize(passMallocs).Median)/n)
	res.add("core.log_entries_per_tuple", float64(w.refLogEntries)/n)
	res.add("csvio.read_bytes_per_tuple", float64(w.inBytes)/n)
	e.recordRuntime()

	m := func(name string) float64 { return summarize(res.samples[name]).Median }
	e2e := summarize(tracedRuns).Median * 1e9 / n
	rows := []layerRow{
		{"csvio.read", m("csvio.read_ns_per_tuple"), float64(w.inBytes) / n, -1},
		{"core (prepare..reorder)", m("core.pollute_ns_per_tuple"), -1, m("core.allocs_per_tuple")},
		{"csvio.write", m("csvio.write_ns_per_tuple"), fileSize(w.dirtyPath()) / n, -1},
		{"core.log_write", m("core.log_write_ns_per_tuple"), fileSize(w.logPath()) / n, -1},
	}
	attributed := 0.0
	for _, r := range rows {
		attributed += r.ns
	}
	rows = append(rows, layerRow{"harness (unattributed)", e2e - attributed, -1, -1})
	printLayerTable(e.log, res.Workload, rows, e2e)
	return nil
}
