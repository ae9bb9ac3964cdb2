package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// exactMetrics are counts and byte sizes that two runs of one build on
// one seed must reproduce to the last digit.
var exactMetrics = []string{
	"wire_bytes_per_tuple",
	"csvio.read_bytes_per_tuple",
	"core.log_entries_per_tuple", "core.tuples_in", "core.tuples_out",
	"wire.frame_bytes_per_tuple", "wire.colbatch_bytes_per_tuple",
	"wal.bytes_per_tuple", "wal.fsyncs_per_ktuple", "wal.segments",
	"hub.frames_sent", "session.checkpoint_writes",
}

func readRunFile(path string) (*RunFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf RunFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rf, nil
}

func compareFiles(pathA, pathB string, m *Manifest, w io.Writer) error {
	a, err := readRunFile(pathA)
	if err != nil {
		return err
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return err
	}
	compareRuns(a, b, m, w)
	return nil
}

// find returns the untraced (or traced) result of a workload.
func (rf *RunFile) find(workload string, traced bool) *Result {
	for _, r := range rf.Results {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// verdict judges B's value against A's under the metric's bound.
// A row is unresolved when A's own repetitions leave its value uncertain
// by more than the bound: then the benchmark cannot tell a change of
// that size from noise, and says so instead of saying "unchanged".
func verdict(s MetricSpec, a, b Stat) string {
	if a.uncertainty() > s.Bound {
		return "unresolved"
	}
	gain := b.Value/a.Value - 1 // > 0 = B is larger
	if s.Better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -s.Bound:
		return "worse"
	case gain > s.Bound:
		return "better"
	}
	return "unchanged"
}

// compareRuns prints one row per (workload, end-to-end metric) and
// returns how many rows are not "unchanged".
func compareRuns(a, b *RunFile, m *Manifest, w io.Writer) (changed int) {
	fmt.Fprintf(w, "A: %s seed %d commit %s\nB: %s seed %d commit %s\n", a.Time, a.Seed, a.Commit, b.Time, b.Seed, b.Commit)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %18s %6s  %s\n", "workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
	for _, wl := range m.Workloads {
		ra, rb := a.find(wl.Name, false), b.find(wl.Name, false)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-14s missing from one of the files\n", wl.Name)
			changed++
			continue
		}
		for _, s := range m.EndToEnd {
			sa, sb := ra.Metrics[s.Name], rb.Metrics[s.Name]
			v := verdict(s, sa, sb)
			if v != "unchanged" {
				changed++
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %9.4f of %-6.4g %6.2f  %s\n",
				wl.Name, s.Name, sa.Value, sb.Value, sb.Value/sa.Value, sa.Value, s.Bound, v)
		}
		if ra.Failed != rb.Failed {
			fmt.Fprintf(w, "%-14s failed operations differ: %d vs %d\n", wl.Name, ra.Failed, rb.Failed)
			changed++
		}
	}
	return changed
}

// selfcheck measures the same build twice and fails unless every row
// compares as unchanged and every exact metric repeats exactly.
func selfcheck(args []string, m *Manifest, w io.Writer) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	opt, _ := addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	var sets [2]*RunFile
	for i := range sets {
		fmt.Fprintf(w, "selfcheck: set %d of 2\n", i+1)
		rf, err := runAll(*opt, true, m, io.Discard)
		if err != nil {
			return err
		}
		sets[i] = rf
	}
	bad := compareRuns(sets[0], sets[1], m, w)
	for _, wl := range m.Workloads {
		for _, traced := range []bool{false, true} {
			ra, rb := sets[0].find(wl.Name, traced), sets[1].find(wl.Name, traced)
			for _, name := range exactMetrics {
				sa, oka := ra.Metrics[name]
				sb, okb := rb.Metrics[name]
				if oka != okb || sa.Value != sb.Value {
					fmt.Fprintf(w, "%-14s %-32s not exact: %v vs %v\n", wl.Name, name, sa.Value, sb.Value)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d rows differ between two sets of the same build", bad)
	}
	fmt.Fprintln(w, "selfcheck: every row unchanged, every exact metric identical")
	return nil
}
