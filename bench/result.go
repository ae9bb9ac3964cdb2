package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// manifestPath is BENCHMARK.json seen from the benchmark's directory,
// which is the working directory of every entry point (run.sh, go test).
const manifestPath = "../BENCHMARK.json"

// MetricSpec is one metric of the manifest. Bound is set on end-to-end
// metrics only.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Manifest is BENCHMARK.json. The harness takes metric names, units,
// directions and bounds from it and from nowhere else, so the two
// cannot drift apart silently.
type Manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

func loadManifest() (*Manifest, error) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", manifestPath, err)
	}
	return &m, nil
}

// spec finds a metric by name in either list.
func (m *Manifest) spec(name string) (MetricSpec, bool) {
	for _, list := range [][]MetricSpec{m.EndToEnd, m.PerLayer} {
		for _, s := range list {
			if s.Name == name {
				return s, true
			}
		}
	}
	return MetricSpec{}, false
}

// Result is one workload's outcome: the samples of every metric it
// measured, the operation tally, and the validity flags.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Attempted counts operations: one expected tuple at one sink or
	// subscriber, or one control-plane call. Failed counts the ones that
	// went wrong; a digest mismatch fails its whole stream.
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Noisy reports that the calibration loop drifted by more than a
	// tenth between the start and the end of the workload.
	Noisy   bool            `json:"noisy"`
	Metrics map[string]Stat `json:"metrics"`

	samples map[string][]float64
	bests   map[string]float64
}

func newResult(workload string, seed int64, traced bool) *Result {
	return &Result{Workload: workload, Seed: seed, Traced: traced, samples: map[string][]float64{}, bests: map[string]float64{}}
}

// add records one repetition's sample of a metric.
func (r *Result) add(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// best makes v, not the median of the samples, the metric's reported
// value. The workloads use it for the wall-clock timings of saturated
// phases: on a shared box interference only ever adds time (measured
// here: +-10% between repetitions, as much in CPU time as in wall time,
// uncorrelated with a calibration loop), so the fastest repetition is
// the steadiest estimate of what the program costs.
func (r *Result) best(name string, v float64) { r.bests[name] = v }

// ops tallies n attempted operations.
func (r *Result) ops(n int64) { r.Attempted += n }

// failf tallies n failed operations with the reason.
func (r *Result) failf(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *Result) failedRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// finish folds the samples into Metrics and checks them against the
// manifest: a sample under a name the manifest does not list, a
// non-finite value, or a missing end-to-end metric is an error. A
// per-layer metric the workload never touched reads 0 — that layer did
// no work here.
func (r *Result) finish(m *Manifest) error {
	r.Metrics = map[string]Stat{}
	for name, xs := range r.samples {
		if _, ok := m.spec(name); !ok {
			return fmt.Errorf("%s: metric %q is not in %s", r.Workload, name, manifestPath)
		}
		s := summarize(xs)
		if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			return fmt.Errorf("%s: metric %q is not finite", r.Workload, name)
		}
		if v, ok := r.bests[name]; ok {
			s.Value = v
		}
		r.Metrics[name] = s
	}
	for _, s := range m.EndToEnd {
		if _, ok := r.Metrics[s.Name]; !ok {
			return fmt.Errorf("%s: end-to-end metric %q was not measured", r.Workload, s.Name)
		}
	}
	if r.Traced {
		for _, s := range m.PerLayer {
			if _, ok := r.Metrics[s.Name]; !ok {
				r.Metrics[s.Name] = Stat{N: 0}
			}
		}
	}
	return nil
}

// print writes every metric by name with its unit, in manifest order.
func (r *Result) print(w io.Writer, m *Manifest) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	if r.Noisy {
		mode += ", NOISY"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d): %d operations, %d failed (failed_ratio %.6f)\n",
		r.Workload, mode, r.Seed, r.Attempted, r.Failed, r.failedRatio())
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	lists := [][]MetricSpec{m.EndToEnd}
	if r.Traced {
		lists = append(lists, m.PerLayer)
	}
	var idle []string
	for _, list := range lists {
		for _, s := range list {
			st := r.Metrics[s.Name]
			if st.N == 0 {
				idle = append(idle, s.Name)
				continue
			}
			fmt.Fprintf(w, "%-14s %-36s %14.6g %-7s median %.6g min %.6g q1 %.6g q3 %.6g max %.6g n=%d\n",
				r.Workload, s.Name, st.Value, s.Unit, st.Median, st.Min, st.Q1, st.Q3, st.Max, st.N)
		}
	}
	if len(idle) > 0 {
		fmt.Fprintf(w, "%-14s 0 (layer did no work here): %s\n", r.Workload, strings.Join(idle, " "))
	}
}

// contractLine renders the acceptance driver's result object: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one.
func (r *Result) contractLine(m *Manifest) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := m.EndToEnd
	if r.Traced {
		list = m.PerLayer
	}
	metrics := map[string]value{}
	for _, s := range list {
		metrics[s.Name] = value{Value: r.Metrics[s.Name].Value, Unit: s.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
}

// RunFile is what -all writes to bench/out/result-<timestamp>.json and
// what compare reads.
type RunFile struct {
	Time       string    `json:"time"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Commit     string    `json:"git_commit"`
	Results    []*Result `json:"results"`
}
