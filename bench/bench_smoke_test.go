package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs all four workloads, untraced and traced, at 1/100
// scale. It asserts nothing about speed. It fails when the harness and
// BENCHMARK.json drift apart — a metric or workload named in one and
// not the other, emitted twice, or not finite — and when any digest
// check fails.
func TestSmoke(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	names := map[string]bool{}
	for _, list := range [][]MetricSpec{m.EndToEnd, m.PerLayer} {
		for _, s := range list {
			if names[s.Name] || !nameRE.MatchString(s.Name) {
				t.Errorf("manifest metric %q is repeated or badly named", s.Name)
			}
			names[s.Name] = true
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}

	opt := options{seed: 7, reps: 1, scale: 0.01, outDir: t.TempDir()}
	worked := map[string]bool{} // per-layer metrics some workload measured
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w.Name, opt, traced, m, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: %d of %d operations failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Errors)
			}
			want := m.PerLayer
			if !traced {
				want = m.EndToEnd
			}
			line, err := res.contractLine(m)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool `json:"correct"`
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Errorf("%s: result line lacks a key: %s", w.Name, line)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%t: result line has %d metrics, manifest lists %d", w.Name, traced, len(got.Metrics), len(want))
			}
			for _, s := range want {
				v, ok := got.Metrics[s.Name]
				switch {
				case !ok || v.Value == nil:
					t.Errorf("%s traced=%t: metric %q not emitted", w.Name, traced, s.Name)
					continue
				case math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0):
					t.Errorf("%s: metric %q is not finite", w.Name, s.Name)
				case v.Unit != s.Unit:
					t.Errorf("%s: metric %q has unit %q, manifest says %q", w.Name, s.Name, v.Unit, s.Unit)
				case !traced && *v.Value == 0:
					t.Errorf("%s: end-to-end metric %q is 0", w.Name, s.Name)
				}
				if res.Metrics[s.Name].N > 0 {
					worked[s.Name] = true
				}
			}
		}
	}
	for _, s := range m.PerLayer {
		if !worked[s.Name] {
			t.Errorf("no workload measures per-layer metric %q", s.Name)
		}
	}
}
