package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"icewafl/internal/stream"
)

// traceBatch is the number of tuples one span covers. Spans are kept
// per tuple batch, not per tuple, so a traced cycle holds thousands of
// spans in memory instead of millions.
const traceBatch = 256

// Span is one layer's work on one tuple batch, recorded from the
// harness around the calls into that layer. Busy is the time spent
// inside those calls between Start and End; a layer's self time is its
// Busy minus its child spans' Busy.
type Span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Batch  int    `json:"batch"`  // tuple-batch id, -1 for a whole-cycle span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int    `json:"calls"`
}

// tracer keeps one cycle's spans in memory. It is used from the
// goroutine that drives the pipeline only.
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string, parent, batch int) int {
	tr.spans = append(tr.spans, Span{Name: name, Parent: parent, Batch: batch, Start: int64(time.Since(tr.t0))})
	return len(tr.spans) - 1
}

// add accounts one call, which ran from..to, to span i.
func (tr *tracer) add(i int, from, to time.Time) {
	s := &tr.spans[i]
	s.Busy += int64(to.Sub(from))
	s.Calls++
	s.End = int64(to.Sub(tr.t0))
}

// self sums each layer's self time: Busy minus the children's Busy.
func (tr *tracer) self() map[string]time.Duration {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Busy
		}
	}
	out := map[string]time.Duration{}
	for i, s := range tr.spans {
		out[s.Name] += time.Duration(s.Busy - child[i])
	}
	return out
}

func (tr *tracer) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSource times every pull from inner as a child span of whatever
// span the driving loop currently has open (*parent).
type tracedSource struct {
	inner  stream.Source
	tr     *tracer
	name   string
	parent *int
	batch  *int

	cur, curParent int
	rows           int

	// every > 0: the source is not driven by a loop that opens spans, so
	// it starts a new root span of its own every that many rows.
	every               int
	ownParent, ownBatch int
}

func (s *tracedSource) Schema() *stream.Schema { return s.inner.Schema() }

// span returns the child span under the currently open parent.
func (s *tracedSource) span() int {
	if s.cur < 0 || s.curParent != *s.parent {
		s.cur = s.tr.begin(s.name, *s.parent, *s.batch)
		s.curParent = *s.parent
	}
	return s.cur
}

func (s *tracedSource) Next() (stream.Tuple, error) {
	start := time.Now()
	t, err := s.inner.Next()
	s.tr.add(s.span(), start, time.Now())
	if err == nil {
		s.rows++
		if s.every > 0 && s.rows%s.every == 0 {
			s.ownBatch++
			s.cur = -1
		}
	}
	return t, err
}

// tracedBatchSource keeps the batch face of a traced source.
type tracedBatchSource struct {
	*tracedSource
	cbr stream.ColumnBatchReader
}

func (s *tracedBatchSource) ReadBatch(dst *stream.ColumnBatch, max int) (int, error) {
	start := time.Now()
	n, err := s.cbr.ReadBatch(dst, max)
	s.tr.add(s.span(), start, time.Now())
	s.rows += n
	return n, err
}

// traced wraps src, keeping its batch face when it has one. parent and
// batch point at the driving loop's open span and current batch id. The
// wrapper is returned a second time under its own type, for its row
// count.
func traced(src stream.Source, tr *tracer, name string, parent, batch *int) (stream.Source, *tracedSource) {
	ts := &tracedSource{inner: src, tr: tr, name: name, parent: parent, batch: batch, cur: -1}
	if cbr, ok := src.(stream.ColumnBatchReader); ok {
		return &tracedBatchSource{tracedSource: ts, cbr: cbr}, ts
	}
	return ts, ts
}

// tracedEvery wraps a source nobody drives from a span-opening loop (the
// generator inside a served session): one root span per every rows.
func tracedEvery(src stream.Source, tr *tracer, name string, every int) stream.Source {
	ts := &tracedSource{inner: src, tr: tr, name: name, cur: -1, every: every, ownParent: -1}
	ts.parent, ts.batch = &ts.ownParent, &ts.ownBatch
	return ts
}

// merge appends another goroutine's finished spans, hanging its roots
// under parent.
func (tr *tracer) merge(other *tracer, parent int) {
	off := len(tr.spans)
	for _, s := range other.spans {
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += off
		}
		tr.spans = append(tr.spans, s)
	}
}

// layerRow is one row of the per-workload layer table.
type layerRow struct {
	layer  string
	ns     float64 // per tuple
	bytes  float64 // per tuple, <0 = not measured
	allocs float64 // per tuple, <0 = not measured
}

// printLayerTable prints "what is slow" as a table: one row per layer,
// the unattributed rest, and the end-to-end ns/tuple last. share is the
// row's part of the end-to-end time; on the serve workloads the layers
// run on two cores, so the shares may add up to more than 1.
func printLayerTable(w io.Writer, workload string, rows []layerRow, e2eNs float64) {
	cell := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	fmt.Fprintf(w, "-- %s: layer budget (per tuple)\n", workload)
	fmt.Fprintf(w, "%-28s %12s %10s %12s %8s\n", "layer", "ns/tuple", "B/tuple", "allocs/tuple", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %12.1f %10s %12s %8.3f\n", r.layer, r.ns, cell(r.bytes), cell(r.allocs), r.ns/e2eNs)
	}
	fmt.Fprintf(w, "%-28s %12.1f %10s %12s %8.3f\n", "end-to-end", e2eNs, "-", "-", 1.0)
}
