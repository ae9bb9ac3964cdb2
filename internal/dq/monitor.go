// Monitor is the stream-first DQ engine: it consumes any stream.Source
// and emits per-window validation verdicts continuously, evaluating
// every expectation incrementally (O(1)-amortised state per tuple)
// instead of buffering windows and re-scanning them with the batch
// Check path. Two windowing modes:
//
//   - Tumbling: non-overlapping windows replicating the boundary rules
//     of stream.TumblingWindows (aligned to the first arrival, skip
//     empty, close on the first tuple at/beyond the end, final partial
//     at EOF). Cross-window chain state — the monotonicity prev — is
//     carried across boundaries, so a decrease whose two tuples straddle
//     a boundary flags its tuple in the receiving window. Batch
//     re-validation misses these by construction.
//   - Sliding (width = k·slide): each slide-sized pane keeps its own
//     mergeable partials; a window closes by merging its k panes, not by
//     re-scanning width/slide overlapping tuples per slide. Windows
//     reproduce the batch stream.SlidingWindows grid (anchored at the
//     first arrival, empty windows skipped).
//
// With an obs.Registry attached, the monitor maintains per-expectation
// evaluated/unexpected counters, a per-window evaluation-latency
// histogram (stage dq_window) and a worst-window unexpected-count gauge.
package dq

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

// Monitor continuously validates a stream window by window against a
// suite using the incremental engine.
type Monitor struct {
	suite *Suite
	width time.Duration
	slide time.Duration // == width for tumbling

	reg *obs.Registry

	// worst is the highest single-window unexpected count so far,
	// exported as the dq_worst_window_unexpected gauge.
	worst atomic.Uint64

	// incs is the carried tumbling-mode state, built lazily per Run.
	incs []Incremental
}

// NewMonitor builds a tumbling-window monitor.
func NewMonitor(suite *Suite, width time.Duration) (*Monitor, error) {
	return NewSlidingMonitor(suite, width, width)
}

// NewSlidingMonitor builds a sliding-window monitor: windows of the
// given width advancing by slide. slide == width (or 0) degrades to
// tumbling; otherwise width must be a positive multiple of slide so
// windows decompose exactly into panes.
func NewSlidingMonitor(suite *Suite, width, slide time.Duration) (*Monitor, error) {
	if suite == nil {
		return nil, fmt.Errorf("dq: monitor needs a suite")
	}
	if width <= 0 {
		return nil, fmt.Errorf("dq: monitor window width must be positive, got %v", width)
	}
	if slide == 0 {
		slide = width
	}
	if slide < 0 {
		return nil, fmt.Errorf("dq: monitor slide must be positive, got %v", slide)
	}
	if slide > width {
		return nil, fmt.Errorf("dq: monitor slide %v exceeds width %v", slide, width)
	}
	if width%slide != 0 {
		return nil, fmt.Errorf("dq: monitor width %v must be a multiple of slide %v", width, slide)
	}
	// Validate the suite has incremental forms up front, so Run cannot
	// fail halfway through a live stream over a configuration error.
	if _, err := suite.Incrementals(); err != nil {
		return nil, err
	}
	return &Monitor{suite: suite, width: width, slide: slide}, nil
}

// SetObs attaches a metrics registry (nil-safe): per-expectation
// evaluated/unexpected counters, the dq_window latency histogram and
// the dq_worst_window_unexpected gauge.
func (m *Monitor) SetObs(reg *obs.Registry) {
	m.reg = reg
	reg.RegisterFunc("dq_worst_window_unexpected", m.worst.Load)
}

// WorstUnexpected returns the highest single-window unexpected count
// observed so far.
func (m *Monitor) WorstUnexpected() uint64 { return m.worst.Load() }

// Run consumes src until EOF or a fatal source error, calling emit for
// every closed non-empty window in order. An emit error aborts the run.
// Tuple-level source errors are skipped (a live stream should not die on
// one malformed tuple); a fatal error discards the open partial window
// (its contents are not known to be complete) and is returned.
func (m *Monitor) Run(src stream.Source, emit func(WindowResult) error) error {
	if m.slide == m.width {
		return m.runTumbling(src, emit)
	}
	return m.runSliding(src, emit)
}

// flush renders the per-window state of incs as a WindowResult, feeds
// the metrics, and resets per-window counts (carrying chain state).
func (m *Monitor) flush(incs []Incremental, start, end time.Time, tuples int, emit func(WindowResult) error) error {
	t0 := time.Now()
	wr := WindowResult{Start: start, End: end, Tuples: tuples, Results: make([]Result, len(incs))}
	for i, inc := range incs {
		wr.Results[i] = inc.Snapshot()
		inc.Reset()
	}
	m.observe(wr, time.Since(t0))
	return emit(wr)
}

// observe feeds one closed window into the metrics registry.
func (m *Monitor) observe(wr WindowResult, d time.Duration) {
	for _, r := range wr.Results {
		m.reg.AddDQ(r.Expectation, uint64(r.Evaluated), uint64(r.Unexpected))
	}
	m.reg.ObserveStage(obs.StageDQWindow, d)
	if n := uint64(wr.Unexpected()); n > m.worst.Load() {
		m.worst.Store(n)
	}
}

// runTumbling replicates stream.TumblingWindows' boundary rules while
// feeding tuples straight into the carried incremental state.
func (m *Monitor) runTumbling(src stream.Source, emit func(WindowResult) error) error {
	incs, err := m.suite.Incrementals()
	if err != nil {
		return err
	}
	m.incs = incs
	var (
		open       bool
		start, end time.Time
		count      int
	)
	for {
		t, err := src.Next()
		if err == io.EOF {
			if open {
				return m.flush(incs, start, end, count, emit)
			}
			return nil
		}
		if err != nil {
			if _, ok := stream.AsTupleError(err); ok {
				continue
			}
			return err
		}
		if !open {
			open = true
			start, end = t.Arrival, t.Arrival.Add(m.width)
		}
		if !t.Arrival.Before(end) {
			if err := m.flush(incs, start, end, count, emit); err != nil {
				return err
			}
			count = 0
			// Advance far enough to contain the new tuple, skipping
			// empty windows; fall back to re-anchoring at t for
			// backwards-moving clocks — exactly TumblingWindows' rule.
			ns := end
			for !t.Arrival.Before(ns.Add(m.width)) {
				ns = ns.Add(m.width)
			}
			if t.Arrival.Before(ns) {
				ns = t.Arrival
			}
			start, end = ns, ns.Add(m.width)
		}
		count++
		for _, inc := range incs {
			inc.Observe(t)
		}
	}
}

// pane is one slide-sized partial of the sliding mode.
type pane struct {
	incs  []Incremental
	count int
}

// runSliding evaluates the sliding grid by pane merge: pane j covers
// [first + j·slide, first + (j+1)·slide); window i is the merge of
// panes i..i+k-1 and closes when a tuple lands in pane >= i+k.
func (m *Monitor) runSliding(src stream.Source, emit func(WindowResult) error) error {
	k := int(m.width / m.slide)
	panes := make(map[int]*pane)
	newPane := func() (*pane, error) {
		incs, err := m.suite.Incrementals()
		if err != nil {
			return nil, err
		}
		for _, inc := range incs {
			EnableMergeRecording(inc)
		}
		return &pane{incs: incs}, nil
	}
	var (
		haveFirst bool
		first     time.Time
		low       int // lowest pane not yet retired
		maxPane   int
	)
	// closeWindow merges panes i..i+k-1 into fresh accumulators and
	// emits the window if non-empty.
	closeWindow := func(i int) error {
		total := 0
		for j := i; j < i+k; j++ {
			if p := panes[j]; p != nil {
				total += p.count
			}
		}
		if total == 0 {
			return nil
		}
		t0 := time.Now()
		accs, err := m.suite.Incrementals()
		if err != nil {
			return err
		}
		for j := i; j < i+k; j++ {
			p := panes[j]
			if p == nil {
				continue
			}
			for x, acc := range accs {
				if err := acc.Merge(p.incs[x]); err != nil {
					return err
				}
			}
		}
		start := first.Add(time.Duration(i) * m.slide)
		wr := WindowResult{Start: start, End: start.Add(m.width), Tuples: total, Results: make([]Result, len(accs))}
		for x, acc := range accs {
			wr.Results[x] = acc.Snapshot()
		}
		m.observe(wr, time.Since(t0))
		return emit(wr)
	}
	// closeThrough closes windows low..upTo-1 and retires their panes.
	closeThrough := func(upTo int) error {
		for ; low < upTo; low++ {
			if err := closeWindow(low); err != nil {
				return err
			}
			delete(panes, low)
		}
		return nil
	}
	for {
		t, err := src.Next()
		if err == io.EOF {
			if !haveFirst {
				return nil
			}
			// Trailing partial windows: the batch grid emits windows
			// whose start is at or before the last arrival, i.e. up to
			// window maxPane.
			return closeThrough(maxPane + 1)
		}
		if err != nil {
			if _, ok := stream.AsTupleError(err); ok {
				continue
			}
			return err
		}
		if !haveFirst {
			haveFirst = true
			first = t.Arrival
		}
		p := int(t.Arrival.Sub(first) / m.slide)
		if t.Arrival.Before(first) || p < low {
			// Late data whose pane has already been retired (or a clock
			// running backwards past the anchor): absorb into the oldest
			// open pane rather than dropping the tuple.
			p = low
		}
		if p > maxPane {
			maxPane = p
		}
		// Close every window fully covered before pane p opens.
		if err := closeThrough(p - k + 1); err != nil {
			return err
		}
		pn := panes[p]
		if pn == nil {
			if pn, err = newPane(); err != nil {
				return err
			}
			panes[p] = pn
		}
		pn.count++
		for _, inc := range pn.incs {
			inc.Observe(t)
		}
	}
}

// Verdict wire format ---------------------------------------------------

// verdictResult is the NDJSON rendering of one expectation Result.
type verdictResult struct {
	Expectation   string   `json:"expectation"`
	Evaluated     int      `json:"evaluated"`
	Unexpected    int      `json:"unexpected"`
	UnexpectedIDs []uint64 `json:"unexpected_ids,omitempty"`
	Observed      *float64 `json:"observed,omitempty"`
	Success       bool     `json:"success"`
}

// verdict is the NDJSON rendering of one WindowResult.
type verdict struct {
	Start      string          `json:"start"`
	End        string          `json:"end"`
	Tuples     int             `json:"tuples"`
	Unexpected int             `json:"unexpected"`
	Results    []verdictResult `json:"results"`
}

// verdictTime is the window-boundary timestamp encoding.
const verdictTime = time.RFC3339Nano

// WriteVerdict writes one WindowResult as a single NDJSON line — the
// format `dqcheck -follow` streams as windows close, and `dqcheck
// -window -ndjson` writes offline, so live and offline runs over the
// same stream are byte-comparable.
func WriteVerdict(w io.Writer, wr WindowResult) error {
	v := verdict{
		Start:      wr.Start.UTC().Format(verdictTime),
		End:        wr.End.UTC().Format(verdictTime),
		Tuples:     wr.Tuples,
		Unexpected: wr.Unexpected(),
		Results:    make([]verdictResult, len(wr.Results)),
	}
	for i, r := range wr.Results {
		vr := verdictResult{
			Expectation:   r.Expectation,
			Evaluated:     r.Evaluated,
			Unexpected:    r.Unexpected,
			UnexpectedIDs: r.UnexpectedIDs,
			Success:       r.Success,
		}
		if r.Observed != 0 && !math.IsNaN(r.Observed) && !math.IsInf(r.Observed, 0) {
			obsv := r.Observed
			vr.Observed = &obsv
		}
		v.Results[i] = vr
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dq: marshal verdict: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
