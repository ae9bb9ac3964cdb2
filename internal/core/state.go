package core

import (
	"fmt"
	"math"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// This file implements the paper's first future-work item (§5):
// "extend our model to incorporate time-dependent states of the data
// stream and dependencies between tuple-specific random variables."
//
// StreamState tracks running statistics of the stream as tuples flow
// through a pipeline; stateful conditions consult it, so an error can
// depend on the stream's history (e.g. "pollute when the value deviates
// from the running mean") or on previously injected errors (e.g. bursty
// Markov error processes, error budgets).

// StreamState accumulates per-attribute running statistics and a bounded
// window of recent values. Like other stateful components it belongs to
// one pollution run of one sub-stream; instantiate fresh per run.
type StreamState struct {
	attrs  map[string]*attrState
	window int
	// tuples counts every observed tuple.
	tuples int
	// lastEvent is the most recent observed event time.
	lastEvent time.Time
}

type attrState struct {
	count  int
	mean   float64
	m2     float64 // sum of squared deviations (Welford)
	min    float64
	max    float64
	recent []float64 // ring buffer of the last `window` values
	pos    int
	filled bool
}

// NewStreamState returns a state tracker keeping a recent-value window
// of the given size per attribute (window < 1 disables the window).
func NewStreamState(window int) *StreamState {
	return &StreamState{attrs: make(map[string]*attrState), window: window}
}

// Observe folds one tuple into the state. Observation order equals
// pipeline order; wire it in front of stateful polluters with
// NewObserver.
func (s *StreamState) Observe(t stream.Tuple, tau time.Time) {
	s.tuples++
	s.lastEvent = tau
	schema := t.Schema()
	for i := 0; i < schema.Len(); i++ {
		v, ok := t.At(i).AsFloat()
		if !ok {
			continue
		}
		s.observeValue(schema.Field(i).Name, v)
	}
}

func (s *StreamState) observeValue(attr string, v float64) {
	st := s.attrs[attr]
	if st == nil {
		st = &attrState{min: v, max: v}
		if s.window > 0 {
			st.recent = make([]float64, s.window)
		}
		s.attrs[attr] = st
	}
	st.count++
	delta := v - st.mean
	st.mean += delta / float64(st.count)
	st.m2 += float64(delta * (v - st.mean))
	if v < st.min {
		st.min = v
	}
	if v > st.max {
		st.max = v
	}
	if len(st.recent) > 0 {
		st.recent[st.pos] = v
		st.pos = (st.pos + 1) % len(st.recent)
		if st.pos == 0 {
			st.filled = true
		}
	}
}

// Tuples returns the number of observed tuples.
func (s *StreamState) Tuples() int { return s.tuples }

// Count returns how many numeric values of attr were observed.
func (s *StreamState) Count(attr string) int {
	if st := s.attrs[attr]; st != nil {
		return st.count
	}
	return 0
}

// Mean returns the running mean of attr (ok=false before the first
// observation).
func (s *StreamState) Mean(attr string) (float64, bool) {
	st := s.attrs[attr]
	if st == nil || st.count == 0 {
		return 0, false
	}
	return st.mean, true
}

// Stddev returns the running standard deviation of attr.
func (s *StreamState) Stddev(attr string) (float64, bool) {
	st := s.attrs[attr]
	if st == nil || st.count < 2 {
		return 0, false
	}
	return math.Sqrt(st.m2 / float64(st.count)), true
}

// MinMax returns the observed extremes of attr.
func (s *StreamState) MinMax(attr string) (min, max float64, ok bool) {
	st := s.attrs[attr]
	if st == nil || st.count == 0 {
		return 0, 0, false
	}
	return st.min, st.max, true
}

// Recent returns the windowed recent values of attr, oldest first.
func (s *StreamState) Recent(attr string) []float64 {
	st := s.attrs[attr]
	if st == nil || len(st.recent) == 0 {
		return nil
	}
	if !st.filled {
		return append([]float64(nil), st.recent[:st.pos]...)
	}
	out := make([]float64, 0, len(st.recent))
	out = append(out, st.recent[st.pos:]...)
	out = append(out, st.recent[:st.pos]...)
	return out
}

// Observer is a pass-through polluter that feeds every tuple into a
// StreamState without modifying it. Place it in the pipeline before the
// polluters whose conditions consult the state, so that "history" means
// "tuples seen so far".
type Observer struct {
	State *StreamState
}

// NewObserver wraps state.
func NewObserver(state *StreamState) *Observer { return &Observer{State: state} }

// Name implements Polluter.
func (o *Observer) Name() string { return "state-observer" }

// Pollute implements Polluter (observation only).
func (o *Observer) Pollute(t *stream.Tuple, tau time.Time, _ *Log) {
	o.State.Observe(*t, tau)
}

// DeviationCondition fires when the attribute's current value deviates
// from the running mean by more than Sigmas standard deviations — a
// history-dependent condition impossible to express with per-tuple
// conditions alone. It needs at least MinCount observations before it
// can fire (default 30).
type DeviationCondition struct {
	State    *StreamState
	Attr     string
	Sigmas   float64
	MinCount int
}

// Eval implements Condition.
func (c DeviationCondition) Eval(t stream.Tuple, _ time.Time) bool {
	minCount := c.MinCount
	if minCount == 0 {
		minCount = 30
	}
	if c.State.Count(c.Attr) < minCount {
		return false
	}
	v, ok := t.Get(c.Attr)
	if !ok {
		return false
	}
	f, isNum := v.AsFloat()
	if !isNum {
		return false
	}
	mean, _ := c.State.Mean(c.Attr)
	sd, ok := c.State.Stddev(c.Attr)
	if !ok || sd == 0 {
		return false
	}
	return math.Abs(f-mean) > c.Sigmas*sd
}

// Describe implements Condition.
func (c DeviationCondition) Describe() string {
	return fmt.Sprintf("|%s - mean| > %g sigma", c.Attr, c.Sigmas)
}

// MarkovCondition models bursty errors as a two-state Markov chain
// (Gilbert-Elliott): in the good state errors are off, in the bad state
// they are on; PEnterBad and PExitBad are the per-tuple transition
// probabilities. Consecutive tuples' error indicators are therefore
// dependent random variables — exactly the "dependencies between
// tuple-specific random variables" of the future-work plan.
type MarkovCondition struct {
	PEnterBad float64
	PExitBad  float64
	Rand      *rng.Stream

	bad bool
}

// NewMarkovCondition returns a chain starting in the good state.
func NewMarkovCondition(pEnterBad, pExitBad float64, r *rng.Stream) *MarkovCondition {
	return &MarkovCondition{PEnterBad: pEnterBad, PExitBad: pExitBad, Rand: r}
}

// Eval implements Condition: it advances the chain one step per tuple
// and reports whether the chain is in the bad state.
func (c *MarkovCondition) Eval(stream.Tuple, time.Time) bool {
	if c.bad {
		if c.Rand.Bernoulli(c.PExitBad) {
			c.bad = false
		}
	} else {
		if c.Rand.Bernoulli(c.PEnterBad) {
			c.bad = true
		}
	}
	return c.bad
}

// ResetRunState implements Resettable: the chain restarts in the good
// state.
func (c *MarkovCondition) ResetRunState() { c.bad = false }

// Describe implements Condition.
func (c *MarkovCondition) Describe() string {
	return fmt.Sprintf("markov(enter=%g, exit=%g)", c.PEnterBad, c.PExitBad)
}

// BudgetCondition fires while fewer than Budget errors were injected by
// the wrapped polluter's log within the sliding event-time window — a
// dependency on the history of *injected errors* rather than data. It
// observes firings through its own bookkeeping: every true evaluation
// counts against the budget.
type BudgetCondition struct {
	Inner  Condition
	Budget int
	Window time.Duration

	firings []time.Time
}

// NewBudgetCondition caps inner's firings at budget per window.
func NewBudgetCondition(inner Condition, budget int, window time.Duration) *BudgetCondition {
	return &BudgetCondition{Inner: inner, Budget: budget, Window: window}
}

// Eval implements Condition.
func (c *BudgetCondition) Eval(t stream.Tuple, tau time.Time) bool {
	// Expire firings outside the window.
	cutoff := tau.Add(-c.Window)
	keep := c.firings[:0]
	for _, f := range c.firings {
		if f.After(cutoff) {
			keep = append(keep, f)
		}
	}
	c.firings = keep
	if len(c.firings) >= c.Budget {
		return false
	}
	if !c.Inner.Eval(t, tau) {
		return false
	}
	c.firings = append(c.firings, tau)
	return true
}

// ResetRunState implements Resettable: no firing counts against the
// budget.
func (c *BudgetCondition) ResetRunState() { c.firings = nil }

// Describe implements Condition.
func (c *BudgetCondition) Describe() string {
	return fmt.Sprintf("at most %d per %s of (%s)", c.Budget, c.Window, c.Inner.Describe())
}

// CascadeCondition fires for tuples whose predecessor (by tuple ID in
// the same sub-stream) was polluted by the named upstream polluter —
// error propagation from tuple to tuple, as in the motivating scenario's
// dependent sensors. It inspects the sub-stream's shared log, so the
// upstream polluter must run in the same pipeline.
type CascadeCondition struct {
	Log      *Log
	Upstream string

	prevID  uint64
	hasPrev bool
}

// Eval implements Condition: it reports whether the log records an
// upstream hit on the tuple processed immediately before t. Tuple IDs
// grow monotonically within a sub-stream, so scanning the log tail is
// amortised O(1).
func (c *CascadeCondition) Eval(t stream.Tuple, _ time.Time) bool {
	fire := false
	if c.hasPrev {
		for i := len(c.Log.Entries) - 1; i >= 0; i-- {
			e := c.Log.Entries[i]
			if e.TupleID < c.prevID {
				break
			}
			if e.TupleID == c.prevID && e.Polluter == c.Upstream {
				fire = true
				break
			}
		}
	}
	c.prevID = t.ID
	c.hasPrev = true
	return fire
}

// ResetRunState implements Resettable: the next tuple has no
// predecessor.
func (c *CascadeCondition) ResetRunState() { c.prevID, c.hasPrev = 0, false }

// Describe implements Condition.
func (c *CascadeCondition) Describe() string {
	return fmt.Sprintf("previous tuple hit by %q", c.Upstream)
}
