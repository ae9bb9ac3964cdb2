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
	run streamState
}

// streamState is StreamState's run state, as its checkpoint stores it.
type streamState struct {
	Window int `json:"window"`
	// Tuples counts every observed tuple.
	Tuples int `json:"tuples"`
	// LastEvent is the most recent observed event time.
	LastEvent time.Time             `json:"last_event"`
	Attrs     map[string]*attrState `json:"attrs"`
}

type attrState struct {
	Count  int       `json:"count"`
	Mean   float64   `json:"mean"`
	M2     float64   `json:"m2"` // sum of squared deviations (Welford)
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Recent []float64 `json:"recent,omitempty"` // ring buffer of the last Window values
	Pos    int       `json:"pos,omitempty"`
	Filled bool      `json:"filled,omitempty"`
}

// NewStreamState returns a state tracker keeping a recent-value window
// of the given size per attribute (window < 1 disables the window).
func NewStreamState(window int) *StreamState {
	return &StreamState{run: streamState{Window: window, Attrs: make(map[string]*attrState)}}
}

// Observe folds one tuple into the state. Observation order equals
// pipeline order; wire it in front of stateful polluters with
// NewObserver.
func (s *StreamState) Observe(t stream.Tuple, tau time.Time) {
	s.run.Tuples++
	s.run.LastEvent = tau
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
	st := s.run.Attrs[attr]
	if st == nil {
		st = &attrState{Min: v, Max: v}
		if s.run.Window > 0 {
			st.Recent = make([]float64, s.run.Window)
		}
		s.run.Attrs[attr] = st
	}
	st.Count++
	delta := v - st.Mean
	st.Mean += delta / float64(st.Count)
	st.M2 += float64(delta * (v - st.Mean))
	if v < st.Min {
		st.Min = v
	}
	if v > st.Max {
		st.Max = v
	}
	if len(st.Recent) > 0 {
		st.Recent[st.Pos] = v
		st.Pos = (st.Pos + 1) % len(st.Recent)
		if st.Pos == 0 {
			st.Filled = true
		}
	}
}

// Tuples returns the number of observed tuples.
func (s *StreamState) Tuples() int { return s.run.Tuples }

// Count returns how many numeric values of attr were observed.
func (s *StreamState) Count(attr string) int {
	if st := s.run.Attrs[attr]; st != nil {
		return st.Count
	}
	return 0
}

// Mean returns the running mean of attr (ok=false before the first
// observation).
func (s *StreamState) Mean(attr string) (float64, bool) {
	st := s.run.Attrs[attr]
	if st == nil || st.Count == 0 {
		return 0, false
	}
	return st.Mean, true
}

// Stddev returns the running standard deviation of attr.
func (s *StreamState) Stddev(attr string) (float64, bool) {
	st := s.run.Attrs[attr]
	if st == nil || st.Count < 2 {
		return 0, false
	}
	return math.Sqrt(st.M2 / float64(st.Count)), true
}

// MinMax returns the observed extremes of attr.
func (s *StreamState) MinMax(attr string) (min, max float64, ok bool) {
	st := s.run.Attrs[attr]
	if st == nil || st.Count == 0 {
		return 0, 0, false
	}
	return st.Min, st.Max, true
}

// Recent returns the windowed recent values of attr, oldest first.
func (s *StreamState) Recent(attr string) []float64 {
	st := s.run.Attrs[attr]
	if st == nil || len(st.Recent) == 0 {
		return nil
	}
	if !st.Filled {
		return append([]float64(nil), st.Recent[:st.Pos]...)
	}
	out := make([]float64, 0, len(st.Recent))
	out = append(out, st.Recent[st.Pos:]...)
	out = append(out, st.Recent[:st.Pos]...)
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

	run markovState
}

// NewMarkovCondition returns a chain starting in the good state.
func NewMarkovCondition(pEnterBad, pExitBad float64, r *rng.Stream) *MarkovCondition {
	return &MarkovCondition{PEnterBad: pEnterBad, PExitBad: pExitBad, Rand: r}
}

// Eval implements Condition: it advances the chain one step per tuple
// and reports whether the chain is in the bad state.
func (c *MarkovCondition) Eval(stream.Tuple, time.Time) bool {
	if c.run.Bad {
		if c.Rand.Bernoulli(c.PExitBad) {
			c.run.Bad = false
		}
	} else {
		if c.Rand.Bernoulli(c.PEnterBad) {
			c.run.Bad = true
		}
	}
	return c.run.Bad
}

// ResetRunState implements Resettable: the chain restarts in the good
// state.
func (c *MarkovCondition) ResetRunState() { c.run = markovState{} }

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

	run budgetState
}

// NewBudgetCondition caps inner's firings at budget per window.
func NewBudgetCondition(inner Condition, budget int, window time.Duration) *BudgetCondition {
	return &BudgetCondition{Inner: inner, Budget: budget, Window: window}
}

// Eval implements Condition.
func (c *BudgetCondition) Eval(t stream.Tuple, tau time.Time) bool {
	// Expire firings outside the window.
	cutoff := tau.Add(-c.Window)
	keep := c.run.Firings[:0]
	for _, f := range c.run.Firings {
		if f.After(cutoff) {
			keep = append(keep, f)
		}
	}
	c.run.Firings = keep
	if len(c.run.Firings) >= c.Budget {
		return false
	}
	if !c.Inner.Eval(t, tau) {
		return false
	}
	c.run.Firings = append(c.run.Firings, tau)
	return true
}

// ResetRunState implements Resettable: no firing counts against the
// budget.
func (c *BudgetCondition) ResetRunState() { c.run = budgetState{} }

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

	run cascadeState
}

// Eval implements Condition: it reports whether the log records an
// upstream hit on the tuple processed immediately before t. Tuple IDs
// grow monotonically within a sub-stream, so scanning the log tail is
// amortised O(1).
func (c *CascadeCondition) Eval(t stream.Tuple, _ time.Time) bool {
	fire := false
	if c.run.HasPrev {
		for i := c.Log.Len() - 1; i >= 0; i-- {
			e := c.Log.At(i)
			if e.TupleID < c.run.PrevID {
				break
			}
			if e.TupleID == c.run.PrevID && e.Polluter == c.Upstream {
				fire = true
				break
			}
		}
	}
	c.run = cascadeState{PrevID: t.ID, HasPrev: true}
	return fire
}

// ResetRunState implements Resettable: the next tuple has no
// predecessor.
func (c *CascadeCondition) ResetRunState() { c.run = cascadeState{} }

// Describe implements Condition.
func (c *CascadeCondition) Describe() string {
	return fmt.Sprintf("previous tuple hit by %q", c.Upstream)
}
