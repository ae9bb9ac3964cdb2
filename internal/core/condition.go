package core

import (
	"fmt"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// Condition decides whether a polluter fires for a tuple (paper Eq. 2).
// Following Schelter et al., errors may be injected (i) completely at
// random, (ii) depending on the values to be polluted, or (iii) depending
// on other values of the tuple; Icewafl adds (iv) temporal conditions on
// the event time τ and (v) composites of all of the above.
type Condition interface {
	// Eval reports whether the condition holds for tuple t at event
	// time tau.
	Eval(t stream.Tuple, tau time.Time) bool
	// Describe returns a short human-readable form for pollution logs.
	Describe() string
}

// Always fires for every tuple.
type Always struct{}

// Eval implements Condition.
func (Always) Eval(stream.Tuple, time.Time) bool { return true }

// Describe implements Condition.
func (Always) Describe() string { return "always" }

// Never fires for no tuple; useful to disable a polluter in a config.
type Never struct{}

// Eval implements Condition.
func (Never) Eval(stream.Tuple, time.Time) bool { return false }

// Describe implements Condition.
func (Never) Describe() string { return "never" }

// Random fires completely at random with a (possibly time-dependent)
// probability — MCAR when P is constant, a temporal error pattern when P
// varies with τ (e.g. the sinusoidal pattern of §3.1.1 or the linearly
// increasing activation of Eq. 4).
type Random struct {
	P    Param
	Rand *rng.Stream
	desc string
}

// NewRandom returns a Bernoulli condition with probability p drawing from
// r.
func NewRandom(p Param, r *rng.Stream) *Random {
	return &Random{P: p, Rand: r, desc: "random"}
}

// NewRandomConst returns a Bernoulli condition with fixed probability p.
func NewRandomConst(p float64, r *rng.Stream) *Random {
	return &Random{P: Const(p), Rand: r, desc: fmt.Sprintf("random(p=%g)", p)}
}

// Eval implements Condition.
func (c *Random) Eval(_ stream.Tuple, tau time.Time) bool {
	return c.Rand.Bernoulli(c.P(tau))
}

// Describe implements Condition.
func (c *Random) Describe() string { return c.desc }

// ValueOp is a comparison operator for attribute conditions.
type ValueOp string

// Comparison operators supported by Compare conditions.
const (
	OpEq ValueOp = "=="
	OpNe ValueOp = "!="
	OpLt ValueOp = "<"
	OpLe ValueOp = "<="
	OpGt ValueOp = ">"
	OpGe ValueOp = ">="
)

// Compare fires when the named attribute compares against a constant —
// the value-dependent condition classes (ii) and (iii): whether it is
// class (ii) or (iii) depends on whether Attr is among the polluter's
// target attributes A_p.
type Compare struct {
	Attr  string
	Op    ValueOp
	Value stream.Value
}

// Eval implements Condition.
func (c Compare) Eval(t stream.Tuple, _ time.Time) bool {
	v, ok := t.Get(c.Attr)
	if !ok {
		return false
	}
	if c.Op == OpEq && c.Value.IsNull() {
		return v.IsNull()
	}
	if c.Op == OpNe && c.Value.IsNull() {
		return !v.IsNull()
	}
	cmp, comparable := v.Compare(c.Value)
	if !comparable {
		return false
	}
	switch c.Op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// Describe implements Condition.
func (c Compare) Describe() string {
	return fmt.Sprintf("%s %s %s", c.Attr, c.Op, c.Value.String())
}

// AttrPredicate fires when fn holds on the named attribute; the fully
// general value-dependent condition.
type AttrPredicate struct {
	Attr string
	Fn   func(stream.Value) bool
	Desc string
}

// Eval implements Condition.
func (c AttrPredicate) Eval(t stream.Tuple, _ time.Time) bool {
	v, ok := t.Get(c.Attr)
	if !ok {
		return false
	}
	return c.Fn(v)
}

// Describe implements Condition.
func (c AttrPredicate) Describe() string {
	if c.Desc != "" {
		return c.Desc
	}
	return fmt.Sprintf("pred(%s)", c.Attr)
}

// TimeInterval fires while τ lies in [From, To) — the temporal condition
// used by the bad-network scenario (§3.1.3) and the software-update
// scenario's "Time ≥ 2016-02-27" gate (with an open end).
type TimeInterval struct {
	From, To time.Time // zero values mean unbounded
}

// Eval implements Condition.
func (c TimeInterval) Eval(_ stream.Tuple, tau time.Time) bool {
	if !c.From.IsZero() && tau.Before(c.From) {
		return false
	}
	if !c.To.IsZero() && !tau.Before(c.To) {
		return false
	}
	return true
}

// Describe implements Condition.
func (c TimeInterval) Describe() string {
	return fmt.Sprintf("τ in [%s, %s)", fmtTime(c.From), fmtTime(c.To))
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return "…"
	}
	return t.UTC().Format("2006-01-02T15:04:05")
}

// TimeOfDay fires while the hour of τ lies in [FromHour, ToHour); the
// interval may wrap around midnight (e.g. From 22, To 3).
type TimeOfDay struct {
	FromHour, ToHour int
}

// Eval implements Condition.
func (c TimeOfDay) Eval(_ stream.Tuple, tau time.Time) bool {
	h := tau.Hour()
	if c.FromHour <= c.ToHour {
		return h >= c.FromHour && h < c.ToHour
	}
	return h >= c.FromHour || h < c.ToHour
}

// Describe implements Condition.
func (c TimeOfDay) Describe() string {
	return fmt.Sprintf("hour in [%d, %d)", c.FromHour, c.ToHour)
}

// And fires when all children fire; evaluation short-circuits in order, so
// cheap or rarely true children should come first. Nesting a Random
// inside a TimeInterval reproduces the paper's "20%% probability within
// 01:00 pm – 02:59 pm" configuration.
type And []Condition

// Eval implements Condition.
func (c And) Eval(t stream.Tuple, tau time.Time) bool {
	for _, child := range c {
		if !child.Eval(t, tau) {
			return false
		}
	}
	return true
}

// Describe implements Condition.
func (c And) Describe() string { return joinDesc(c, " AND ") }

// Or fires when any child fires.
type Or []Condition

// Eval implements Condition.
func (c Or) Eval(t stream.Tuple, tau time.Time) bool {
	for _, child := range c {
		if child.Eval(t, tau) {
			return true
		}
	}
	return false
}

// Describe implements Condition.
func (c Or) Describe() string { return joinDesc(c, " OR ") }

// Not negates a condition.
type Not struct {
	Inner Condition
}

// Eval implements Condition.
func (c Not) Eval(t stream.Tuple, tau time.Time) bool {
	return !c.Inner.Eval(t, tau)
}

// Describe implements Condition.
func (c Not) Describe() string { return "NOT " + c.Inner.Describe() }

func joinDesc(cs []Condition, sep string) string {
	out := ""
	for i, c := range cs {
		if i > 0 {
			out += sep
		}
		out += "(" + c.Describe() + ")"
	}
	return out
}
