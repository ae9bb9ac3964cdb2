package core

import (
	"fmt"

	"icewafl/internal/rng"
)

// This file is the one description of the pollution-component tree:
// which polluter, condition and error function owns an RNG stream, which
// carries per-run state, which has children, and under which path each
// lives. SnapshotPipeline, RestorePipeline and ResetPipeline are three
// visitors over it, so a component the walk knows is snapshotted,
// restored and reset, and one it does not know is none of the three. The
// columnar planner is a fourth: it reads RNG ownership from the walk.
//
// The paths are a persisted format (checkpoint files, -state-dir): a
// snapshot written by one build restores into the pipeline another build
// compiles from the same configuration. TestSnapshotPathsStable pins them.
//
// Adding a component takes three places: its case in internal/config,
// its case here (or Stateful and Resettable on it — the default cases
// below pick it up under its parent's path — when it owns no RNG stream
// and no children), and its kernel or shim case in kernel.go (without
// one, a pipeline containing it runs row-wise).

// visitor is what one pass does at each thing a component can own.
type visitor struct {
	// rand receives every RNG stream a component draws from.
	rand func(path string, r *rng.Stream) error
	// state receives every component with per-run state. Built-ins are
	// both; a custom component may be only one, and the other is nil.
	state func(path string, s Stateful, r Resettable) error
	// keyed receives a KeyedPolluter before its instances and returns the
	// keys whose instances the walk descends into: per-key instances are
	// created on demand, so which exist is the pass's decision (snapshot
	// lists them, restore materialises them, reset drops them).
	keyed func(path string, k *KeyedPolluter) ([]string, error)
}

// runState is a built-in component with per-run state. Visiting built-ins
// through it makes one that can be snapshotted but not reset a compile
// error.
type runState interface {
	Stateful
	Resettable
}

// walker carries a visitor over one pipeline; the first error a callback
// returns stops every later callback.
type walker struct {
	visitor
	err error
}

func walkPipeline(p *Pipeline, v visitor) error {
	w := walker{visitor: v}
	for i, pol := range p.Polluters {
		w.polluter(pol, polPath("", i, pol))
	}
	return w.err
}

func polPath(base string, i int, p Polluter) string {
	return fmt.Sprintf("%s/%d:%s", base, i, p.Name())
}

func (w *walker) stream(path string, r *rng.Stream) {
	if r != nil && w.err == nil {
		w.err = w.rand(path, r)
	}
}

func (w *walker) builtin(path string, c runState) {
	if w.err == nil {
		w.err = w.state(path, c, c)
	}
}

// custom visits a component the walk has no case for: it takes part
// through whichever of Stateful and Resettable it implements, and is
// stateless if neither (or nil).
func (w *walker) custom(path string, c any) {
	s, _ := c.(Stateful)
	r, _ := c.(Resettable)
	if (s != nil || r != nil) && w.err == nil {
		w.err = w.state(path, s, r)
	}
}

func (w *walker) polluter(p Polluter, path string) {
	switch p := p.(type) {
	case *Standard:
		w.condition(p.Cond, path+"/cond")
		w.errorFunc(p.Err, path+"/err")
	case *Composite:
		w.condition(p.Cond, path+"/cond")
		w.stream(path+"/rand", p.Rand)
		for i, c := range p.Children {
			w.polluter(c, polPath(path, i, c))
		}
	case *KeyedPolluter:
		if w.err != nil {
			return
		}
		var keys []string
		keys, w.err = w.keyed(path, p)
		for _, k := range keys {
			w.polluter(p.instances[k], path+"/key="+k)
		}
	case *Observer:
		w.builtin(path+"/state", p.State)
	default:
		w.custom(path, p)
	}
}

func (w *walker) condition(c Condition, path string) {
	switch c := c.(type) {
	case *Random:
		w.stream(path+"/rand", c.Rand)
	case And:
		w.conditions(c, path)
	case Or:
		w.conditions(c, path)
	case Not:
		w.condition(c.Inner, path+"/not")
	case *Sticky:
		w.builtin(path, c)
		w.condition(c.Trigger, path+"/trigger")
	case *MarkovCondition:
		w.builtin(path, c)
		w.stream(path+"/rand", c.Rand)
	case *BudgetCondition:
		w.builtin(path, c)
		w.condition(c.Inner, path+"/inner")
	case *CascadeCondition:
		w.builtin(path, c)
	case DeviationCondition:
		w.builtin(path+"/state", c.State)
	default:
		w.custom(path, c)
	}
}

func (w *walker) conditions(cs []Condition, path string) {
	for i, c := range cs {
		w.condition(c, fmt.Sprintf("%s/%d", path, i))
	}
}

func (w *walker) errorFunc(e ErrorFunc, path string) {
	switch e := e.(type) {
	case *GaussianNoise:
		w.stream(path+"/rand", e.Rand)
	case *UniformMultNoise:
		w.stream(path+"/rand", e.Rand)
	case *IncorrectCategory:
		w.stream(path+"/rand", e.Rand)
	case *Outlier:
		w.stream(path+"/rand", e.Rand)
	case *StringTypo:
		w.stream(path+"/rand", e.Rand)
	case *FrozenValue:
		w.builtin(path, e)
	case Chain:
		for i, sub := range e {
			w.errorFunc(sub, fmt.Sprintf("%s/%d", path, i))
		}
	default:
		w.custom(path, e)
	}
}
