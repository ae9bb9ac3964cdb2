package core

import (
	"fmt"
	"reflect"

	"icewafl/internal/rng"
)

// This file walks the pollution-component tree. The walk knows no
// component by name: at each one it looks up the component's entry in
// the table (component.go) by dynamic type, and the entry's walk says
// which RNG stream, run state and children it owns and under which path
// each lives. SnapshotPipeline, RestorePipeline and ResetPipeline are
// three visitors over it, so a component the table knows is
// snapshotted, restored and reset, and one it does not know takes part
// through whichever of Stateful and Resettable it implements, under its
// parent's path. ValidateAttrs is a fourth: it reads every component's
// entry.
//
// The paths are a persisted format (checkpoint files, -state-dir): a
// snapshot written by one build restores into the pipeline another build
// compiles from the same configuration. TestSnapshotPathsStable pins them.

// visitor is what one pass does at each thing a component can own. A nil
// callback skips that thing.
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
	// node receives every component before what it owns, with its table
	// entry (nil for a component the table does not know).
	node func(path string, c any, e *Component) error
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
		w.visit(pol, polPath("", i, pol))
	}
	return w.err
}

func polPath(base string, i int, p Polluter) string {
	return fmt.Sprintf("%s/%d:%s", base, i, p.Name())
}

// visit hands c to the node callback, then descends through its entry.
func (w *walker) visit(c any, path string) {
	if w.err != nil {
		return
	}
	e := byType[reflect.TypeOf(c)]
	if w.node != nil {
		if w.err = w.node(path, c, e); w.err != nil {
			return
		}
	}
	switch {
	case e == nil:
		w.runState(path, c)
	case e.walk != nil:
		e.walk(w, c, path)
	}
}

func visitEach[T any](w *walker, cs []T, path string) {
	for i, c := range cs {
		w.visit(c, fmt.Sprintf("%s/%d", path, i))
	}
}

func (w *walker) stream(path string, r *rng.Stream) {
	if r != nil && w.rand != nil && w.err == nil {
		w.err = w.rand(path, r)
	}
}

// runState visits a component's run state through whichever of Stateful
// and Resettable it implements: the built-ins the table names implement
// both, a component the table does not know may implement one, and
// neither (or nil) is stateless.
func (w *walker) runState(path string, c any) {
	s, _ := c.(Stateful)
	r, _ := c.(Resettable)
	if (s != nil || r != nil) && w.state != nil && w.err == nil {
		w.err = w.state(path, s, r)
	}
}

func (w *walker) instances(k *KeyedPolluter, path string) {
	if w.keyed == nil || w.err != nil {
		return
	}
	var keys []string
	keys, w.err = w.keyed(path, k)
	for _, key := range keys {
		w.visit(k.instances[key], path+"/key="+key)
	}
}
