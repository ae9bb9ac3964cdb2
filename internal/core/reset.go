package core

import "icewafl/internal/rng"

// This file implements per-run pipeline resets. Stateful components —
// frozen values, sticky holds, Markov chains, error budgets, cascade
// trackers, running statistics, per-key instances, and every RNG stream
// — accumulate state while a pipeline runs. ResetPipeline, the third
// visitor over the component walk of walk.go beside checkpoint snapshot
// and restore, returns each to its just-constructed state. The Process
// runners invoke it at the start of every run, so a compiled
// configuration is a pure function of its input: two consecutive runs of
// the same pipeline over the same input are byte-identical
// (TestRunTwiceByteIdentical).

// Resettable is implemented by components carrying per-run mutable state
// that must be cleared between runs: the built-in stateful components,
// and custom polluters, conditions and error functions that want to
// participate.
type Resettable interface {
	// ResetRunState returns the component to its just-constructed state.
	ResetRunState()
}

// ResetPipeline returns every stateful component of p — including RNG
// streams — to its just-constructed state, as if the pipeline had been
// freshly compiled. It is idempotent.
func ResetPipeline(p *Pipeline) {
	if p == nil {
		return
	}
	// No callback fails, so neither does the walk.
	_ = walkPipeline(p, visitor{
		rand: func(_ string, r *rng.Stream) error {
			r.Reset()
			return nil
		},
		state: func(_ string, _ Stateful, r Resettable) error {
			if r != nil {
				r.ResetRunState()
			}
			return nil
		},
		// Per-key instances are created deterministically from (seed,
		// path, key), so discarding them and letting the factory rebuild
		// on first sight is equivalent to resetting each one — and also
		// frees per-key state of keys the next run may never see.
		keyed: func(_ string, k *KeyedPolluter) ([]string, error) {
			k.instances = make(map[string]Polluter)
			return nil, nil
		},
	})
}

// resetPipelines resets every pipeline of the process; all runners call
// it before consuming input, so a Process can be run repeatedly with
// deterministic results.
func (pr *Process) resetPipelines() {
	for _, p := range pr.Pipelines {
		ResetPipeline(p)
	}
}

// ResetRunState implements Resettable: it clears the running statistics,
// returning the tracker to its just-constructed state (the recent-value
// window capacity is preserved).
func (s *StreamState) ResetRunState() {
	if s == nil {
		return
	}
	s.run = streamState{Window: s.run.Window, Attrs: make(map[string]*attrState)}
}
