package core

import (
	"errors"
	"fmt"

	"icewafl/internal/stream"
)

// This file is the execution-shape rulebook: StreamSpec describes HOW a
// streaming run executes (never WHAT it computes — every valid shape
// yields the same bytes for the same input, config and seed),
// Validate is the only statement of which shapes exist, and
// Process.Stream is the only place a shape is mapped to a runner. Front
// ends (CLIs, the serve block, the network server) build a spec and ask
// here; none of them restates a rule or picks a runner.

// StreamSpec is the execution shape of one streaming run. The zero
// value is the sequential tuple-wise engine with no reordering.
type StreamSpec struct {
	// Reorder is the bounded reordering window in tuples (<= 1 = none).
	Reorder int
	// Shards partitions the keyed hot path across this many parallel
	// workers (<= 1 = sequential).
	Shards int
	// ShardKey names the attribute whose value routes tuples to shards.
	ShardKey string
	// Checkpoint makes the run capturable: StreamRun.Checkpointer is set.
	Checkpoint bool
	// Resume continues a checkpointed run from a snapshot (implies
	// Checkpoint).
	Resume *Checkpoint
}

// checkpointed reports whether the run is capturable.
func (s StreamSpec) checkpointed() bool { return s.Checkpoint || s.Resume != nil }

// checkpointBlocker names the property of the shape that rules out
// checkpointing ("" when nothing does).
func (s StreamSpec) checkpointBlocker() string {
	switch {
	case s.Shards > 1:
		return "shards > 1: checkpoints cover the sequential path only"
	case s.Reorder > 1:
		return fmt.Sprintf("a reorder window of %d: a checkpoint cannot cover tuples buffered in the window, so it needs a window of 1", s.Reorder)
	}
	return ""
}

// Checkpointable reports whether the shape may set Checkpoint.
func (s StreamSpec) Checkpointable() bool { return s.checkpointBlocker() == "" }

// Validate reports the first rule the shape breaks. A nil schema skips
// the one check that needs it (the shard key must be an attribute), for
// callers that validate before the schema is loaded; Stream re-validates
// against the source's schema.
func (s StreamSpec) Validate(schema *stream.Schema) error {
	if s.Shards > 1 {
		if s.ShardKey == "" {
			return errors.New("core: shards > 1 requires a shard key attribute")
		}
		if schema != nil && schema.Index(s.ShardKey) < 0 {
			return fmt.Errorf("core: shard key attribute %q not in schema", s.ShardKey)
		}
	}
	if s.checkpointed() {
		if why := s.checkpointBlocker(); why != "" {
			return fmt.Errorf("core: checkpointing is incompatible with %s", why)
		}
	}
	return nil
}

// StreamRun is a started streaming run.
type StreamRun struct {
	// Source emits the polluted stream D^p.
	Source stream.Source
	// Log is the pollution log (nil when DisableLog is set); it is only
	// complete once Source is exhausted.
	Log *Log
	// Checkpointer captures snapshots between Next calls on Source; nil
	// unless the spec asked for a checkpointed run.
	Checkpointer *Checkpointer
}

// Stream starts the streaming workflow in the given execution shape, on
// one of two runners: tuple-wise (RunStream, capturable when the spec
// asks for a checkpoint) or sharded. Every shape emits the stream, log
// and dead letters RunStream emits, and fails the same way:
// without quarantine, a pipeline panic on tuple N ends the stream with
// the sticky error "core: pollute tuple N: panic: …", after exactly the
// tuples before N have been polluted and logged.
//
// In every shape an emitted tuple is a loan until the consumer's next
// Next call: a consumer that keeps a tuple longer must Clone it
// (stream.Copy and the CLI and server sinks keep none). Sharded runs
// reuse per-shard value arenas, and a one-pipeline tuple-wise run over a
// stream.Recycler hands each tuple's values back to its source.
func (pr *Process) Stream(src stream.Source, spec StreamSpec) (*StreamRun, error) {
	return pr.start(src, spec, nil)
}

// start is Stream with an optional count of the tuples drop errors
// removed, which the plain shape keeps for Run's Result.DroppedTuples.
func (pr *Process) start(src stream.Source, spec StreamSpec, dropped *int) (*StreamRun, error) {
	if err := spec.Validate(src.Schema()); err != nil {
		return nil, err
	}
	if err := spec.checkPipelines(pr.Pipelines); err != nil {
		return nil, err
	}
	run := &StreamRun{}
	var err error
	if spec.Shards > 1 {
		run.Source, run.Log, err = pr.runStreamSharded(src, spec.Reorder, shardConfig{KeyAttr: spec.ShardKey, Shards: spec.Shards})
	} else {
		run.Source, run.Log, run.Checkpointer, err = pr.runStream(src, spec, dropped)
	}
	if err != nil {
		return nil, err
	}
	return run, nil
}

// checkPipelines reports the first pipeline-count rule the shape breaks:
// every run needs at least one pipeline and no nil one, and only the
// plain tuple-wise shape splits the stream into m > 1 sub-streams.
func (s StreamSpec) checkPipelines(pipes []*Pipeline) error {
	if len(pipes) == 0 {
		return errors.New("core: process needs at least one pipeline")
	}
	for i, p := range pipes {
		if p == nil {
			return fmt.Errorf("core: pipeline %d is nil", i)
		}
	}
	if len(pipes) > 1 && (s.checkpointed() || s.Shards > 1) {
		return fmt.Errorf("core: checkpointed and sharded streaming support exactly one pipeline, got %d", len(pipes))
	}
	return nil
}

// streamInput is what the shared preamble hands a runner.
type streamInput struct {
	// prep is the wrapper chain source observation → optional quarantine
	// → preparation.
	prep *stream.Prepare
	log  *Log
	dlq  *stream.DeadLetterQueue
}

// openStream is the preamble of every streaming runner: per-run reset
// (so a previous run's frozen values, sticky holds and advanced RNG
// streams never leak into this one), the ID base (firstID, else
// pr.FirstID, else 1), the pollution log, the dead-letter queue, and
// the input wrapper chain. Source observation sits between the raw
// source and the quarantine wrapper so tuple-level failures are counted
// as source errors before they become dead letters.
func (pr *Process) openStream(src stream.Source, firstID uint64) streamInput {
	pr.resetPipelines()
	if firstID == 0 {
		firstID = pr.FirstID
	}
	if firstID == 0 {
		firstID = 1
	}
	var log *Log
	if !pr.DisableLog {
		log = &Log{Obs: pr.Obs}
	}
	dlq := pr.Fault.queue()
	dlq.Instrument(pr.Obs)
	var in stream.Source = stream.ObserveSource(src, pr.Obs)
	if pr.Fault.Quarantine {
		in = stream.Quarantine(in, dlq, pr.Fault.MaxQuarantined)
	}
	return streamInput{prep: stream.NewPrepare(in, firstID), log: log, dlq: dlq}
}
