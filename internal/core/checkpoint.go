package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"icewafl/internal/obs"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// This file implements deterministic checkpoint/resume for pollution
// runs. A checkpoint captures everything Algorithm 1 needs to continue a
// run as if it had never stopped:
//
//   - the input position (raw tuples consumed) and the next tuple ID;
//   - the state of every RNG stream in the pipeline;
//   - the state of every stateful polluter, condition and error function
//     (sticky holds, Markov chains, frozen values, running statistics,
//     error budgets, per-key instances);
//   - the pollution-log and output positions, so a harness can truncate
//     its files back to the checkpoint and append seamlessly.
//
// The guarantee: an interrupted run resumed from its last checkpoint
// produces a polluted stream and pollution log byte-identical to an
// uninterrupted run (verified by TestCheckpointResumeDeterminism).

// CheckpointVersion is the on-disk format version.
const CheckpointVersion = 1

// Stateful is implemented by pipeline components carrying per-run
// mutable state that must survive checkpoint/resume. Components not
// implementing Stateful (and not otherwise known to the snapshot walker)
// are assumed stateless.
type Stateful interface {
	// SnapshotState serialises the component's current state.
	SnapshotState() (json.RawMessage, error)
	// RestoreState overwrites the component's state with a snapshot.
	RestoreState(json.RawMessage) error
}

// PipelineState maps stable component paths to serialised state.
type PipelineState map[string]json.RawMessage

// Checkpoint is one consistent snapshot of a streaming pollution run.
type Checkpoint struct {
	Version int `json:"version"`
	// TuplesIn is the number of raw input tuples consumed (including
	// quarantined ones); resume skips exactly this many.
	TuplesIn uint64 `json:"tuples_in"`
	// NextID is the ID the next prepared tuple will receive.
	NextID uint64 `json:"next_id"`
	// TuplesOut is the number of polluted tuples emitted downstream.
	TuplesOut uint64 `json:"tuples_out"`
	// LogLen is the number of pollution-log entries produced so far.
	LogLen int `json:"log_len"`
	// Quarantined is the number of dead-lettered tuples so far.
	Quarantined int `json:"quarantined"`
	// Pipeline is the serialised state of every stateful component.
	Pipeline PipelineState `json:"pipeline"`
	// Offsets carries harness positions (e.g. output-file byte offsets)
	// so a resuming process can truncate partial output past the
	// checkpoint.
	Offsets map[string]int64 `json:"offsets,omitempty"`
}

// WriteCheckpoint atomically persists c at path (write to a temp file in
// the same directory, fsync, rename, fsync the directory), so a crash
// mid-write never corrupts the previous checkpoint, and a checkpoint
// that returned survives a crash.
func WriteCheckpoint(path string, c *Checkpoint) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("core: checkpoint dir sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("core: checkpoint dir sync: %w", err)
	}
	return nil
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("core: parse checkpoint %s: %w", path, err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s has version %d, want %d", path, c.Version, CheckpointVersion)
	}
	return &c, nil
}

// ---------------------------------------------------------------------
// Pipeline snapshot and restore (two visitors over walk.go)
// ---------------------------------------------------------------------

// SnapshotPipeline captures the state of every stateful component of p
// under stable paths. The same configuration always yields the same
// paths, so a snapshot taken by one process restores into a pipeline
// compiled from the same configuration by another.
func SnapshotPipeline(p *Pipeline) (PipelineState, error) {
	out := make(PipelineState)
	put := func(path string, raw []byte, err error) error {
		if err != nil {
			return fmt.Errorf("core: snapshot %s: %w", path, err)
		}
		out[path] = raw
		return nil
	}
	err := walkPipeline(p, visitor{
		rand: func(path string, r *rng.Stream) error {
			raw, err := json.Marshal(r.State())
			return put(path, raw, err)
		},
		state: func(path string, s Stateful, _ Resettable) error {
			if s == nil {
				return nil
			}
			raw, err := s.SnapshotState()
			return put(path, raw, err)
		},
		keyed: func(path string, k *KeyedPolluter) ([]string, error) {
			keys := k.Keys()
			raw, err := json.Marshal(keys)
			return keys, put(path+"/keys", raw, err)
		},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RestorePipeline restores a snapshot captured by SnapshotPipeline into
// p, which must be compiled from the same configuration. Missing state
// for a visited component is an error: silently skipping it would break
// the determinism guarantee.
func RestorePipeline(p *Pipeline, st PipelineState) error {
	// get hands the snapshot entry at path to into; a missing entry is an
	// error.
	get := func(path string, into func(json.RawMessage) error) error {
		raw, ok := st[path]
		if !ok {
			return fmt.Errorf("core: checkpoint misses state for %s", path)
		}
		if err := into(raw); err != nil {
			return fmt.Errorf("core: restore %s: %w", path, err)
		}
		return nil
	}
	return walkPipeline(p, visitor{
		rand: func(path string, r *rng.Stream) error {
			return get(path, func(raw json.RawMessage) error {
				var s rng.State
				if err := json.Unmarshal(raw, &s); err != nil {
					return err
				}
				r.SetState(s)
				return nil
			})
		},
		state: func(path string, s Stateful, _ Resettable) error {
			if s == nil {
				return nil
			}
			return get(path, s.RestoreState)
		},
		keyed: func(path string, k *KeyedPolluter) ([]string, error) {
			var keys []string
			err := get(path+"/keys", func(raw json.RawMessage) error {
				return json.Unmarshal(raw, &keys)
			})
			for _, key := range keys {
				k.EnsureInstance(key)
			}
			return keys, err
		},
	})
}

// ---------------------------------------------------------------------
// Stateful implementations for the built-in components
// ---------------------------------------------------------------------

// The run state of the sticky, Markov, budget and cascade conditions and
// of StreamState is one struct each, stored in the checkpoint as is.

type stickyState struct {
	Active bool      `json:"active"`
	Until  time.Time `json:"until"`
}

// SnapshotState implements Stateful.
func (c *Sticky) SnapshotState() (json.RawMessage, error) { return json.Marshal(c.run) }

// RestoreState implements Stateful.
func (c *Sticky) RestoreState(raw json.RawMessage) error { return json.Unmarshal(raw, &c.run) }

type markovState struct {
	Bad bool `json:"bad"`
}

// SnapshotState implements Stateful.
func (c *MarkovCondition) SnapshotState() (json.RawMessage, error) { return json.Marshal(c.run) }

// RestoreState implements Stateful.
func (c *MarkovCondition) RestoreState(raw json.RawMessage) error { return json.Unmarshal(raw, &c.run) }

type budgetState struct {
	Firings []time.Time `json:"firings"`
}

// SnapshotState implements Stateful.
func (c *BudgetCondition) SnapshotState() (json.RawMessage, error) { return json.Marshal(c.run) }

// RestoreState implements Stateful.
func (c *BudgetCondition) RestoreState(raw json.RawMessage) error { return json.Unmarshal(raw, &c.run) }

type cascadeState struct {
	PrevID  uint64 `json:"prev_id"`
	HasPrev bool   `json:"has_prev"`
}

// SnapshotState implements Stateful.
func (c *CascadeCondition) SnapshotState() (json.RawMessage, error) { return json.Marshal(c.run) }

// RestoreState implements Stateful.
func (c *CascadeCondition) RestoreState(raw json.RawMessage) error {
	return json.Unmarshal(raw, &c.run)
}

// valueState serialises a stream.Value losslessly (RFC3339Nano in UTC
// and the UTC offset in seconds for timestamps, distinguishing NULL from
// the empty string).
type valueState struct {
	Kind   string `json:"kind"`
	Text   string `json:"text,omitempty"`
	Offset int    `json:"offset,omitempty"`
}

func encodeValue(v stream.Value) valueState {
	if v.IsNull() {
		return valueState{Kind: "null"}
	}
	if t, ok := v.AsTime(); ok && v.Kind() == stream.KindTime {
		_, off := t.Zone()
		return valueState{Kind: "time", Text: t.UTC().Format(time.RFC3339Nano), Offset: off}
	}
	return valueState{Kind: v.Kind().String(), Text: v.String()}
}

func decodeValue(s valueState) (stream.Value, error) {
	kind, err := stream.ParseKind(s.Kind)
	if err != nil {
		return stream.Null(), err
	}
	switch kind {
	case stream.KindNull:
		return stream.Null(), nil
	case stream.KindString:
		return stream.Str(s.Text), nil
	case stream.KindTime:
		t, err := time.Parse(time.RFC3339Nano, s.Text)
		if err != nil {
			return stream.Null(), err
		}
		if s.Offset != 0 {
			t = t.In(time.FixedZone("", s.Offset))
		}
		return stream.Time(t), nil
	default:
		return stream.ParseValue(s.Text, kind)
	}
}

type frozenState struct {
	Frozen map[string]valueState `json:"frozen"`
}

// SnapshotState implements Stateful.
func (e *FrozenValue) SnapshotState() (json.RawMessage, error) {
	s := frozenState{Frozen: make(map[string]valueState, len(e.frozen))}
	for k, v := range e.frozen {
		s.Frozen[k] = encodeValue(v)
	}
	return json.Marshal(s)
}

// RestoreState implements Stateful.
func (e *FrozenValue) RestoreState(raw json.RawMessage) error {
	var s frozenState
	if err := json.Unmarshal(raw, &s); err != nil {
		return err
	}
	e.frozen = make(map[string]stream.Value, len(s.Frozen))
	for k, vs := range s.Frozen {
		v, err := decodeValue(vs)
		if err != nil {
			return fmt.Errorf("frozen value %q: %w", k, err)
		}
		e.frozen[k] = v
	}
	return nil
}

// SnapshotState implements Stateful.
func (s *StreamState) SnapshotState() (json.RawMessage, error) { return json.Marshal(s.run) }

// RestoreState implements Stateful.
func (s *StreamState) RestoreState(raw json.RawMessage) error {
	s.run = streamState{}
	return json.Unmarshal(raw, &s.run)
}

// ---------------------------------------------------------------------
// Checkpointed streaming execution
// ---------------------------------------------------------------------

// Checkpointer captures consistent snapshots of a running checkpointed
// stream. It is bound to the single-threaded pull loop of the stream it
// was created with: call Capture only between Next calls on the returned
// source, when no tuple is in flight.
type Checkpointer struct {
	input    *inputCounter
	prepare  *stream.Prepare
	pipeline *Pipeline
	log      *Log
	dlq      *stream.DeadLetterQueue
	out      *streamRunner
	reg      *obs.Registry

	// base is the checkpoint the run resumed from (zero for a fresh run);
	// its counters are the origin of this run's.
	base Checkpoint
}

// DeadLetters returns the run's dead-letter queue (nil when quarantine
// is disabled).
func (c *Checkpointer) DeadLetters() *stream.DeadLetterQueue { return c.dlq }

// Capture snapshots the run. The returned checkpoint's Offsets map is
// empty; harnesses add their own file positions before persisting.
func (c *Checkpointer) Capture() (*Checkpoint, error) {
	var start time.Time
	if c.reg != nil {
		start = time.Now()
	}
	st, err := SnapshotPipeline(c.pipeline)
	if err != nil {
		return nil, err
	}
	if c.reg != nil {
		c.reg.Inc(obs.CCheckpointWrites)
		c.reg.ObserveStage(obs.StageCheckpoint, time.Since(start))
	}
	logLen := c.base.LogLen
	if c.log != nil {
		logLen += c.log.Total()
	}
	return &Checkpoint{
		Version:     CheckpointVersion,
		TuplesIn:    c.base.TuplesIn + c.input.n,
		NextID:      c.prepare.NextID(),
		TuplesOut:   c.base.TuplesOut + c.out.emitted,
		LogLen:      logLen,
		Quarantined: c.base.Quarantined + c.dlq.Len(),
		Pipeline:    st,
		Offsets:     map[string]int64{},
	}, nil
}

// inputCounter counts raw input consumption: every delivered tuple and
// every tuple-level failure advances the position by one. Fatal errors
// and end-of-stream do not.
type inputCounter struct {
	src stream.Source
	n   uint64
}

func (c *inputCounter) Schema() *stream.Schema { return c.src.Schema() }

func (c *inputCounter) Next() (stream.Tuple, error) {
	t, err := c.src.Next()
	if err == nil {
		c.n++
		return t, nil
	}
	if _, ok := stream.AsTupleError(err); ok {
		c.n++
	}
	return t, err
}

// checkpointer starts the bookkeeping that makes the plain runner's run
// capturable (checkpoints require that no tuples are buffered between
// the pipeline and the consumer, so the run has no reorder window). The
// run reads its input through ck.input.
//
// With resume != nil the run continues from the snapshot: the first
// resume.TuplesIn input tuples are skipped here (quarantined rows count),
// tuple numbering continues at resume.NextID, and bind restores every
// stateful component — the concatenation of the interrupted run's output
// (truncated to the checkpoint) and the resumed run's output is
// byte-identical to an uninterrupted run.
func (pr *Process) checkpointer(src stream.Source, resume *Checkpoint) (*Checkpointer, error) {
	ck := &Checkpointer{pipeline: pr.Pipelines[0], reg: pr.Obs}
	if resume != nil {
		if resume.Version != CheckpointVersion {
			return nil, fmt.Errorf("core: checkpoint version %d, want %d", resume.Version, CheckpointVersion)
		}
		if err := skipInput(src, resume.TuplesIn); err != nil {
			return nil, err
		}
		ck.base = *resume
	}
	ck.input = &inputCounter{src: src}
	return ck, nil
}

// bind attaches ck to the started run and, on resume, restores the
// pipeline — after the preamble's per-run reset, so the restore
// overwrites pristine state with the checkpointed one.
func (ck *Checkpointer) bind(in streamInput, out *streamRunner, resume *Checkpoint) error {
	ck.prepare, ck.log, ck.dlq, ck.out = in.prep, in.log, in.dlq, out
	if resume == nil {
		return nil
	}
	return RestorePipeline(ck.pipeline, resume.Pipeline)
}

// skipInput advances src past n raw tuples; tuple-level failures count
// as consumed (matching inputCounter), other errors abort.
func skipInput(src stream.Source, n uint64) error {
	for i := uint64(0); i < n; i++ {
		_, err := src.Next()
		if err == nil {
			continue
		}
		if _, ok := stream.AsTupleError(err); ok {
			continue
		}
		return fmt.Errorf("core: resume: input ended after %d of %d checkpointed tuples: %w", i, n, err)
	}
	return nil
}
