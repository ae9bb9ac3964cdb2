package core

import (
	"time"

	"icewafl/internal/stream"
)

// This file implements the *native* temporal error types of Figure 3 —
// errors that are temporal by definition rather than derived from a static
// error and a change pattern.

// DelayTuple postpones the delivery of a tuple by a fixed duration. The
// timestamp attribute keeps its original value, so the delayed tuple
// breaks the increasing timestamp order of the merged stream, which is
// exactly how the bad-network scenario (§3.1.3) detects it with the
// values_to_be_increasing expectation.
type DelayTuple struct {
	Delay time.Duration
}

// Apply implements ErrorFunc.
func (e DelayTuple) Apply(t *stream.Tuple, _ []string, _ time.Time) {
	t.Arrival = t.Arrival.Add(e.Delay)
}

// Kind implements ErrorFunc.
func (DelayTuple) Kind() string { return "delayed_tuple" }

// FrozenValue simulates a stuck sensor: once triggered, the targeted
// attributes repeat the value last seen before the freeze. The polluter
// keeps per-attribute state across tuples of its sub-stream, which is why
// pipelines are instantiated fresh per run.
type FrozenValue struct {
	frozen map[string]stream.Value
}

// NewFrozenValue returns a freeze error with empty state.
func NewFrozenValue() *FrozenValue {
	return &FrozenValue{frozen: make(map[string]stream.Value)}
}

// Apply implements ErrorFunc. The first triggered tuple's own value
// becomes the frozen value; subsequent triggers replay it.
func (e *FrozenValue) Apply(t *stream.Tuple, attrs []string, _ time.Time) {
	for _, a := range attrs {
		v, ok := t.Get(a)
		if !ok {
			continue
		}
		if f, held := e.frozen[a]; held {
			t.Set(a, f)
			continue
		}
		e.frozen[a] = v
	}
}

// Thaw clears the frozen state, e.g. when combined with an intermediate
// change pattern via a condition that stops firing.
func (e *FrozenValue) Thaw() { e.frozen = make(map[string]stream.Value) }

// ResetRunState implements Resettable.
func (e *FrozenValue) ResetRunState() { e.Thaw() }

// Kind implements ErrorFunc.
func (*FrozenValue) Kind() string { return "frozen_value" }

// TimestampShift pollutes the timestamp *attribute* itself by a constant
// offset while delivery order stays intact — a mis-set device clock. This
// is the "Timestamp Error" of Figure 3.
type TimestampShift struct {
	Offset time.Duration
}

// Apply implements ErrorFunc.
func (e TimestampShift) Apply(t *stream.Tuple, _ []string, _ time.Time) {
	if ts, ok := t.Timestamp(); ok {
		t.SetTimestamp(ts.Add(e.Offset))
	}
}

// Kind implements ErrorFunc.
func (TimestampShift) Kind() string { return "timestamp_shift" }

// DropTuple removes the tuple from the polluted stream (message loss).
// Dropped tuples remain in the pollution log, preserving ground truth.
type DropTuple struct{}

// Apply implements ErrorFunc.
func (DropTuple) Apply(t *stream.Tuple, _ []string, _ time.Time) {
	t.Dropped = true
}

// Kind implements ErrorFunc.
func (DropTuple) Kind() string { return "dropped_tuple" }

// HoldAndRelease simulates a buffering network element: triggered tuples
// are delayed so that they are all delivered at the end of the outage
// window — arrival is pushed to ReleaseAt if it would fall earlier.
type HoldAndRelease struct {
	ReleaseAt time.Time
}

// Apply implements ErrorFunc.
func (e HoldAndRelease) Apply(t *stream.Tuple, _ []string, _ time.Time) {
	if t.Arrival.Before(e.ReleaseAt) {
		t.Arrival = e.ReleaseAt
	}
}

// Kind implements ErrorFunc.
func (HoldAndRelease) Kind() string { return "hold_and_release" }
