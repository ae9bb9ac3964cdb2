package stream

import (
	"fmt"
	"time"
)

// ColumnBatch holds a run of tuples column by column — one cell slice
// per attribute plus the per-row metadata — the input of the colbatch
// wire encoder (netstream.EncodeColumnBatch).
//
// Deprecated: no runner reads or writes batches; the type stays only
// because bench/ compiles against it, and ROADMAP.md item 1(a) deletes
// it.
type ColumnBatch struct {
	schema     *Schema
	cols       [][]Value
	ids        []uint64
	subStreams []int32
	eventTimes []time.Time
	arrivals   []time.Time
}

// NewColumnBatch returns an empty batch over schema with room for
// capacity rows.
//
// Deprecated: see ColumnBatch.
func NewColumnBatch(schema *Schema, capacity int) *ColumnBatch {
	capacity = max(capacity, 0)
	b := &ColumnBatch{
		schema:     schema,
		cols:       make([][]Value, schema.Len()),
		ids:        make([]uint64, 0, capacity),
		subStreams: make([]int32, 0, capacity),
		eventTimes: make([]time.Time, 0, capacity),
		arrivals:   make([]time.Time, 0, capacity),
	}
	for i := range b.cols {
		b.cols[i] = make([]Value, 0, capacity)
	}
	return b
}

// Schema returns the batch schema.
func (b *ColumnBatch) Schema() *Schema { return b.schema }

// Len returns the number of rows.
func (b *ColumnBatch) Len() int { return len(b.ids) }

// Reset empties the batch, keeping its arrays for the next run of rows.
func (b *ColumnBatch) Reset() {
	for i := range b.cols {
		clear(b.cols[i]) // so a reused batch does not pin string cells
		b.cols[i] = b.cols[i][:0]
	}
	b.ids, b.subStreams = b.ids[:0], b.subStreams[:0]
	b.eventTimes, b.arrivals = b.eventTimes[:0], b.arrivals[:0]
}

// AppendTuple appends one row copied from t, whose width must be the
// batch schema's.
func (b *ColumnBatch) AppendTuple(t Tuple) error {
	if t.Len() != len(b.cols) {
		return fmt.Errorf("stream: column batch of width %d cannot hold tuple of width %d", len(b.cols), t.Len())
	}
	for i := range b.cols {
		b.cols[i] = append(b.cols[i], t.At(i))
	}
	b.ids = append(b.ids, t.ID)
	b.subStreams = append(b.subStreams, int32(t.SubStream))
	b.eventTimes = append(b.eventTimes, t.EventTime)
	b.arrivals = append(b.arrivals, t.Arrival)
	return nil
}

// Value returns the cell at (row, col).
func (b *ColumnBatch) Value(row, col int) Value { return b.cols[col][row] }

// IDs returns the per-row tuple IDs. The slice aliases the batch.
func (b *ColumnBatch) IDs() []uint64 { return b.ids }

// SubStreams returns the per-row sub-stream indices.
func (b *ColumnBatch) SubStreams() []int32 { return b.subStreams }

// EventTimes returns the per-row event times τ.
func (b *ColumnBatch) EventTimes() []time.Time { return b.eventTimes }

// Arrivals returns the per-row delivery times.
func (b *ColumnBatch) Arrivals() []time.Time { return b.arrivals }

// ColumnBatchReader is a source that appends up to max rows per call to
// a caller's batch.
//
// Deprecated: nothing implements it any more; it stays only because
// bench/ compiles against it, and ROADMAP.md item 1(a) deletes it.
type ColumnBatchReader interface {
	Schema() *Schema
	ReadBatch(dst *ColumnBatch, max int) (int, error)
}
