package stream

import (
	"fmt"
	"io"
	"time"
)

// This file implements the columnar micro-batch representation of the
// hot-path engine. A ColumnBatch stores a micro-batch of tuples
// column-wise — one dense payload array per attribute and kind — instead
// of row-wise []Value slices. The layout has two purposes:
//
//   - Micro-batch pipelines stop allocating per tuple: a batch is a
//     handful of flat arrays that are reused (Reset) across batches, and
//     row views materialise into caller-provided or pooled buffers.
//   - Columnar kernels (validation, statistics, vectorised pollution)
//     can scan a float column as a plain []float64 without unboxing one
//     dynamically typed Value per cell.
//
// Mixed-kind columns are supported — pollution routinely turns a float
// cell into NULL or an outlier of another kind — by keeping a per-cell
// kind tag next to the per-kind payload arrays. Payload arrays are
// allocated lazily per kind, so a clean float column costs exactly one
// []float64 and one []Kind.

// ColumnBatch is a columnar micro-batch over one schema. The zero value
// is not usable; construct with NewColumnBatch.
type ColumnBatch struct {
	schema *Schema
	n      int
	cols   []batchColumn

	// Row metadata, parallel to the rows.
	ids         []uint64
	subStreams  []int32
	eventTimes  []time.Time
	arrivals    []time.Time
	dropped     []bool
	quarantined []bool
}

// batchColumn holds one attribute column: a per-cell kind tag plus
// lazily allocated per-kind payload arrays indexed by row.
type batchColumn struct {
	kinds  []Kind
	floats []float64
	ints   []int64
	strs   []string
	bools  []bool
	times  []time.Time
}

// NewColumnBatch returns an empty batch over schema with capacity for
// the given number of rows (grown automatically beyond it).
func NewColumnBatch(schema *Schema, capacity int) *ColumnBatch {
	if capacity < 0 {
		capacity = 0
	}
	b := &ColumnBatch{schema: schema, cols: make([]batchColumn, schema.Len())}
	b.ids = make([]uint64, 0, capacity)
	b.subStreams = make([]int32, 0, capacity)
	b.eventTimes = make([]time.Time, 0, capacity)
	b.arrivals = make([]time.Time, 0, capacity)
	b.dropped = make([]bool, 0, capacity)
	b.quarantined = make([]bool, 0, capacity)
	for i := range b.cols {
		b.cols[i].kinds = make([]Kind, 0, capacity)
	}
	return b
}

// Schema returns the batch schema.
func (b *ColumnBatch) Schema() *Schema { return b.schema }

// Len returns the number of rows.
func (b *ColumnBatch) Len() int { return b.n }

// Reset empties the batch while keeping every backing array, so the same
// ColumnBatch is reused batch after batch with zero steady-state
// allocation.
func (b *ColumnBatch) Reset() {
	b.n = 0
	b.ids = b.ids[:0]
	b.subStreams = b.subStreams[:0]
	b.eventTimes = b.eventTimes[:0]
	b.arrivals = b.arrivals[:0]
	b.dropped = b.dropped[:0]
	b.quarantined = b.quarantined[:0]
	for i := range b.cols {
		c := &b.cols[i]
		c.kinds = c.kinds[:0]
		c.floats = c.floats[:0]
		c.ints = c.ints[:0]
		// Clear string/time payloads so pooled batches don't pin memory.
		for j := range c.strs {
			c.strs[j] = ""
		}
		c.strs = c.strs[:0]
		c.bools = c.bools[:0]
		c.times = c.times[:0]
	}
}

// TruncateRows discards every row from index n on, keeping backing
// arrays. Batch-native decoders use it to roll back a partially decoded
// row before reporting a *TupleError, so failed rows never surface.
func (b *ColumnBatch) TruncateRows(n int) {
	if n < 0 || n >= b.n {
		return
	}
	b.ids = b.ids[:n]
	b.subStreams = b.subStreams[:n]
	b.eventTimes = b.eventTimes[:n]
	b.arrivals = b.arrivals[:n]
	b.dropped = b.dropped[:n]
	b.quarantined = b.quarantined[:n]
	for i := range b.cols {
		c := &b.cols[i]
		c.kinds = c.kinds[:n]
		if len(c.floats) > n {
			c.floats = c.floats[:n]
		}
		if len(c.ints) > n {
			c.ints = c.ints[:n]
		}
		if len(c.strs) > n {
			for j := n; j < len(c.strs); j++ {
				c.strs[j] = ""
			}
			c.strs = c.strs[:n]
		}
		if len(c.bools) > n {
			c.bools = c.bools[:n]
		}
		if len(c.times) > n {
			c.times = c.times[:n]
		}
	}
	b.n = n
}

// grow appends one zero row to every payload array a column already
// carries, keeping the arrays row-aligned.
func (c *batchColumn) grow(row int) {
	c.kinds = append(c.kinds, KindNull)
	if c.floats != nil || cap(c.floats) > 0 {
		c.floats = append(c.floats, 0)
	}
	if c.ints != nil || cap(c.ints) > 0 {
		c.ints = append(c.ints, 0)
	}
	if c.strs != nil || cap(c.strs) > 0 {
		c.strs = append(c.strs, "")
	}
	if c.bools != nil || cap(c.bools) > 0 {
		c.bools = append(c.bools, false)
	}
	if c.times != nil || cap(c.times) > 0 {
		c.times = append(c.times, time.Time{})
	}
	_ = row
}

// ensure makes the payload array for kind k row-aligned with the column,
// allocating it on first use.
func (c *batchColumn) ensure(k Kind, rows int) {
	switch k {
	case KindFloat:
		for len(c.floats) < rows {
			c.floats = append(c.floats, 0)
		}
	case KindInt:
		for len(c.ints) < rows {
			c.ints = append(c.ints, 0)
		}
	case KindString:
		for len(c.strs) < rows {
			c.strs = append(c.strs, "")
		}
	case KindBool:
		for len(c.bools) < rows {
			c.bools = append(c.bools, false)
		}
	case KindTime:
		for len(c.times) < rows {
			c.times = append(c.times, time.Time{})
		}
	}
}

// set stores v at row (which must already exist in the column).
func (c *batchColumn) set(row int, v Value) {
	k := v.Kind()
	c.kinds[row] = k
	switch k {
	case KindFloat:
		c.ensure(KindFloat, row+1)
		c.floats[row], _ = v.AsFloat()
	case KindInt:
		c.ensure(KindInt, row+1)
		c.ints[row], _ = v.AsInt()
	case KindString:
		c.ensure(KindString, row+1)
		c.strs[row], _ = v.AsString()
	case KindBool:
		c.ensure(KindBool, row+1)
		c.bools[row], _ = v.AsBool()
	case KindTime:
		c.ensure(KindTime, row+1)
		c.times[row], _ = v.AsTime()
	}
}

// value reads the cell at row.
func (c *batchColumn) value(row int) Value {
	switch c.kinds[row] {
	case KindFloat:
		return Float(c.floats[row])
	case KindInt:
		return Int(c.ints[row])
	case KindString:
		return Str(c.strs[row])
	case KindBool:
		return Bool(c.bools[row])
	case KindTime:
		return Time(c.times[row])
	}
	return Null()
}

// AppendTuple appends one row copied from t. The tuple's schema must
// match the batch schema (same width; the caller guarantees field
// compatibility, as everywhere else in the engine).
func (b *ColumnBatch) AppendTuple(t Tuple) error {
	if t.Len() != b.schema.Len() {
		return fmt.Errorf("stream: column batch of width %d cannot hold tuple of width %d", b.schema.Len(), t.Len())
	}
	row := b.n
	b.ids = append(b.ids, t.ID)
	b.subStreams = append(b.subStreams, int32(t.SubStream))
	b.eventTimes = append(b.eventTimes, t.EventTime)
	b.arrivals = append(b.arrivals, t.Arrival)
	b.dropped = append(b.dropped, t.Dropped)
	b.quarantined = append(b.quarantined, t.Quarantined)
	for i := range b.cols {
		b.cols[i].grow(row)
		b.cols[i].set(row, t.At(i))
	}
	b.n++
	return nil
}

// padAppend appends src[from:to) to dst keeping dst row-aligned: dst is
// padded with zero values up to dstRows first (the rows a lazily
// allocated payload has not materialised yet) and up to the full new
// row count afterwards (rows the source payload has not materialised).
// A payload absent on both sides stays absent.
func padAppend[T any](dst []T, dstRows int, src []T, from, to int) []T {
	if len(src) == 0 && dst == nil {
		return nil
	}
	var zero T
	for len(dst) < dstRows {
		dst = append(dst, zero)
	}
	end := to
	if end > len(src) {
		end = len(src)
	}
	if end > from {
		dst = append(dst, src[from:end]...)
	}
	for want := dstRows + (to - from); len(dst) < want; {
		dst = append(dst, zero)
	}
	return dst
}

// AppendBatchRows bulk-appends rows [from, to) of src to b — the
// batch-to-batch fast path of batch-native sources and batch emission.
// Columns are copied payload-array by payload-array instead of boxing
// one Value per cell, so the copy is a handful of bulk appends per
// column.
func (b *ColumnBatch) AppendBatchRows(src *ColumnBatch, from, to int) error {
	if src.schema.Len() != b.schema.Len() {
		return fmt.Errorf("stream: column batch of width %d cannot append rows of width %d", b.schema.Len(), src.schema.Len())
	}
	if from < 0 || to > src.n || from > to {
		return fmt.Errorf("stream: row range [%d, %d) outside batch of %d rows", from, to, src.n)
	}
	if from == to {
		return nil
	}
	b.ids = append(b.ids, src.ids[from:to]...)
	b.subStreams = append(b.subStreams, src.subStreams[from:to]...)
	b.eventTimes = append(b.eventTimes, src.eventTimes[from:to]...)
	b.arrivals = append(b.arrivals, src.arrivals[from:to]...)
	b.dropped = append(b.dropped, src.dropped[from:to]...)
	b.quarantined = append(b.quarantined, src.quarantined[from:to]...)
	for i := range b.cols {
		c, sc := &b.cols[i], &src.cols[i]
		c.kinds = append(c.kinds, sc.kinds[from:to]...)
		c.floats = padAppend(c.floats, b.n, sc.floats, from, to)
		c.ints = padAppend(c.ints, b.n, sc.ints, from, to)
		c.strs = padAppend(c.strs, b.n, sc.strs, from, to)
		c.bools = padAppend(c.bools, b.n, sc.bools, from, to)
		c.times = padAppend(c.times, b.n, sc.times, from, to)
	}
	b.n += to - from
	return nil
}

// Value returns the cell at (row, col).
func (b *ColumnBatch) Value(row, col int) Value { return b.cols[col].value(row) }

// ID returns the tuple ID of row.
func (b *ColumnBatch) ID(row int) uint64 { return b.ids[row] }

// Floats returns the dense float payload of column col together with the
// per-row kind tags. A cell holds a valid float only where kinds[row] ==
// KindFloat; columnar kernels branch on the tag. The returned slices
// alias the batch and are invalidated by Reset.
func (b *ColumnBatch) Floats(col int) (payload []float64, kinds []Kind) {
	c := &b.cols[col]
	c.ensure(KindFloat, b.n)
	return c.floats[:b.n], c.kinds[:b.n]
}

// Ints returns the dense int payload of column col with the per-row
// kind tags (valid where kinds[row] == KindInt). The slices alias the
// batch and are invalidated by Reset.
func (b *ColumnBatch) Ints(col int) (payload []int64, kinds []Kind) {
	c := &b.cols[col]
	c.ensure(KindInt, b.n)
	return c.ints[:b.n], c.kinds[:b.n]
}

// Strs returns the dense string payload of column col with the per-row
// kind tags (valid where kinds[row] == KindString).
func (b *ColumnBatch) Strs(col int) (payload []string, kinds []Kind) {
	c := &b.cols[col]
	c.ensure(KindString, b.n)
	return c.strs[:b.n], c.kinds[:b.n]
}

// Bools returns the dense bool payload of column col with the per-row
// kind tags (valid where kinds[row] == KindBool).
func (b *ColumnBatch) Bools(col int) (payload []bool, kinds []Kind) {
	c := &b.cols[col]
	c.ensure(KindBool, b.n)
	return c.bools[:b.n], c.kinds[:b.n]
}

// Times returns the dense time payload of column col with the per-row
// kind tags (valid where kinds[row] == KindTime).
func (b *ColumnBatch) Times(col int) (payload []time.Time, kinds []Kind) {
	c := &b.cols[col]
	c.ensure(KindTime, b.n)
	return c.times[:b.n], c.kinds[:b.n]
}

// Kinds returns the per-row kind tags of column col. Kernels that
// retag a cell (e.g. MissingValue writing KindNull) mutate this slice
// directly; payload slices must be obtained through the typed accessors
// so they are row-aligned first.
func (b *ColumnBatch) Kinds(col int) []Kind { return b.cols[col].kinds[:b.n] }

// IDs returns the per-row tuple IDs. The slice aliases the batch.
func (b *ColumnBatch) IDs() []uint64 { return b.ids[:b.n] }

// EventTimes returns the per-row event times τ. The slice aliases the
// batch; pollution never mutates it (EventTime is pollution-immune).
func (b *ColumnBatch) EventTimes() []time.Time { return b.eventTimes[:b.n] }

// Arrivals returns the per-row delivery times. Delay kernels mutate the
// slice in place.
func (b *ColumnBatch) Arrivals() []time.Time { return b.arrivals[:b.n] }

// DroppedMask returns the per-row dropped flags, mutated in place by
// drop kernels.
func (b *ColumnBatch) DroppedMask() []bool { return b.dropped[:b.n] }

// QuarantinedMask returns the per-row quarantined flags.
func (b *ColumnBatch) QuarantinedMask() []bool { return b.quarantined[:b.n] }

// SubStreams returns the per-row sub-stream indices.
func (b *ColumnBatch) SubStreams() []int32 { return b.subStreams[:b.n] }

// AppendEmptyRow appends one all-NULL row with zero metadata and
// returns its index. Batch-native ingest decodes cells directly into
// the typed payload arrays of the new row.
func (b *ColumnBatch) AppendEmptyRow() int {
	row := b.n
	b.ids = append(b.ids, 0)
	b.subStreams = append(b.subStreams, 0)
	b.eventTimes = append(b.eventTimes, time.Time{})
	b.arrivals = append(b.arrivals, time.Time{})
	b.dropped = append(b.dropped, false)
	b.quarantined = append(b.quarantined, false)
	for i := range b.cols {
		b.cols[i].grow(row)
	}
	b.n++
	return row
}

// SetID overwrites the tuple ID of row.
func (b *ColumnBatch) SetID(row int, id uint64) { b.ids[row] = id }

// SetEventTime overwrites τ of row.
func (b *ColumnBatch) SetEventTime(row int, tau time.Time) { b.eventTimes[row] = tau }

// SetArrival overwrites the delivery time of row.
func (b *ColumnBatch) SetArrival(row int, at time.Time) { b.arrivals[row] = at }

// SetRow writes t back into row — the inverse of RowInto, used by
// per-row fallback shims to fold a materialised tuple's mutations
// (values, arrival, drop/quarantine flags) back into the batch.
func (b *ColumnBatch) SetRow(row int, t Tuple) {
	for i := range b.cols {
		b.cols[i].set(row, t.At(i))
	}
	b.ids[row] = t.ID
	b.subStreams[row] = int32(t.SubStream)
	b.eventTimes[row] = t.EventTime
	b.arrivals[row] = t.Arrival
	b.dropped[row] = t.Dropped
	b.quarantined[row] = t.Quarantined
}

// Selection is a selection vector: the row indices (ascending) of a
// ColumnBatch that a columnar operator applies to. Condition kernels
// narrow a selection, error kernels sweep one.
type Selection []int32

// FillAll resets s to select every row of an n-row batch, reusing the
// backing array.
func (s Selection) FillAll(n int) Selection {
	s = s[:0]
	for i := 0; i < n; i++ {
		s = append(s, int32(i))
	}
	return s
}

// ColumnBatchReader is a source that decodes rows directly into a
// caller-provided ColumnBatch — the batch-native ingest fast path.
// ReadBatch appends up to max rows to dst and returns the number
// appended. io.EOF (with n == 0) ends the stream; a *TupleError reports
// a malformed row with the reader still usable, rows decoded before the
// failure staying appended.
type ColumnBatchReader interface {
	Schema() *Schema
	ReadBatch(dst *ColumnBatch, max int) (int, error)
}

// BatchSliceReader serves pre-built column batches through the
// ColumnBatchReader interface — the columnar analogue of SliceSource,
// used by benchmarks, tests and replay paths that already hold the
// stream in batched form.
type BatchSliceReader struct {
	schema  *Schema
	batches []*ColumnBatch
	bi, ri  int
}

// NewBatchSliceReader returns a reader serving the rows of batches in
// order. The batches are read, never mutated.
func NewBatchSliceReader(schema *Schema, batches []*ColumnBatch) *BatchSliceReader {
	return &BatchSliceReader{schema: schema, batches: batches}
}

// Schema implements ColumnBatchReader.
func (r *BatchSliceReader) Schema() *Schema { return r.schema }

// Next implements Source, so the reader can feed tuple-wise consumers
// too; the columnar runner detects ReadBatch and bypasses it.
func (r *BatchSliceReader) Next() (Tuple, error) {
	for r.bi < len(r.batches) && r.ri >= r.batches[r.bi].Len() {
		r.bi, r.ri = r.bi+1, 0
	}
	if r.bi >= len(r.batches) {
		return Tuple{}, io.EOF
	}
	t := r.batches[r.bi].Row(r.ri)
	r.ri++
	return t, nil
}

// ReadBatch implements ColumnBatchReader.
func (r *BatchSliceReader) ReadBatch(dst *ColumnBatch, max int) (int, error) {
	for r.bi < len(r.batches) && r.ri >= r.batches[r.bi].Len() {
		r.bi, r.ri = r.bi+1, 0
	}
	if r.bi >= len(r.batches) {
		return 0, io.EOF
	}
	cur := r.batches[r.bi]
	take := cur.Len() - r.ri
	if max > 0 && take > max {
		take = max
	}
	if err := dst.AppendBatchRows(cur, r.ri, r.ri+take); err != nil {
		return 0, err
	}
	r.ri += take
	return take, nil
}

// RowInto materialises row into a Tuple whose values live in buf (grown
// if needed). The metadata (ID, sub-stream, event time, arrival, flags)
// is restored exactly, so batching a stream and replaying it is
// lossless.
func (b *ColumnBatch) RowInto(buf []Value, row int) Tuple {
	w := b.schema.Len()
	if cap(buf) < w {
		buf = make([]Value, w)
	}
	buf = buf[:w]
	for i := range b.cols {
		buf[i] = b.cols[i].value(row)
	}
	t := NewTuple(b.schema, buf)
	t.ID = b.ids[row]
	t.SubStream = int(b.subStreams[row])
	t.EventTime = b.eventTimes[row]
	t.Arrival = b.arrivals[row]
	t.Dropped = b.dropped[row]
	t.Quarantined = b.quarantined[row]
	return t
}

// Row materialises row into a freshly allocated tuple.
func (b *ColumnBatch) Row(row int) Tuple { return b.RowInto(nil, row) }
