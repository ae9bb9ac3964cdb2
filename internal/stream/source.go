package stream

import (
	"errors"
	"io"
	"time"
)

// Source is a pull-based stream of tuples. Next returns io.EOF when the
// stream is exhausted. Sources are single-consumer; wrap with Tee to fan
// out.
//
// Error contract:
//
//   - io.EOF: the stream ended normally (all tuples delivered).
//   - ErrStopped: the stream was cancelled. Every Next call after a
//     cancellation — via WithContext, Stop, or a context-aware source —
//     MUST return ErrStopped, never io.EOF, so consumers can distinguish
//     "complete" from "interrupted".
//   - *TupleError: one tuple failed but the stream remains usable;
//     callers may keep calling Next (see Quarantine).
//   - any other error is fatal and terminates the stream.
type Source interface {
	// Schema returns the schema of the tuples this source emits.
	Schema() *Schema
	// Next returns the next tuple or io.EOF at end of stream.
	Next() (Tuple, error)
}

// Recycler is a Source that can reuse the value arrays of the tuples it
// emits, and the Text it lends with each. A consumer done with a tuple
// may hand its Values and Text back through Recycle, and must then hold
// no view of them; one that never recycles may keep every tuple.
type Recycler interface {
	Source
	Recycle(values []Value, text *Text)
}

// ErrStopped is returned by sources that were cancelled mid-stream. It is
// the cancellation half of the Source error contract: once a source is
// cancelled, every subsequent Next returns ErrStopped (never io.EOF).
var ErrStopped = errors.New("stream: source stopped")

// SliceSource replays an in-memory slice of tuples.
type SliceSource struct {
	schema *Schema
	tuples []Tuple
	pos    int
}

// NewSliceSource returns a source over tuples, all of which must share
// schema.
func NewSliceSource(schema *Schema, tuples []Tuple) *SliceSource {
	return &SliceSource{schema: schema, tuples: tuples}
}

// Schema implements Source.
func (s *SliceSource) Schema() *Schema { return s.schema }

// Next implements Source.
func (s *SliceSource) Next() (Tuple, error) {
	if s.pos >= len(s.tuples) {
		return Tuple{}, io.EOF
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, nil
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// GeneratorSource produces n tuples by calling gen(i) for i = 0..n-1.
// With n < 0 the stream is unbounded.
type GeneratorSource struct {
	schema *Schema
	gen    func(i int) Tuple
	n      int
	i      int
}

// NewGeneratorSource returns a generator-backed source.
func NewGeneratorSource(schema *Schema, n int, gen func(i int) Tuple) *GeneratorSource {
	return &GeneratorSource{schema: schema, gen: gen, n: n}
}

// Schema implements Source.
func (s *GeneratorSource) Schema() *Schema { return s.schema }

// Next implements Source.
func (s *GeneratorSource) Next() (Tuple, error) {
	if s.n >= 0 && s.i >= s.n {
		return Tuple{}, io.EOF
	}
	t := s.gen(s.i)
	s.i++
	return t, nil
}

// Drain consumes src fully and returns the tuples. It is the bounded-
// stream counterpart of collecting a Flink DataStream for a test.
func Drain(src Source) ([]Tuple, error) {
	var out []Tuple
	for {
		t, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// Prepare implements step 1 of Algorithm 1: it assigns each tuple a fresh
// unique ID (starting from firstID) and replicates the timestamp
// attribute into the pollution-immune event time τ. Tuples whose
// timestamp attribute is NULL or non-temporal keep a zero event time.
type Prepare struct {
	src    Source
	nextID uint64
}

// NewPrepare wraps src, numbering tuples from firstID.
func NewPrepare(src Source, firstID uint64) *Prepare {
	return &Prepare{src: src, nextID: firstID}
}

// Schema implements Source.
func (p *Prepare) Schema() *Schema { return p.src.Schema() }

// NextID returns the ID the next prepared tuple will receive. Together
// with the first ID it encodes the input position — the number of tuples
// consumed so far — which checkpointing uses to resume deterministically.
func (p *Prepare) NextID() uint64 { return p.nextID }

// Next implements Source.
func (p *Prepare) Next() (Tuple, error) {
	t, err := p.src.Next()
	if err != nil {
		return t, err
	}
	t.ID = p.nextID
	p.nextID++
	if ts, ok := t.Timestamp(); ok {
		t.EventTime = ts
	} else {
		t.EventTime = time.Time{}
	}
	t.Arrival = t.EventTime
	return t, nil
}
