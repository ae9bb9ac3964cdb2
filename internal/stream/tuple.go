package stream

import (
	"fmt"
	"strings"
	"time"
)

// Tuple is one element of a data stream. During preparation (Algorithm 1,
// step 1) each tuple receives a unique ID and a replicated event time τ
// (EventTime); neither is touched by pollution, so the pair serves as the
// ground-truth link between the clean and the polluted stream. The
// original timestamp remains an ordinary attribute (schema.Timestamp())
// and MAY be polluted.
type Tuple struct {
	// ID uniquely identifies the tuple across the whole pollution run.
	ID uint64
	// EventTime is τ, the pollution-immune replica of the original
	// timestamp, used as event time throughout the pollution process.
	EventTime time.Time
	// Arrival is the delivery time of the tuple: the instant at which it
	// reaches downstream consumers. Preparation initialises it to τ; a
	// delayed-tuple error pushes it into the future without touching the
	// timestamp attribute, so after the merge sort (Algorithm 1, step 3)
	// the delayed tuple appears late and its timestamp attribute breaks
	// the increasing order — exactly how the paper detects delays.
	Arrival time.Time
	// SubStream identifies which pollution sub-pipeline processed the
	// tuple; it is attached during integration (Algorithm 1, step 3).
	SubStream int32
	// Dropped marks the tuple as removed from the stream by a tuple-loss
	// error. Dropped tuples are excluded from the polluted output but
	// still appear in the pollution log as ground truth.
	Dropped bool
	// Quarantined marks the tuple as removed by the fault-tolerance
	// layer (its pollution failed). Quarantined tuples are excluded from
	// the polluted output AND rolled back out of the pollution log; the
	// dead-letter queue is their ground truth instead.
	Quarantined bool

	schema *Schema
	values []Value
	text   *Text // the source text, while a Recycler lends values
}

// NewTuple creates a tuple over schema with the given attribute values.
// It panics if the value count does not match the schema, because that is
// always a programming error in a generator or source.
func NewTuple(schema *Schema, values []Value) Tuple {
	if len(values) != schema.Len() {
		panic(fmt.Sprintf("stream: tuple has %d values for schema of %d fields", len(values), schema.Len())) //lint:allowpanic construction contract
	}
	return Tuple{schema: schema, values: values}
}

// Schema returns the tuple's schema.
func (t Tuple) Schema() *Schema { return t.schema }

// Len returns the number of attributes.
func (t Tuple) Len() int { return len(t.values) }

// At returns the i-th attribute value.
func (t Tuple) At(i int) Value { return t.values[i] }

// SetAt replaces the i-th attribute value in place.
func (t *Tuple) SetAt(i int, v Value) { t.values[i] = v }

// Get returns the named attribute value. ok is false if the schema does
// not contain the attribute.
func (t Tuple) Get(name string) (Value, bool) {
	i := t.schema.Index(name)
	if i < 0 {
		return Null(), false
	}
	return t.values[i], true
}

// MustGet returns the named attribute value or panics.
func (t Tuple) MustGet(name string) Value {
	v, ok := t.Get(name)
	if !ok {
		panic(fmt.Sprintf("stream: no attribute %q in schema", name)) //lint:allowpanic Must* contract
	}
	return v
}

// GetFloat returns the named attribute as a float64; ok is false when
// the attribute is missing, NULL, or non-numeric.
func (t Tuple) GetFloat(name string) (float64, bool) {
	v, ok := t.Get(name)
	if !ok {
		return 0, false
	}
	return v.AsFloat()
}

// Set replaces the named attribute value in place. It reports whether the
// attribute exists.
func (t *Tuple) Set(name string, v Value) bool {
	i := t.schema.Index(name)
	if i < 0 {
		return false
	}
	t.values[i] = v
	return true
}

// Timestamp returns the (possibly polluted) value of the timestamp
// attribute as a time.Time. If pollution replaced it by NULL, ok is false.
func (t Tuple) Timestamp() (time.Time, bool) {
	return t.values[t.schema.TimestampIndex()].AsTime()
}

// SetTimestamp overwrites the timestamp attribute.
func (t *Tuple) SetTimestamp(ts time.Time) {
	i := t.schema.TimestampIndex()
	if t.schema.Field(i).Kind == KindInt {
		t.values[i] = Int(ts.Unix())
		return
	}
	t.values[i] = Time(ts)
}

// Clone returns a deep copy of the tuple. Pollution pipelines operate on
// clones so that the clean stream D stays intact (the paper returns both
// D and D^p).
func (t Tuple) Clone() Tuple {
	c := t
	c.values = append([]Value(nil), t.values...)
	c.text = nil
	return c
}

// CloneValuesInto rebinds t to a private copy of its values stored in
// buf (falling back to a fresh allocation when buf is too small): a
// Clone without the per-tuple allocation. The caller owns buf and must
// not alias it with t's current values.
func (t *Tuple) CloneValuesInto(buf []Value) {
	t.text = nil
	if cap(buf) >= len(t.values) {
		buf = buf[:len(t.values)]
		copy(buf, t.values)
		t.values = buf
		return
	}
	t.values = append([]Value(nil), t.values...)
}

// Text returns the text a Recycler lent with the tuple's values, or nil.
func (t Tuple) Text() *Text { return t.text }

// SetText attaches x as the tuple's source text.
func (t *Tuple) SetText(x *Text) { t.text = x }

// Values returns the underlying value slice. Callers must not mutate it
// unless they own the tuple.
func (t Tuple) Values() []Value { return t.values }

// Equal reports whether two tuples have equal values (ID, sub-stream and
// event time are metadata and not compared).
func (t Tuple) Equal(o Tuple) bool {
	if len(t.values) != len(o.values) {
		return false
	}
	for i := range t.values {
		if !t.values[i].Equal(o.values[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple for debugging.
func (t Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d{", t.ID)
	for i, v := range t.values {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", t.schema.Field(i).Name, v.String())
	}
	b.WriteString("}")
	return b.String()
}
