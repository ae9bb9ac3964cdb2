package stream

import (
	"testing"
	"time"
)

func colBatchStream(n int) (*Schema, []Tuple) {
	schema := MustSchema("ts",
		Field{Name: "ts", Kind: KindTime},
		Field{Name: "v", Kind: KindFloat},
		Field{Name: "tag", Kind: KindString},
	)
	base := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = NewTuple(schema, []Value{
			Time(base.Add(time.Duration(i) * time.Minute)),
			Float(float64(i) / 2),
			Str("s"),
		})
	}
	return schema, tuples
}

func TestColumnBatchRoundTrip(t *testing.T) {
	schema, tuples := colBatchStream(10)
	prepared, err := Drain(NewPrepare(NewSliceSource(schema, tuples), 1))
	if err != nil {
		t.Fatal(err)
	}
	// Pollute a few cells with mixed kinds, as pollution would.
	prepared[3].Set("v", Null())
	prepared[5].Set("v", Str("oops"))
	prepared[7].Dropped = true
	prepared[8].Arrival = prepared[8].Arrival.Add(time.Hour)

	var batches []*ColumnBatch
	for i, tp := range prepared {
		if i%4 == 0 {
			batches = append(batches, NewColumnBatch(schema, 4))
		}
		if err := batches[i/4].AppendTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	out, err := Drain(NewBatchSliceReader(schema, batches))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(prepared) {
		t.Fatalf("round trip lost rows: %d != %d", len(out), len(prepared))
	}
	for i := range out {
		a, b := prepared[i], out[i]
		if !a.Equal(b) {
			t.Fatalf("row %d values differ: %v vs %v", i, a, b)
		}
		if a.ID != b.ID || a.SubStream != b.SubStream || a.Dropped != b.Dropped ||
			a.Quarantined != b.Quarantined || !a.EventTime.Equal(b.EventTime) ||
			!a.Arrival.Equal(b.Arrival) {
			t.Fatalf("row %d metadata differs", i)
		}
	}
}

func TestColumnBatchResetReuse(t *testing.T) {
	schema, tuples := colBatchStream(8)
	b := NewColumnBatch(schema, 8)
	for _, tp := range tuples {
		if err := b.AppendTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 8 {
		t.Fatalf("len = %d", b.Len())
	}
	payload, kinds := b.Floats(1)
	if len(payload) != 8 || kinds[0] != KindFloat || payload[2] != 1.0 {
		t.Fatalf("columnar float access wrong: %v %v", payload, kinds)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not empty the batch")
	}
	if err := b.AppendTuple(tuples[0]); err != nil {
		t.Fatal(err)
	}
	if got := b.Value(0, 1).MustFloat(); got != 0 {
		t.Fatalf("reused batch row wrong: %v", got)
	}
}

// SetRow writes a cell of a different kind than the column's schema
// kind (a shimmed error function may store a string or NULL anywhere).
func TestColumnBatchSetRowMixedKinds(t *testing.T) {
	schema, tuples := colBatchStream(2)
	b := NewColumnBatch(schema, 2)
	for _, tp := range tuples {
		if err := b.AppendTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	for row, v := range []Value{Str("polluted"), Null()} {
		tp := b.Row(row)
		tp.SetAt(1, v)
		b.SetRow(row, tp)
	}
	if s, _ := b.Value(0, 1).AsString(); s != "polluted" {
		t.Fatalf("cell (0,1) = %v", b.Value(0, 1))
	}
	if !b.Value(1, 1).IsNull() {
		t.Fatalf("cell (1,1) = %v, want NULL", b.Value(1, 1))
	}
}

func TestColumnBatchWidthMismatch(t *testing.T) {
	schema, _ := colBatchStream(1)
	narrow := MustSchema("ts", Field{Name: "ts", Kind: KindTime})
	b := NewColumnBatch(schema, 1)
	if err := b.AppendTuple(NewTuple(narrow, []Value{Time(time.Unix(0, 0))})); err == nil {
		t.Fatal("width mismatch not rejected")
	}
}
