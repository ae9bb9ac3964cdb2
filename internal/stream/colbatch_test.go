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

// TestColumnBatchRoundTrip: a batch keeps every row it is given — cells
// of any kind, IDs, sub-streams, event and arrival times — in order.
func TestColumnBatchRoundTrip(t *testing.T) {
	schema, tuples := colBatchStream(10)
	prepared, err := Drain(NewPrepare(NewSliceSource(schema, tuples), 1))
	if err != nil {
		t.Fatal(err)
	}
	// Pollute a few cells with mixed kinds, as pollution would.
	prepared[3].Set("v", Null())
	prepared[5].Set("v", Str("oops"))
	prepared[6].SubStream = 2
	prepared[8].Arrival = prepared[8].Arrival.Add(time.Hour)

	b := NewColumnBatch(schema, 4)
	for _, tp := range prepared {
		if err := b.AppendTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != len(prepared) {
		t.Fatalf("batch holds %d rows, want %d", b.Len(), len(prepared))
	}
	for r, tp := range prepared {
		for c := 0; c < schema.Len(); c++ {
			if got, want := b.Value(r, c), tp.At(c); got.Kind() != want.Kind() || got.String() != want.String() {
				t.Fatalf("cell (%d, %d) = %v, want %v", r, c, got, want)
			}
		}
		if b.IDs()[r] != tp.ID || int(b.SubStreams()[r]) != tp.SubStream ||
			!b.EventTimes()[r].Equal(tp.EventTime) || !b.Arrivals()[r].Equal(tp.Arrival) {
			t.Fatalf("row %d metadata differs", r)
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
	if got := b.Value(2, 1).MustFloat(); got != 1.0 {
		t.Fatalf("cell (2, 1) = %v", got)
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

func TestColumnBatchWidthMismatch(t *testing.T) {
	schema, _ := colBatchStream(1)
	narrow := MustSchema("ts", Field{Name: "ts", Kind: KindTime})
	b := NewColumnBatch(schema, 1)
	if err := b.AppendTuple(NewTuple(narrow, []Value{Time(time.Unix(0, 0))})); err == nil {
		t.Fatal("width mismatch not rejected")
	}
}
