package stream

import (
	"fmt"
	"io"
	"testing"
	"time"
)

func growthSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("ts",
		Field{Name: "ts", Kind: KindTime},
		Field{Name: "v", Kind: KindFloat},
		Field{Name: "label", Kind: KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestColumnBatchSetRowInverseOfRowInto(t *testing.T) {
	schema := growthSchema(t)
	b := NewColumnBatch(schema, 4)
	base := time.Date(2025, 3, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		tu := NewTuple(schema, []Value{Time(base.Add(time.Duration(i) * time.Second)), Float(float64(i)), Str("a")})
		tu.ID = uint64(i + 1)
		tu.EventTime = base
		tu.Arrival = base
		if err := b.AppendTuple(tu); err != nil {
			t.Fatal(err)
		}
	}
	// Mutate row 1 through a materialised view and write it back.
	var buf []Value
	tu := b.RowInto(buf, 1)
	tu.SetAt(1, Null())
	tu.SetAt(2, Str("edited"))
	tu.Arrival = base.Add(time.Hour)
	tu.Dropped = true
	b.SetRow(1, tu)

	got := b.Row(1)
	if !got.At(1).IsNull() || got.At(2).String() != "edited" {
		t.Fatalf("write-back lost cell mutations: %v", got)
	}
	if !got.Arrival.Equal(base.Add(time.Hour)) || !got.Dropped {
		t.Fatalf("write-back lost metadata: arrival=%v dropped=%v", got.Arrival, got.Dropped)
	}
	// Neighbouring rows untouched.
	if b.Row(0).At(2).String() != "a" || b.Row(2).At(2).String() != "a" {
		t.Fatal("write-back leaked into neighbouring rows")
	}
}

func TestColumnBatchTypedAccessorsAliasBatch(t *testing.T) {
	schema := growthSchema(t)
	b := NewColumnBatch(schema, 2)
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 2; i++ {
		tu := NewTuple(schema, []Value{Time(base), Float(1.5), Str("x")})
		if err := b.AppendTuple(tu); err != nil {
			t.Fatal(err)
		}
	}
	floats, kinds := b.Floats(1)
	floats[0] = 9.5
	if v, _ := b.Value(0, 1).AsFloat(); v != 9.5 {
		t.Fatalf("float mutation through accessor not visible: %v", b.Value(0, 1))
	}
	// Retag a cell NULL through the kind tags.
	kinds[1] = KindNull
	if !b.Value(1, 1).IsNull() {
		t.Fatal("kind retag not visible")
	}
	strs, _ := b.Strs(2)
	strs[0] = "y"
	if b.Value(0, 2).String() != "y" {
		t.Fatal("string mutation not visible")
	}
	if len(b.IDs()) != 2 || len(b.EventTimes()) != 2 || len(b.Arrivals()) != 2 {
		t.Fatal("metadata slices have wrong length")
	}
	b.DroppedMask()[1] = true
	if !b.Row(1).Dropped {
		t.Fatal("dropped mask mutation not visible")
	}
}

func TestColumnBatchAppendEmptyRow(t *testing.T) {
	schema := growthSchema(t)
	b := NewColumnBatch(schema, 1)
	row := b.AppendEmptyRow()
	if row != 0 || b.Len() != 1 {
		t.Fatalf("AppendEmptyRow: row=%d len=%d", row, b.Len())
	}
	for c := 0; c < schema.Len(); c++ {
		if !b.Value(row, c).IsNull() {
			t.Fatalf("fresh row column %d not NULL", c)
		}
	}
	floats, kinds := b.Floats(1)
	floats[row] = 3.25
	kinds[row] = KindFloat
	b.SetID(row, 7)
	b.SetEventTime(row, time.Unix(100, 0).UTC())
	b.SetArrival(row, time.Unix(100, 0).UTC())
	got := b.Row(row)
	if got.ID != 7 || got.At(1).String() != "3.25" {
		t.Fatalf("decoded row mismatch: %v", got)
	}
}

func TestSelectionFillAll(t *testing.T) {
	var sel Selection
	sel = sel.FillAll(5)
	if len(sel) != 5 || sel[0] != 0 || sel[4] != 4 {
		t.Fatalf("FillAll(5) = %v", sel)
	}
	backing := &sel[0]
	sel = sel.FillAll(3)
	if len(sel) != 3 || &sel[0] != backing {
		t.Fatal("FillAll did not reuse backing array")
	}
}

// TestAppendBatchRows exercises the bulk batch-to-batch copy, including
// payload arrays that are lazily allocated mid-batch (a string written
// into a float column via SetRow leaves the string payload shorter than
// the batch) — padAppend must keep every payload row-aligned.
func TestAppendBatchRows(t *testing.T) {
	schema := growthSchema(t)
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	src := NewColumnBatch(schema, 4)
	for i := 0; i < 4; i++ {
		tu := NewTuple(schema, []Value{Time(base.Add(time.Duration(i) * time.Minute)), Float(float64(i)), Str("s")})
		tu.ID = uint64(i + 1)
		tu.EventTime = base
		tu.Arrival = base.Add(time.Duration(i) * time.Minute)
		tu.Dropped = i == 2
		if err := src.AppendTuple(tu); err != nil {
			t.Fatal(err)
		}
	}
	// Retag row 0's float cell as a string: the column's string payload
	// now exists but is shorter than the batch.
	mut := src.Row(0)
	mut.SetAt(1, Str("mixed"))
	src.SetRow(0, mut)

	dst := NewColumnBatch(schema, 2)
	// Seed dst with one row so the append lands at a non-zero offset.
	seed := NewTuple(schema, []Value{Time(base), Float(-1), Str("seed")})
	if err := dst.AppendTuple(seed); err != nil {
		t.Fatal(err)
	}
	if err := dst.AppendBatchRows(src, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := dst.AppendBatchRows(src, 0, 1); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 5 {
		t.Fatalf("dst has %d rows, want 5", dst.Len())
	}
	wantOrder := []int{-1, 1, 2, 3, 0} // -1 = the seed row
	for i, sr := range wantOrder {
		var want Tuple
		if sr < 0 {
			want = seed
		} else {
			want = src.Row(sr)
		}
		got := dst.Row(i)
		for c := 0; c < schema.Len(); c++ {
			if got.At(c).Kind() != want.At(c).Kind() || got.At(c).String() != want.At(c).String() {
				t.Fatalf("row %d col %d: got %v, want %v", i, c, got.At(c), want.At(c))
			}
		}
		if got.ID != want.ID || got.Dropped != want.Dropped || !got.Arrival.Equal(want.Arrival) {
			t.Fatalf("row %d metadata diverged: got %+v, want %+v", i, got, want)
		}
	}
	// Range validation.
	if err := dst.AppendBatchRows(src, 3, 2); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := dst.AppendBatchRows(src, 0, 5); err == nil {
		t.Fatal("out-of-range append accepted")
	}
}

// TestBatchSliceReader checks both faces of the reader: ReadBatch
// serves bounded column copies; Next materialises the same rows.
func TestBatchSliceReader(t *testing.T) {
	schema := growthSchema(t)
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	mkBatches := func() []*ColumnBatch {
		var batches []*ColumnBatch
		id := uint64(1)
		for _, n := range []int{3, 0, 2} {
			b := NewColumnBatch(schema, n)
			for i := 0; i < n; i++ {
				tu := NewTuple(schema, []Value{Time(base), Float(float64(id)), Str("x")})
				tu.ID = id
				id++
				if err := b.AppendTuple(tu); err != nil {
					t.Fatal(err)
				}
			}
			batches = append(batches, b)
		}
		return batches
	}

	r := NewBatchSliceReader(schema, mkBatches())
	dst := NewColumnBatch(schema, 2)
	var ids []uint64
	for {
		dst.Reset()
		n, err := r.ReadBatch(dst, 2)
		for row := 0; row < n; row++ {
			ids = append(ids, dst.ID(row))
		}
		if err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		if n == 0 {
			t.Fatal("ReadBatch returned 0 rows without an error")
		}
		if n > 2 {
			t.Fatalf("ReadBatch returned %d rows, max is 2", n)
		}
	}
	if got, want := fmt.Sprint(ids), fmt.Sprint([]uint64{1, 2, 3, 4, 5}); got != want {
		t.Fatalf("ReadBatch ids = %s, want %s", got, want)
	}

	tupleIDs := []uint64{}
	tr := NewBatchSliceReader(schema, mkBatches())
	for {
		tu, err := tr.Next()
		if err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		tupleIDs = append(tupleIDs, tu.ID)
	}
	if fmt.Sprint(tupleIDs) != fmt.Sprint([]uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("Next ids = %v", tupleIDs)
	}
}
