package csvio

import (
	"strings"
	"testing"

	"icewafl/internal/stream"
)

// TestRecycledCellsNeverLeak reads rows that fill a cell array only in
// part — a short row, a long row, a row whose cell fails to parse — each
// followed by a good row with empty cells, once through a reader whose
// every array is handed back and once through a fresh reader. The two
// must agree row for row: a reused array never shows a previous row's
// cell.
func TestRecycledCellsNeverLeak(t *testing.T) {
	input := "ts,value,count,label,ok\n" +
		"2020-05-01T00:00:00Z,1.5,1,full,true\n" +
		"2020-05-01T00:01:00Z,2.5\n" + // short
		"2020-05-01T00:02:00Z,,,,\n" +
		"2020-05-01T00:03:00Z,4.5,4,again,false\n" +
		"2020-05-01T00:04:00Z,notafloat,5,bad,true\n" + // bad cell
		",6.5,,,\n" +
		"2020-05-01T00:06:00Z,7.5,7,long,true,extra\n" + // long
		",,,,\n" +
		"2020-05-01T00:08:00Z,8.5,8,\"quo\"\"ted\",false\n" +
		"2020-05-01T00:09:00Z,9.5,bad,x,true\n" + // bad cell
		"2020-05-01T00:10:00Z,,,,\n"
	lent, err := NewReader(strings.NewReader(input), schema)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewReader(strings.NewReader(input), schema)
	if err != nil {
		t.Fatal(err)
	}
	arrays := map[*stream.Value]bool{}
	for row := 1; ; row++ {
		got, gotErr := lent.Next()
		want, wantErr := fresh.Next()
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("row %d: err %v, want %v", row, gotErr, wantErr)
		}
		if _, ok := stream.AsTupleError(gotErr); gotErr != nil && !ok {
			break // io.EOF
		}
		if gotErr != nil {
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("row %d: recycled %v, fresh %v", row, got, want)
		}
		arrays[&got.Values()[0]] = true
		lent.Recycle(got.Values())
	}
	if len(arrays) != 1 {
		t.Fatalf("the good rows used %d cell arrays, want the one recycled array", len(arrays))
	}
}

// TestRecycleDropsWrongWidth: an array that does not fit the schema is
// not kept.
func TestRecycleDropsWrongWidth(t *testing.T) {
	r, err := NewReader(strings.NewReader("ts,value,count,label,ok\n"), schema)
	if err != nil {
		t.Fatal(err)
	}
	r.Recycle(make([]stream.Value, schema.Len()+1))
	r.Recycle(nil)
	if r.spare != nil {
		t.Fatalf("the reader kept an array of width %d, want none", len(r.spare))
	}
}
