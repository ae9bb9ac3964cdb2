package csvio

import (
	"fmt"
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
		lent.Recycle(got.Values(), got.Text())
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
	r.Recycle(make([]stream.Value, schema.Len()+1), nil)
	r.Recycle(nil, nil)
	if r.spare != nil {
		t.Fatalf("the reader kept an array of width %d, want none", len(r.spare))
	}
}

// TestCanonicalCellsAreCopied pins which cells Writer copies from a
// recycled row's text: those spelled as Writer writes the value, and no
// other spelling.
func TestCanonicalCellsAreCopied(t *testing.T) {
	const ts = "2021-06-01T12:34:56"
	for _, c := range []struct {
		text string
		kind stream.Kind
		want bool
	}{
		{"54.8", stream.KindFloat, true}, {"-0.4", stream.KindFloat, true}, {"-0", stream.KindFloat, true},
		{"0.0001", stream.KindFloat, true}, {"100000", stream.KindFloat, true},
		{"1.50", stream.KindFloat, false}, {"+5", stream.KindFloat, false}, {"007", stream.KindFloat, false},
		{"0.0", stream.KindFloat, false}, {"1e3", stream.KindFloat, false}, {".5", stream.KindFloat, false},
		{"0.00001", stream.KindFloat, false}, {"1000000", stream.KindFloat, false},
		{"7", stream.KindInt, true}, {"-12", stream.KindInt, true}, {"0", stream.KindInt, true},
		{"+5", stream.KindInt, false}, {"007", stream.KindInt, false}, {"-0", stream.KindInt, false},
		{"true", stream.KindBool, true}, {"false", stream.KindBool, true},
		{"TRUE", stream.KindBool, false}, {"t", stream.KindBool, false}, {"1", stream.KindBool, false},
		{ts + "Z", stream.KindTime, true}, {ts + ".5+05:30", stream.KindTime, true}, {ts + ".123456789-08:00", stream.KindTime, true},
		{ts + "+00:00", stream.KindTime, false}, {ts + ".500Z", stream.KindTime, false}, {ts + ".1234567891Z", stream.KindTime, false}, {ts + "-00:00", stream.KindTime, false},
		{"s0", stream.KindString, true}, {"sensör-1", stream.KindString, true},
		{" lead", stream.KindString, false}, {`\.`, stream.KindString, false}, {"a\rb", stream.KindString, false},
		{"x", stream.KindNull, false},
	} {
		if _, _, got, ok := lentCell(t, c.text, c.kind); !ok || got != c.want {
			t.Errorf("%q as %v: copied %v (read %v), want %v", c.text, c.kind, got, ok, c.want)
		}
	}
}

// TestReaderLendsText: a row read into an array that came back carries
// its line, and every cell that still holds its parsed, canonical value
// is copied from it. A row in a fresh array has no Text; a quoted row
// keeps its array's Text but copies nothing; a changed or non-canonical
// cell is formatted, at the start, inside and at the end of a row.
func TestReaderLendsText(t *testing.T) {
	input := "ts,value,count,label,ok\n" +
		"2020-05-01T00:00:00Z,1.5,1,a,true\n" +
		"2020-05-01T00:01:00Z,2.5,2,b,false\n" +
		"2020-05-01T00:02:00Z,3.5,3,\"c\",true\n" +
		"2020-05-01T00:03:00Z,4.50,+4,d,true\n"
	r, err := NewReader(strings.NewReader(input), schema)
	if err != nil {
		t.Fatal(err)
	}
	next := func() stream.Tuple {
		t.Helper()
		tp, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	// check asserts which cells Writer copies (c) or formats (f), and
	// what it writes.
	check := func(tp stream.Tuple, copies, row string) {
		t.Helper()
		line, parsed := tp.Text().Line(tp.Len())
		got := ""
		for i, v := range tp.Values() {
			if line != nil && v == parsed[i] {
				got += "c"
			} else {
				got += "f"
			}
		}
		if written := string(appendCells(nil, tp.Values(), tp.Text())); got != copies || written != row {
			t.Fatalf("copies %s and writes %q, want %s and %q", got, written, copies, row)
		}
	}

	first := next()
	if first.Text() != nil {
		t.Fatal("a row in a fresh array carries a Text")
	}
	r.Recycle(first.Values(), first.Text())
	second := next()
	text := second.Text()
	check(second, "ccccc", "2020-05-01T00:01:00Z,2.5,2,b,false")
	second.SetAt(1, stream.Float(9))
	check(second, "cfccc", "2020-05-01T00:01:00Z,9,2,b,false")
	second.SetAt(4, stream.Bool(true))
	check(second, "cfccf", "2020-05-01T00:01:00Z,9,2,b,true")
	second.SetAt(0, stream.Null())
	second.SetAt(3, stream.Str("x,y"))
	check(second, "ffcff", `,9,2,"x,y",true`)
	if second.Clone().Text() != nil {
		t.Fatal("a clone keeps the Text")
	}

	r.Recycle(second.Values(), second.Text())
	third := next()
	if third.Text() != text {
		t.Fatal("the Text did not come back with its array")
	}
	check(third, "fffff", "2020-05-01T00:02:00Z,3.5,3,c,true")
	r.Recycle(third.Values(), third.Text())
	check(next(), "cffcc", "2020-05-01T00:03:00Z,4.5,4,d,true")
}

// TestWideRowsGetNoText: a row of more than 64 cells, past the reader's
// one bit per non-canonical field, gets no text and is formatted whole,
// so a non-canonical spelling in its 65th field is still rewritten.
func TestWideRowsGetNoText(t *testing.T) {
	fields := make([]stream.Field, 65)
	names, cells := make([]string, 65), make([]string, 65)
	for i := range fields {
		fields[i] = stream.Field{Name: fmt.Sprintf("c%d", i), Kind: stream.KindFloat}
		names[i], cells[i] = fields[i].Name, "1.5"
	}
	fields[0].Kind, cells[0], cells[64] = stream.KindInt, "7", "1.50"
	row := strings.Join(cells, ",") + "\n"
	r, err := NewReader(strings.NewReader(strings.Join(names, ",")+"\n"+row+row), stream.MustSchema("c0", fields...))
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	r.Recycle(first.Values(), first.Text())
	second, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if want, got := "7,"+strings.Repeat("1.5,", 63)+"1.5", string(appendCells(nil, second.Values(), second.Text())); got != want || second.Text() != nil {
		t.Fatalf("a 65-cell row with text %v writes %q, want %q", second.Text() != nil, got, want)
	}
}
