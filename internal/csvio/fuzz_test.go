package csvio

import (
	"io"
	"strings"
	"testing"

	"icewafl/internal/stream"
)

// quarantineSeeds are CSV bodies under quarantineSchema's header, most
// of them malformed.
var quarantineSeeds = []string{
	"2020-01-01T00:00:00Z,1.5,a\n2020-01-01T01:00:00Z,2.5,b\n",
	"not-a-time,1,a\n2020-01-01T00:00:00Z,2,b\n",
	"2020-01-01T00:00:00Z,NaN,x\n",
	"\"unterminated,1,a\n",
	"too,few\n",
	"a,b,c,d,e\n",
	",,\n,,\n",
	"2020-01-01T00:00:00Z,\x00,a\n",
	strings.Repeat("garbage\n", 20),
}

var quarantineSchema = stream.MustSchema("ts",
	stream.Field{Name: "ts", Kind: stream.KindTime},
	stream.Field{Name: "v", Kind: stream.KindFloat},
	stream.Field{Name: "tag", Kind: stream.KindString},
)

// FuzzQuarantine feeds arbitrary (usually malformed) CSV bodies through a
// quarantined reader and checks the fault-tolerance invariants:
//
//   - the pipeline never panics,
//   - every row is either delivered or dead-lettered (none vanish),
//   - a fatal error only ever ends the stream (no tuples after it), and
//   - the reader stays row-resumable: a malformed row must not make
//     subsequent valid rows unreadable.
func FuzzQuarantine(f *testing.F) {
	for _, body := range quarantineSeeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		schema := quarantineSchema
		input := "ts,v,tag\n" + body
		r, err := NewReader(strings.NewReader(input), schema)
		if err != nil {
			// Header rejected (e.g. the body glued onto the header line
			// made it invalid) — fine, nothing to quarantine.
			return
		}
		q := stream.NewDeadLetterQueue()
		src := stream.Quarantine(r, q, 0)
		delivered := 0
		for {
			tp, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				// Fatal: the stream must stay ended.
				if _, err2 := src.Next(); err2 == nil {
					t.Fatal("tuple delivered after fatal error")
				}
				return
			}
			if tp.Schema() != schema {
				t.Fatal("delivered tuple with wrong schema")
			}
			if tp.Len() != schema.Len() {
				t.Fatalf("tuple has %d values, schema %d", tp.Len(), schema.Len())
			}
			delivered++
		}
		// Sanity: deliveries plus dead letters never exceed the physical
		// line count of the input (multi-line quoted fields can make it
		// smaller, never larger).
		lines := strings.Count(body, "\n") + 1
		if delivered+q.Len() > lines {
			t.Fatalf("delivered %d + quarantined %d > %d input lines", delivered, q.Len(), lines)
		}
	})
}

// TestQuarantinedReaderSkipsMalformedRows is the deterministic companion
// of FuzzQuarantine.
func TestQuarantinedReaderSkipsMalformedRows(t *testing.T) {
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
	)
	input := "ts,v\n" +
		"2020-01-01T00:00:00Z,1\n" +
		"BROKEN,2\n" + // bad timestamp
		"2020-01-01T02:00:00Z,not-a-number\n" + // bad float
		"2020-01-01T03:00:00Z,3,extra\n" + // wrong field count
		"2020-01-01T04:00:00Z,4\n"
	r, err := NewReader(strings.NewReader(input), schema)
	if err != nil {
		t.Fatal(err)
	}
	q := stream.NewDeadLetterQueue()
	tuples, err := stream.Drain(stream.Quarantine(r, q, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Errorf("delivered %d tuples, want 2", len(tuples))
	}
	if q.Len() != 3 {
		t.Errorf("quarantined %d rows, want 3", q.Len())
	}
	for _, d := range q.Letters() {
		if d.Stage != "csv-decode" {
			t.Errorf("stage = %q", d.Stage)
		}
		if d.Offset == 0 {
			t.Error("dead letter lost its row offset")
		}
	}
}

// canonicalSeeds are cell texts of every kind: canonical ones, and
// spellings a parser accepts that Writer would not write back.
var canonicalSeeds = []string{
	"", "54.8", "-0.4", "1015.5", "0", "-0", "0.0001", "100000", "7", "-12", "true", "false", "s0", "sensör-1",
	"2021-06-01T12:34:56Z", "2021-06-01T12:34:56.5+05:30", "2021-06-01T12:34:56.123456789-08:00",
	"1.50", "+5", "007", "0.0", "1e3", ".5", "0.00001", "1000000", "TRUE", "t", "1",
	"2021-06-01T12:34:56+00:00", "2021-06-01T12:34:56-00:00", "2021-06-01T12:34:56.500Z",
	"2021-06-01T12:34:56,5Z", "2021-06-01T12:34:56.1234567891Z", "2021-06-01T1:34:56Z",
	"0000-01-01T01:00:00+00:60", "2021-06-01T12:34:56+24:00",
	" lead", `\.`, "a\rb", `"`,
}

// lentCell reads s as the cell of kind after a time cell in two rows,
// through a reader whose first row is handed back, so the second row
// carries its text. It returns the second row as Writer writes it from
// the row's text and from the values alone, and whether s was copied;
// ok is false when s is no cell of kind.
func lentCell(t testing.TB, s string, kind stream.Kind) (copied, formatted string, fromText, ok bool) {
	t.Helper()
	two := stream.MustSchema("ts", stream.Field{Name: "ts", Kind: stream.KindTime}, stream.Field{Name: "c", Kind: kind})
	row := "2021-06-01T00:00:00Z," + s + "\n"
	r, err := NewReader(strings.NewReader("ts,c\n"+row+row), two)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Next()
	if err != nil {
		return "", "", false, false
	}
	r.Recycle(first.Values(), first.Text())
	tp, err := r.Next()
	if err != nil {
		return "", "", false, false
	}
	line, parsed := tp.Text().Line(2)
	return string(appendCells(nil, tp.Values(), tp.Text())), string(appendCells(nil, tp.Values(), nil)),
		line != nil && tp.At(1) == parsed[1], true
}

// FuzzCanonicalCellText: a cell Writer copies from a recycled row's text
// has the bytes Writer formats from its value, and it is copied only
// where those bytes are the cell's own, for every kind: the parser's
// canonical flag and the CSV quoting rule together.
func FuzzCanonicalCellText(f *testing.F) {
	for _, s := range canonicalSeeds {
		f.Add(s)
	}
	kinds := []stream.Kind{stream.KindNull, stream.KindFloat, stream.KindInt, stream.KindString, stream.KindBool, stream.KindTime}
	f.Fuzz(func(t *testing.T, s string) {
		// The row's cell is s itself only in a line of its own, unquoted.
		plain := !strings.ContainsAny(s, "\n\",") && !strings.HasSuffix(s, "\r")
		for _, kind := range kinds {
			copied, formatted, fromText, ok := lentCell(t, s, kind)
			if ok && copied != formatted {
				t.Fatalf("%q as %v: Writer copies %q from the text, formats %q", s, kind, copied, formatted)
			}
			if plain && fromText && formatted != "2021-06-01T00:00:00Z,"+s {
				t.Fatalf("%q as %v is copied, but Writer formats it as %q", s, kind, formatted)
			}
		}
	})
}
