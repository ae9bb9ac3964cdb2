package csvio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"icewafl/internal/stream"
)

// readerSeeds add to quarantineSeeds the record shapes encoding/csv
// treats specially.
var readerSeeds = []string{
	"a,b,c\r\nd,e,f\r\n",               // CRLF
	"a,b,c\r\n\r\n\n\nd,e,f\r",         // blank lines, a CR before EOF
	"a,\"multi\nline\",c\nd,e,f\n",     // a quoted field across lines
	"a,\"multi\r\n\r\nline\"\"s\",c\n", // CRLF and a doubled quote inside it
	"a,b\"c,d\nx,y,z\n",                // bare quote
	"a,\"b\"c,d\nx,y,z\n",              // extraneous quote
	"a,b,\"never closed\nx,y,z\n",      // EOF in a quoted field
	"a,b,\"never closed",               // EOF in a quoted field, no newline
	"a,\"\",\"\"\"\"\n\"\",,\n",        // empty and all-quote fields
	"a,\"b\nc\"d,e\nx,y,z\n",           // extraneous quote on a continuation line
	"\"a\"\r,b,c\n",                    // CR after a closing quote
	"a,b,c",                            // no final newline
	"\n\n",                             // nothing but blank lines
	"a,b,\"c\"\n",                      // quoted last field
	"a,b,c,\nx,y,z,,\n",                // trailing commas
	" a, \"b\",c\n",                    // a space before a quote is a bare quote
	"\xff,\"\xfe\",c\n",                // invalid UTF-8
	"2020-01-01T00:00:00+05:30,1,a\n",  // an offset stamp
	"a,b," + strings.Repeat("c", 5000) + "\n" + strings.Repeat("x", 4095) + ",\"y\n" + strings.Repeat("z", 9000) + "\",q\n",
}

// checkRecordsMatch reads input record by record with a recordReader
// and with encoding/csv at FieldsPerRecord want (0: unchecked) and fails
// on the first difference in fields, error kind or position, or in
// where the next record starts.
func checkRecordsMatch(t *testing.T, input string, want int) {
	t.Helper()
	ref := csv.NewReader(strings.NewReader(input))
	ref.FieldsPerRecord = want
	if want == 0 {
		ref.FieldsPerRecord = -1
	}
	rr := newRecordReader(strings.NewReader(input), want)
	for n := 1; ; n++ {
		wrec, werr := ref.Read()
		grec, gerr := rr.readStrings()
		if werr == io.EOF || gerr == io.EOF {
			if werr != gerr {
				t.Fatalf("%q record %d: error %v, encoding/csv %v", input, n, gerr, werr)
			}
			return
		}
		var wpe *csv.ParseError
		var gpe *parseError
		switch {
		case werr == nil && gerr == nil:
		case errors.As(werr, &wpe) && errors.As(gerr, &gpe):
			if gpe.StartLine != wpe.StartLine || gpe.Line != wpe.Line || gpe.Column != wpe.Column ||
				gpe.Err.Error() != wpe.Err.Error() || gerr.Error() != werr.Error() {
				t.Fatalf("%q record %d: error %+v, encoding/csv %+v", input, n, gpe, wpe)
			}
		default:
			t.Fatalf("%q record %d: error %v, encoding/csv %v", input, n, gerr, werr)
		}
		if (werr == nil || errors.Is(werr, csv.ErrFieldCount)) && strings.Join(grec, "\x00|") != strings.Join(wrec, "\x00|") {
			t.Fatalf("%q record %d: %q, encoding/csv %q", input, n, grec, wrec)
		}
	}
}

// refOutcomes is what the encoding/csv-backed Reader returned for
// input, call by call: a tuple's cells, or the error's text and, for a
// row error, its offset.
func refOutcomes(input string, schema *stream.Schema) []string {
	cr := csv.NewReader(strings.NewReader(input))
	cr.FieldsPerRecord = schema.Len()
	cr.ReuseRecord = true
	if _, err := cr.Read(); err != nil {
		return []string{"header: " + err.Error()}
	}
	var out []string
	for row := 1; ; {
		rec, err := cr.Read()
		if err == io.EOF {
			return out
		}
		row++
		if err != nil {
			out = append(out, fmt.Sprintf("row %d: csvio: row %d: %v", row, row, err))
			continue
		}
		values := make([]stream.Value, schema.Len())
		for i := range values {
			if values[i], err = stream.ParseValue(rec[i], schema.Field(i).Kind); err != nil {
				err = fmt.Errorf("csvio: row %d column %q: %w", row, schema.Field(i).Name, err)
				break
			}
		}
		if err != nil {
			out = append(out, fmt.Sprintf("row %d: %v", row, err))
			continue
		}
		out = append(out, fmt.Sprintf("%#v", values))
	}
}

// outcomes is refOutcomes for Reader.
func outcomes(input string, schema *stream.Schema) []string {
	r, err := NewReader(strings.NewReader(input), schema)
	if err != nil {
		return []string{"header: " + strings.TrimPrefix(err.Error(), "csvio: read header: ")}
	}
	var out []string
	for {
		tp, err := r.Next()
		if err == io.EOF {
			return out
		}
		var te *stream.TupleError
		if !errors.As(err, &te) {
			if err != nil {
				return append(out, "fatal: "+err.Error())
			}
			out = append(out, fmt.Sprintf("%#v", tp.Values()))
			continue
		}
		out = append(out, fmt.Sprintf("row %d: %v", te.Offset, te.Err))
	}
}

// FuzzReaderMatchesEncodingCSV pins the record reader to encoding/csv:
// record by record, the same fields, the same error at the same
// position, and the same next record; and Reader's tuples and row
// errors to those of a Reader built on encoding/csv.
func FuzzReaderMatchesEncodingCSV(f *testing.F) {
	for _, body := range append(append([]string{}, quarantineSeeds...), readerSeeds...) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		for _, want := range []int{0, 3} {
			checkRecordsMatch(t, body, want)
		}
		input := "ts,v,tag\n" + body
		got, want := outcomes(input, quarantineSchema), refOutcomes(input, quarantineSchema)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%q:\nReader:       %q\nencoding/csv: %q", input, got, want)
		}
	})
}

// TestReaderMatchesEncodingCSV runs the fuzz target's seeds, also behind
// a header longer than the read buffer.
func TestReaderMatchesEncodingCSV(t *testing.T) {
	for _, body := range append(append([]string{}, quarantineSeeds...), readerSeeds...) {
		for _, want := range []int{0, 3} {
			checkRecordsMatch(t, body, want)
			checkRecordsMatch(t, strings.Repeat("h", 5000)+",\"\n\",x\n"+body, want)
		}
		input := "ts,v,tag\n" + body
		got, want := outcomes(input, quarantineSchema), refOutcomes(input, quarantineSchema)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%q:\nReader:       %q\nencoding/csv: %q", input, got, want)
		}
	}
}

// TestReaderNextAllocs: a row of numeric and time cells allocates its
// cell array and nothing else, and nothing at all once the consumer
// hands each row back, whether the row keeps its text or, quoted, does
// not.
func TestReaderNextAllocs(t *testing.T) {
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "n", Kind: stream.KindInt},
		stream.Field{Name: "ok", Kind: stream.KindBool},
		stream.Field{Name: "local", Kind: stream.KindTime},
	)
	const rows = 2000
	var b strings.Builder
	b.WriteString("ts,v,n,ok,local\r\n")
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := range rows {
		local := start.Add(time.Duration(i) * time.Second).In(time.FixedZone("", 19800)).Format(time.RFC3339)
		if i%2 == 0 {
			local = `"` + local + `"`
		}
		fmt.Fprintf(&b, "%s,%g,%d,%t,%s\r\n", start.Add(time.Duration(i)*time.Minute).Format(time.RFC3339),
			float64(i)/8, -i, i%2 == 0, local)
	}
	for _, recycle := range []bool{false, true} {
		t.Run(fmt.Sprintf("recycle=%v", recycle), func(t *testing.T) {
			r, err := NewReader(strings.NewReader(b.String()), schema)
			if err != nil {
				t.Fatal(err)
			}
			want := 1.0
			if recycle {
				want = 0
			}
			if n := testing.AllocsPerRun(rows-1, func() {
				tp, err := r.Next()
				if err != nil {
					t.Fatal(err)
				}
				if recycle {
					r.Recycle(tp.Values(), tp.Text())
				}
			}); n != want {
				t.Fatalf("Next allocates %v times per row, want %v", n, want)
			}
		})
	}
}
