package csvio

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"icewafl/internal/stream"
)

// NewColumnReader survives as a forward to NewReader because bench/
// compiles against it; these tests pin that the forward still validates
// and decodes exactly like NewReader.

func colSchema(t *testing.T) *stream.Schema {
	t.Helper()
	s, err := stream.NewSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "n", Kind: stream.KindInt},
		stream.Field{Name: "cat", Kind: stream.KindString},
		stream.Field{Name: "flag", Kind: stream.KindBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const colCSV = `ts,v,n,cat,flag
2021-06-01T00:00:00Z,1.5,-3,abc,true
2021-06-01T01:00:00Z,NaN,0,,false
,,,"quoted, cell",true
2021-06-01T03:00:00Z,not-a-float,2,b,false
2021-06-01T03:00:00Z,-0,9223372036854775807,Ωλ,false
2021-06-01T04:00:00Z,1e308,-9223372036854775808,x,true
`

func renderCells(t stream.Tuple) string {
	var b strings.Builder
	for i := 0; i < t.Len(); i++ {
		fmt.Fprintf(&b, "%d:%s|", t.At(i).Kind(), t.At(i).String())
	}
	return b.String()
}

// TestColumnReaderNextEquivalence drains the same document, one
// malformed cell included, through NewReader and NewColumnReader and
// compares every cell's kind and textual form and every error's text.
func TestColumnReaderNextEquivalence(t *testing.T) {
	schema := colSchema(t)
	tr, _ := NewReader(strings.NewReader(colCSV), schema)
	cr, err := NewColumnReader(strings.NewReader(colCSV), schema)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := 0; ; i++ {
		wt, werr := tr.Next()
		gt, gerr := cr.Next()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("row %d: err %v vs %v", i, werr, gerr)
		}
		if werr != nil {
			if werr == io.EOF {
				break
			}
			if werr.Error() != gerr.Error() {
				t.Fatalf("row %d: error text diverged: %q vs %q", i, werr, gerr)
			}
			errs++
			continue
		}
		if renderCells(gt) != renderCells(wt) {
			t.Fatalf("row %d diverged\ncolumn reader: %s\nreader:        %s", i, renderCells(gt), renderCells(wt))
		}
	}
	if errs != 1 {
		t.Fatalf("saw %d row errors, want the one malformed cell", errs)
	}
}

// TestColumnReaderHeaderValidation pins NewReader's header check on the
// forward.
func TestColumnReaderHeaderValidation(t *testing.T) {
	schema := colSchema(t)
	if _, err := NewColumnReader(strings.NewReader("ts,v,n,WRONG,flag\n"), schema); err == nil {
		t.Fatal("mismatched header accepted")
	}
	if _, err := NewColumnReader(strings.NewReader(""), schema); err == nil {
		t.Fatal("empty document accepted")
	}
}
