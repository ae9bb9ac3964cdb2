package csvio

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"testing"
	"time"

	"icewafl/internal/stream"
)

// FuzzWriterMatchesEncodingCSV pins Writer to encoding/csv.Writer: over a
// header holding a fuzzed name and rows of string, float, null and time
// cells, the bytes must equal encoding/csv's over the cells' String
// renderings.
func FuzzWriterMatchesEncodingCSV(f *testing.F) {
	for _, s := range []string{"plain", "a,b", `say "hi"`, "cr\rhere", "lf\nhere", "\r\n", " lead", "\tlead",
		"\u00a0nbsp", "\u3000ideographic", `\.`, `\.x`, "", "\xff\xfe", "\xa0", "trail "} {
		f.Add(s, s, 1.5, int64(1_600_000_000), false)
	}
	f.Add("name", "", math.Inf(-1), int64(-62135596800), true)
	f.Add(`\.`, `"`, math.NaN(), int64(0), false)

	f.Fuzz(func(t *testing.T, name, s string, x float64, sec int64, null bool) {
		schema, err := stream.NewSchema("ts",
			stream.Field{Name: "ts", Kind: stream.KindTime},
			stream.Field{Name: name, Kind: stream.KindString},
			stream.Field{Name: "v", Kind: stream.KindFloat},
		)
		if err != nil {
			return
		}
		v := stream.Float(x)
		if null {
			v = stream.Null()
		}
		rows := [][]stream.Value{
			{stream.Time(time.Unix(sec, 0)), stream.Str(s), v},
			{stream.Null(), stream.Str(name), stream.Float(-x)},
			{stream.Time(time.Unix(sec, 0).In(time.FixedZone("", -3600))), stream.Str(""), stream.Null()},
		}
		var got, want bytes.Buffer
		w := NewWriter(&got, schema)
		ref := csv.NewWriter(&want)
		if err := ref.Write(schema.Names()); err != nil {
			t.Fatal(err)
		}
		for _, vals := range rows {
			if err := w.Write(stream.NewTuple(schema, vals)); err != nil {
				t.Fatal(err)
			}
			rec := make([]string, len(vals))
			for i, v := range vals {
				rec[i] = v.String()
			}
			if err := ref.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		ref.Flush()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Writer wrote\n%q\nencoding/csv wrote\n%q", got.Bytes(), want.Bytes())
		}

		// MetaWriter renders the same cells behind its metadata columns.
		got.Reset()
		want.Reset()
		mw := NewMetaWriter(&got, schema)
		mw.IncludeArrival()
		ref = csv.NewWriter(&want)
		if err := ref.Write(append(append(append([]string{}, MetaColumns...), ArrivalColumn), schema.Names()...)); err != nil {
			t.Fatal(err)
		}
		for i, vals := range rows {
			tp := stream.NewTuple(schema, vals)
			tp.ID, tp.SubStream, tp.Arrival = uint64(sec)+uint64(i), int32(int(sec)-i), time.Unix(sec, int64(i)).In(time.FixedZone("", 3600))
			if err := mw.Write(tp); err != nil {
				t.Fatal(err)
			}
			rec := []string{strconv.FormatUint(tp.ID, 10), strconv.Itoa(int(tp.SubStream)), tp.Arrival.UTC().Format(time.RFC3339Nano)}
			for _, v := range vals {
				rec = append(rec, v.String())
			}
			if err := ref.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
		ref.Flush()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("MetaWriter wrote\n%q\nencoding/csv wrote\n%q", got.Bytes(), want.Bytes())
		}
	})
}

func TestWriterWriteAllocFree(t *testing.T) {
	tp := stream.NewTuple(schema, []stream.Value{
		stream.Time(time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)),
		stream.Float(-1.25e-7),
		stream.Int(math.MinInt64),
		stream.Str(`needs "quotes", and a comma`),
		stream.Bool(true),
	})
	w := NewWriter(io.Discard, schema)
	if err := w.Write(tp); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = w.Write(tp) }); n != 0 {
		t.Fatalf("steady-state Write allocates %v times per row", n)
	}
}
