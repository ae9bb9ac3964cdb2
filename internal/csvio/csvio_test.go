package csvio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"

	"icewafl/internal/stream"
)

var schema = stream.MustSchema("ts",
	stream.Field{Name: "ts", Kind: stream.KindTime},
	stream.Field{Name: "value", Kind: stream.KindFloat},
	stream.Field{Name: "count", Kind: stream.KindInt},
	stream.Field{Name: "label", Kind: stream.KindString},
	stream.Field{Name: "ok", Kind: stream.KindBool},
)

func sample() []stream.Tuple {
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	var out []stream.Tuple
	for i := 0; i < 5; i++ {
		out = append(out, stream.NewTuple(schema, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Minute)),
			stream.Float(float64(i) + 0.5),
			stream.Int(int64(i * 10)),
			stream.Str("row"),
			stream.Bool(i%2 == 0),
		}))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	tuples := sample()
	var buf bytes.Buffer
	if err := WriteAll(&buf, schema, tuples); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tuples) {
		t.Fatalf("%d tuples back", len(back))
	}
	for i := range back {
		if !back[i].Equal(tuples[i]) {
			t.Fatalf("tuple %d changed: %v vs %v", i, back[i], tuples[i])
		}
	}
}

func TestNullRoundTrip(t *testing.T) {
	tuples := sample()
	tuples[2].Set("value", stream.Null())
	tuples[3].Set("label", stream.Null())
	var buf bytes.Buffer
	if err := WriteAll(&buf, schema, tuples); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !back[2].MustGet("value").IsNull() {
		t.Fatal("null float did not round-trip")
	}
	if !back[3].MustGet("label").IsNull() {
		t.Fatal("null string did not round-trip")
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := NewReader(strings.NewReader("wrong,header,row,x,y\n"), schema); err == nil {
		t.Fatal("wrong header accepted")
	}
	if _, err := NewReader(strings.NewReader(""), schema); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestBadCell(t *testing.T) {
	input := "ts,value,count,label,ok\n2020-05-01T00:00:00Z,notafloat,1,x,true\n"
	r, err := NewReader(strings.NewReader(input), schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("bad float cell accepted")
	}
}

func TestWrongColumnCount(t *testing.T) {
	input := "ts,value,count,label,ok\n2020-05-01T00:00:00Z,1.5\n"
	r, err := NewReader(strings.NewReader(input), schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("short row accepted")
	}
}

// failingReader serves prefix, then fails every later Read with err
// until abort is closed, when it reports io.EOF.
type failingReader struct {
	prefix *strings.Reader
	err    error
	abort  chan struct{}
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.prefix.Len() > 0 {
		return f.prefix.Read(p)
	}
	select {
	case <-f.abort:
		return 0, io.EOF
	default:
		return 0, f.err
	}
}

// TestReadErrorIsFatal: a failing underlying reader is not a malformed
// row. Under quarantine with no cap the run must end with the read
// error, not quarantine it forever.
func TestReadErrorIsFatal(t *testing.T) {
	errDisk := errors.New("disk read failed")
	fr := &failingReader{
		prefix: strings.NewReader("ts,value,count,label,ok\n2020-05-01T00:00:00Z,1.5,1,x,true\n"),
		err:    errDisk,
		abort:  make(chan struct{}),
	}
	r, err := NewReader(fr, schema)
	if err != nil {
		t.Fatal(err)
	}
	q := stream.NewDeadLetterQueue()
	done := make(chan error, 1)
	go func() {
		_, err := stream.Drain(stream.Quarantine(r, q, 0))
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		close(fr.abort)
		<-done
		t.Fatalf("quarantine kept running on a failing reader: %d dead letters", q.Len())
	}
	if _, isTuple := stream.AsTupleError(err); !errors.Is(err, errDisk) || isTuple {
		t.Fatalf("Drain = %v, want the read error, not a tuple error", err)
	}
	if q.Len() != 0 {
		t.Errorf("quarantined %d read failures", q.Len())
	}
}

func TestEmptyStreamWritesHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, schema, nil); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(buf.String())
	if got != "ts,value,count,label,ok" {
		t.Fatalf("header %q", got)
	}
	back, err := ReadAll(strings.NewReader(buf.String()), schema)
	if err != nil || len(back) != 0 {
		t.Fatalf("empty round trip: %d tuples, %v", len(back), err)
	}
}

func TestReaderAsSource(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, schema, sample()); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema().Equal(schema) {
		t.Fatal("schema mismatch")
	}
	// Drains like any other source.
	got, err := stream.Drain(r)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tp := range got {
		if v, _ := tp.MustGet("count").AsFloat(); v >= 20 {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("%d tuples with count >= 20, want 3", n)
	}
}

func TestQuotedStrings(t *testing.T) {
	tuples := sample()
	tuples[0].Set("label", stream.Str("has,comma"))
	tuples[1].Set("label", stream.Str("has\"quote"))
	var buf bytes.Buffer
	if err := WriteAll(&buf, schema, tuples); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := back[0].MustGet("label").AsString(); got != "has,comma" {
		t.Fatalf("comma: %q", got)
	}
	if got, _ := back[1].MustGet("label").AsString(); got != "has\"quote" {
		t.Fatalf("quote: %q", got)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	tuples := sample()
	for i := range tuples {
		tuples[i].ID = uint64(100 + i)
		tuples[i].SubStream = int32(i % 2)
	}
	var buf bytes.Buffer
	if err := WriteAllMeta(&buf, schema, tuples); err != nil {
		t.Fatal(err)
	}
	// Header carries the meta columns.
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasPrefix(header, "_id,_substream,ts,") {
		t.Fatalf("meta header %q", header)
	}
	r, err := NewMetaReader(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	back, err := stream.Drain(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tuples) {
		t.Fatalf("%d tuples back", len(back))
	}
	for i := range back {
		if back[i].ID != tuples[i].ID || back[i].SubStream != tuples[i].SubStream {
			t.Fatalf("metadata lost at %d: %+v", i, back[i])
		}
		if !back[i].Equal(tuples[i]) {
			t.Fatalf("values changed at %d", i)
		}
		ts, _ := back[i].Timestamp()
		if !back[i].EventTime.Equal(ts) {
			t.Fatalf("event time not rederived at %d", i)
		}
	}
}

// TestMetaArrivalRoundTrip: with IncludeArrival the delivery timestamp
// survives the round trip exactly — a delayed tuple's arrival is NOT
// its event time, and without the column the reader would erase the
// delay by re-deriving arrival from the timestamp attribute.
func TestMetaArrivalRoundTrip(t *testing.T) {
	tuples := sample()
	for i := range tuples {
		tuples[i].ID = uint64(1 + i)
		ts, _ := tuples[i].Timestamp()
		tuples[i].EventTime = ts
		tuples[i].Arrival = ts
	}
	// Tuple 2 is delayed: it arrives 90 minutes after its event time.
	tuples[2].Arrival = tuples[2].EventTime.Add(90 * time.Minute)

	var buf bytes.Buffer
	w := NewMetaWriter(&buf, schema)
	w.IncludeArrival()
	for _, tp := range tuples {
		if err := w.Write(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasPrefix(header, "_id,_substream,_arrival,ts,") {
		t.Fatalf("meta header %q", header)
	}
	r, err := NewMetaReader(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	back, err := stream.Drain(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if !back[i].Arrival.Equal(tuples[i].Arrival) {
			t.Fatalf("arrival lost at %d: %v vs %v", i, back[i].Arrival, tuples[i].Arrival)
		}
		if !back[i].EventTime.Equal(tuples[i].EventTime) {
			t.Fatalf("event time changed at %d", i)
		}
	}
	if back[2].Arrival.Equal(back[2].EventTime) {
		t.Fatal("the delayed tuple's delay was erased")
	}

	// Without the column, arrival is re-derived from the timestamp —
	// the delay is (by design) not representable.
	var plain bytes.Buffer
	if err := WriteAllMeta(&plain, schema, tuples); err != nil {
		t.Fatal(err)
	}
	r2, err := NewMetaReader(&plain, schema)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := stream.Drain(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !back2[2].Arrival.Equal(back2[2].EventTime) {
		t.Fatal("arrival not re-derived without _arrival column")
	}
}

func TestMetaReaderErrors(t *testing.T) {
	if _, err := NewMetaReader(strings.NewReader("wrong,header\n"), schema); err == nil {
		t.Fatal("bad meta header accepted")
	}
	// Plain CSV header (no meta columns) rejected.
	var buf bytes.Buffer
	if err := WriteAll(&buf, schema, sample()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMetaReader(&buf, schema); err == nil {
		t.Fatal("plain header accepted as meta")
	}
	// Bad _id cell.
	bad := "_id,_substream,ts,value,count,label,ok\nnope,0,2020-05-01T00:00:00Z,1,1,x,true\n"
	r, err := NewMetaReader(strings.NewReader(bad), schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("bad _id accepted")
	}
	// Bad _substream cell.
	bad2 := "_id,_substream,ts,value,count,label,ok\n1,x,2020-05-01T00:00:00Z,1,1,x,true\n"
	r2, err := NewMetaReader(strings.NewReader(bad2), schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Next(); err == nil {
		t.Fatal("bad _substream accepted")
	}
	// Bad _arrival cell.
	bad3 := "_id,_substream,_arrival,ts,value,count,label,ok\n1,0,yesterday,2020-05-01T00:00:00Z,1,1,x,true\n"
	r3, err := NewMetaReader(strings.NewReader(bad3), schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r3.Next(); err == nil {
		t.Fatal("bad _arrival accepted")
	}
}

// Property: any tuple whose values come from the supported kinds
// round-trips through CSV byte-identically.
func TestRoundTripProperty(t *testing.T) {
	prop := func(f float64, i int64, s string, b bool, sec int64) bool {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
		if !utf8.ValidString(s) || strings.ContainsAny(s, "\r\n") || strings.Contains(s, "\x00") {
			return true // CSV cannot carry these losslessly in one cell
		}
		ts := time.Unix(sec%4102444800, 0).UTC()
		if ts.Year() < 0 || ts.Year() > 9999 {
			return true
		}
		tp := stream.NewTuple(schema, []stream.Value{
			stream.Time(ts), stream.Float(f), stream.Int(i), stream.Str(s), stream.Bool(b),
		})
		var buf bytes.Buffer
		if err := WriteAll(&buf, schema, []stream.Tuple{tp}); err != nil {
			return false
		}
		back, err := ReadAll(&buf, schema)
		if err != nil || len(back) != 1 {
			return false
		}
		// The empty string decodes as NULL by design; everything else
		// must round-trip exactly.
		if s == "" {
			v, _ := back[0].Get("label")
			return v.IsNull()
		}
		return back[0].Equal(tp)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
