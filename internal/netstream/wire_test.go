package netstream

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"icewafl/internal/stream"
)

func wireSchema(t *testing.T) *stream.Schema {
	t.Helper()
	return stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "sensor", Kind: stream.KindString},
	)
}

// TestTupleRoundTrip checks that a tuple survives the wire encoding
// exactly: IDs, substream, timestamps with nanoseconds, and every
// attribute value (including NULL).
func TestTupleRoundTrip(t *testing.T) {
	schema := wireSchema(t)
	in := stream.NewTuple(schema, []stream.Value{
		stream.Time(time.Date(2021, 6, 1, 12, 0, 0, 987654321, time.UTC)),
		stream.Float(3.14159),
		stream.Null(),
	})
	in.ID = 42
	in.SubStream = 3
	in.EventTime = time.Date(2021, 6, 1, 12, 0, 0, 987654321, time.UTC)
	in.Arrival = in.EventTime.Add(17 * time.Millisecond)

	out, err := DecodeTuple(EncodeTuple(in), schema)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.SubStream != in.SubStream {
		t.Errorf("identity changed: got (%d,%d), want (%d,%d)", out.ID, out.SubStream, in.ID, in.SubStream)
	}
	if !out.EventTime.Equal(in.EventTime) || !out.Arrival.Equal(in.Arrival) {
		t.Errorf("timestamps changed: got (%v,%v), want (%v,%v)", out.EventTime, out.Arrival, in.EventTime, in.Arrival)
	}
	for i := 0; i < schema.Len(); i++ {
		if got, want := out.At(i).String(), in.At(i).String(); got != want {
			t.Errorf("attr %d: got %q, want %q", i, got, want)
		}
	}
}

// TestDecodeTupleMismatch rejects tuples whose arity disagrees with the
// schema.
func TestDecodeTupleMismatch(t *testing.T) {
	schema := wireSchema(t)
	wt := &WireTuple{ID: 1, Event: "2021-06-01T00:00:00Z", Arrival: "2021-06-01T00:00:00Z", Values: []string{"x"}}
	if _, err := DecodeTuple(wt, schema); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := DecodeTuple(nil, schema); err == nil {
		t.Fatal("expected nil payload error")
	}
}

// TestSchemaDocumentRoundTrip checks the hello-frame schema encoding.
func TestSchemaDocumentRoundTrip(t *testing.T) {
	schema := wireSchema(t)
	out, err := SchemaFromDocument(SchemaDocument(schema))
	if err != nil {
		t.Fatal(err)
	}
	if !sameSchema(schema, out) {
		t.Errorf("schema changed over the wire: %v vs %v", schema, out)
	}
	if _, err := SchemaFromDocument(nil); err == nil {
		t.Fatal("expected error for missing schema")
	}
}

// TestFrameIO round-trips length-prefixed frames and enforces the size
// limit in both directions.
func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte(`{"type":"hello"}`), {}, []byte(strings.Repeat("x", 1000))}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame changed: got %q, want %q", got, want)
		}
	}

	if err := WriteFrame(&buf, make([]byte, MaxFrameBytes+1)); err == nil {
		t.Fatal("expected oversized write to fail")
	}
	var hdr bytes.Buffer
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&hdr); err == nil {
		t.Fatal("expected hostile length prefix to fail")
	}
}

// TestParsePolicy covers the configuration spellings and their String
// round-trip.
func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{
		{"", PolicyBlock},
		{"block", PolicyBlock},
		{"drop-oldest", PolicyDropOldest},
		{"disconnect-slow", PolicyDisconnectSlow},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// frameJSON is the HTTP edge's JSON rendering of a frame payload.
func frameJSON(t testing.TB, payload []byte) []byte {
	t.Helper()
	f, err := DecodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The reference renderings of the views, as the JSON build computed
// them (strings formatted straight off the tuple, no binary in between):
// what the tests hold EncodeTuple, EncodeColumnBatch, the binary encoders
// and the HTTP edge to.

// jsonBuildTuple is the JSON build's EncodeTuple.
func jsonBuildTuple(t stream.Tuple) *WireTuple {
	wt := &WireTuple{
		ID:      t.ID,
		Sub:     int(t.SubStream),
		Event:   t.EventTime.UTC().Format(wireTime),
		Arrival: t.Arrival.UTC().Format(wireTime),
		Values:  make([]string, t.Len()),
	}
	for i := 0; i < t.Len(); i++ {
		wt.Values[i] = t.At(i).String()
	}
	return wt
}

// NewWireColumnBatch returns an empty batch for a schema of the given
// width, ready for AppendTuple.
func NewWireColumnBatch(width int) *WireColumnBatch {
	return &WireColumnBatch{Columns: make([][]string, width)}
}

// AppendTuple appends t as one row. The tuple's width must match the
// batch width the caller constructed it with.
func (wb *WireColumnBatch) AppendTuple(t stream.Tuple) {
	wb.IDs = append(wb.IDs, t.ID)
	if wb.Subs != nil || t.SubStream != 0 {
		// Backfill zeros for rows appended before the first non-zero sub.
		for len(wb.Subs) < wb.Count {
			wb.Subs = append(wb.Subs, 0)
		}
		wb.Subs = append(wb.Subs, int(t.SubStream))
	}
	wb.Events = append(wb.Events, t.EventTime.UTC().Format(wireTime))
	wb.Arrivals = append(wb.Arrivals, t.Arrival.UTC().Format(wireTime))
	for c := 0; c < t.Len(); c++ {
		wb.Columns[c] = append(wb.Columns[c], t.At(c).String())
	}
	wb.Count++
}
