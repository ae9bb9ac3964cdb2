package netstream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/stream"
)

// codecCase is one generated input of the codec property: a tuple over
// fuzzSchema (and the log entry and batch derived from it), shaped by
// the bits of shape.
type codecCase struct {
	id           uint64
	sub          int
	evSec, lagNs int64
	evNs         uint32
	fbits        uint64
	cell         string
	shape        uint16
	rows         uint8
}

const (
	shapeNullTime = 1 << iota
	shapeNullFloat
	shapeStrInFloat // a kind-mismatched cell: text in the float column
	shapeIntInFloat // a kind-mismatched cell that still parses
	shapeNullStr
	shapeZone     // event time carried in a non-UTC zone
	shapeZeroTime // the zero time.Time
	shapeAttrs    // the log entry names attributes
	shapeRowSubs  // batch rows alternate sub-streams
)

func (cc codecCase) tuple(schema *stream.Schema, row int) stream.Tuple {
	event := time.Unix(cc.evSec, int64(cc.evNs%1e9)).UTC().Add(time.Duration(row) * time.Second)
	if cc.shape&shapeZone != 0 {
		event = event.In(time.FixedZone("", 5*3600+1800))
	}
	if cc.shape&shapeZeroTime != 0 {
		event = time.Time{}
	}
	vals := []stream.Value{stream.Time(event), stream.Float(math.Float64frombits(cc.fbits)), stream.Str(cc.cell)}
	switch {
	case cc.shape&shapeNullFloat != 0:
		vals[1] = stream.Null()
	case cc.shape&shapeStrInFloat != 0:
		vals[1] = stream.Str(cc.cell)
	case cc.shape&shapeIntInFloat != 0:
		vals[1] = stream.Int(int64(cc.fbits))
	}
	if cc.shape&shapeNullTime != 0 {
		vals[0] = stream.Null()
	}
	if cc.shape&shapeNullStr != 0 {
		vals[2] = stream.Null()
	}
	t := stream.NewTuple(schema, vals)
	t.ID, t.SubStream, t.EventTime, t.Arrival = cc.id+uint64(row), cc.sub, event, event.Add(time.Duration(cc.lagNs))
	if cc.shape&shapeRowSubs != 0 {
		t.SubStream = row % 2
	}
	return t
}

// inRFC3339 reports whether the view's rendered stamp can carry t.
func inRFC3339(t time.Time) bool { y := t.UTC().Year(); return y >= 0 && y <= 9999 }

// sameDecoded compares two decode results the way the property states
// it: both fail, or both yield the same tuples — same wire rendering,
// same value kinds, identical time representation.
func sameDecoded(t *testing.T, label string, got []stream.Tuple, gotErr error, want []stream.Tuple, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: client sink error %v, view path error %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	sameTuples(t, label, got, want)
	for i := range got {
		if got[i].EventTime != want[i].EventTime || got[i].Arrival != want[i].Arrival {
			t.Fatalf("%s: tuple %d times differ in representation: %#v vs %#v", label, i, got[i].EventTime, want[i].EventTime)
		}
		for c := 0; c < got[i].Len(); c++ {
			if got[i].At(c).Kind() != want[i].At(c).Kind() {
				t.Fatalf("%s: tuple %d attr %d kind %v, want %v", label, i, c, got[i].At(c).Kind(), want[i].At(c).Kind())
			}
		}
	}
}

// viewRoundTrip checks the Frame view of payload against f: decoded and
// re-marshalled — what the HTTP edge writes — it equals marshalling f.
func viewRoundTrip(t *testing.T, label string, payload []byte, f *Frame) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		return // an event time encoding/json refuses (year outside 0..9999)
	}
	if got := frameJSON(t, payload); !bytes.Equal(got, want) {
		t.Fatalf("%s: frame view changed over the wire:\ngot  %s\nwant %s", label, got, want)
	}
}

// checkCodec is the codec's spec for one generated case.
func checkCodec(t *testing.T, cc codecCase) {
	schema := fuzzSchema()
	const seq, channel = 77, "t/s/dirty"
	var meta batchMeta

	// Tuple frame.
	tu := cc.tuple(schema, 0)
	direct := appendTuple(nil, seq, channel, &tu)
	seqGot, got, gotErr := decodeTuples(nil, direct, schema, &meta)
	if gotErr == nil && (seqGot != seq || len(got) != 1) {
		t.Fatalf("client sink: seq %d, %d tuples", seqGot, len(got))
	}
	for c := 0; c < tu.Len(); c++ {
		if cell := appendCell(nil, tu.At(c)); string(cell[len(cell)-len(tu.At(c).String()):]) != tu.At(c).String() {
			t.Fatalf("cell %d is %q, want the bytes of %q", c, cell, tu.At(c).String())
		}
	}
	if inRFC3339(tu.EventTime) && inRFC3339(tu.Arrival) {
		f := &Frame{Type: FrameTuple, Channel: channel, Seq: seq, Tuple: EncodeTuple(tu)}
		if ref := jsonBuildTuple(tu); !reflect.DeepEqual(f.Tuple, ref) {
			t.Fatalf("EncodeTuple = %+v, the JSON build's view is %+v", f.Tuple, ref)
		}
		viaView, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, viaView) {
			t.Fatalf("tuple encoders disagree:\ndirect %q\nview   %q", direct, viaView)
		}
		viewRoundTrip(t, "tuple", direct, f)
		want, wantErr := DecodeTuple(EncodeTuple(tu), schema)
		sameDecoded(t, "tuple", got, gotErr, []stream.Tuple{want}, wantErr)
	} else if gotErr == nil && (!got[0].EventTime.Equal(tu.EventTime) || !got[0].Arrival.Equal(tu.Arrival)) {
		t.Fatalf("times outside RFC 3339 did not survive: %v/%v, want %v/%v", got[0].EventTime, got[0].Arrival, tu.EventTime, tu.Arrival)
	}

	// Log frame.
	e := core.Entry{TupleID: cc.id, SubStream: cc.sub, EventTime: tu.EventTime, Polluter: cc.cell, Error: "e"}
	if cc.shape&shapeAttrs != 0 {
		e.Attrs = []string{cc.cell, "v"}
	}
	logFrame := &Frame{Type: FrameLog, Channel: "t/s/log", Seq: seq, Entry: &e}
	payload, err := EncodeFrame(logFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, appendEntry(nil, seq, "t/s/log", &e)) {
		t.Fatal("log encoders disagree")
	}
	viewRoundTrip(t, "log", payload, logFrame)

	// Colbatch frame, rows 0..4 (0 = the empty batch).
	n := int(cc.rows % 5)
	batch := stream.NewColumnBatch(schema, n+1)
	rowWise := NewWireColumnBatch(schema.Len())
	inRange := true
	for r := 0; r < n; r++ {
		row := cc.tuple(schema, r)
		if err := batch.AppendTuple(row); err != nil {
			t.Fatal(err)
		}
		rowWise.AppendTuple(row)
		inRange = inRange && inRFC3339(row.EventTime) && inRFC3339(row.Arrival)
	}
	direct = appendColumnBatch(nil, seq, channel, batch)
	seqGot, got, gotErr = decodeTuples(nil, direct, schema, &meta)
	if gotErr == nil && (seqGot != seq || len(got) != n) {
		t.Fatalf("client sink: batch seq %d, %d rows, want %d", seqGot, len(got), n)
	}
	if !inRange {
		return
	}
	f := &Frame{Type: FrameColBatch, Channel: channel, Seq: seq, Batch: EncodeColumnBatch(batch)}
	viaView, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, viaView) {
		t.Fatalf("batch encoders disagree:\ndirect %q\nview   %q", direct, viaView)
	}
	if n > 0 {
		if viaRows, err := EncodeFrame(&Frame{Type: FrameColBatch, Channel: channel, Seq: seq, Batch: rowWise}); err != nil || !bytes.Equal(direct, viaRows) {
			t.Fatalf("row-wise batch view encodes differently (%v):\ndirect %q\nrows   %q", err, direct, viaRows)
		}
	}
	viewRoundTrip(t, "colbatch", direct, f)
	want, wantErr := decodeColumnBatch(EncodeColumnBatch(batch), schema)
	sameDecoded(t, "colbatch", got, gotErr, want, wantErr)
}

// checkArbitrary feeds arbitrary bytes to both sinks: a frame or an
// error, never a panic, never an allocation out of proportion to the
// input, and whatever decodes re-encodes to a fixed point.
func checkArbitrary(t *testing.T, data []byte) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f, err := DecodeFrame(data)
	runtime.ReadMemStats(&m1)
	// Every decoded element took at least a byte of input and the view
	// pays a string header or a rendered stamp for it, never more; only an
	// empty batch's column headers come free, and those are capped.
	if grew, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(96*len(data)+4096+24*maxWireColumns); grew > limit {
		t.Fatalf("DecodeFrame allocated %d bytes for a %d-byte input (limit %d)", grew, len(data), limit)
	}
	var meta batchMeta
	_, _, _ = decodeTuples(nil, data, fuzzSchema(), &meta)
	if err != nil || len(data) == 0 || data[0] == '{' {
		return
	}
	again, err := EncodeFrame(f)
	if err != nil {
		return // a stamp outside RFC 3339 decodes but cannot be re-rendered
	}
	f2, err := DecodeFrame(again)
	if err != nil {
		t.Fatalf("re-encoded frame rejected: %v", err)
	}
	a, _ := json.Marshal(f)
	b, _ := json.Marshal(f2)
	if !bytes.Equal(a, b) {
		t.Fatalf("decode/encode is not a fixed point:\nfirst  %s\nsecond %s", a, b)
	}
}

var codecCases = []codecCase{
	{id: 1, evSec: 1622548800, evNs: 987654321, lagNs: 17e6, fbits: math.Float64bits(3.25), cell: "s", rows: 3},
	{id: 1 << 40, sub: 3, evSec: 1622548800, fbits: math.Float64bits(math.NaN()), cell: "", shape: shapeNullTime, rows: 2},
	{id: 2, sub: -1, evSec: 0, fbits: math.Float64bits(math.Inf(1)), cell: "a,b\"c\n<&>", shape: shapeZone | shapeAttrs, rows: 4},
	{id: 3, evSec: 5, fbits: math.Float64bits(math.Inf(-1)), cell: "x", shape: shapeNullFloat | shapeNullStr | shapeRowSubs, rows: 4},
	{id: 4, evSec: 7, fbits: math.Float64bits(math.Copysign(0, -1)), cell: "\xff\xfe ", shape: shapeZeroTime | shapeAttrs, rows: 1},
	{id: 5, evSec: 1622548800, fbits: 12345, cell: "not-a-float", shape: shapeStrInFloat, rows: 2},
	{id: 6, evSec: 1622548800, fbits: 42, cell: "7", shape: shapeStrInFloat | shapeIntInFloat, rows: 2},
	{id: 7, evSec: 1622548800, fbits: 42, cell: string(bytes.Repeat([]byte("long"), 100)), shape: shapeIntInFloat, rows: 3},
	{id: 8, evSec: 1 << 40, evNs: 999999999, lagNs: -5, fbits: 1, cell: "far future", rows: 2},
	{id: 9, evSec: -1 << 40, fbits: 1, cell: "far past", rows: 0},
	{id: math.MaxUint64 - 8, sub: math.MinInt32, evSec: 1622548800, fbits: 0, cell: "edge", rows: 0},
}

// TestFrameCodecProperty runs the codec's spec over the hand-picked
// corners; FuzzFrameCodec widens the same checks.
func TestFrameCodecProperty(t *testing.T) {
	for _, cc := range codecCases {
		checkCodec(t, cc)
	}
	for _, data := range [][]byte{{}, {wireVersion}, {wireVersion, tagTuple}, {wireVersion, 9, 0, 0}, {2, 1, 0, 0},
		{wireVersion, tagColBatch, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		fuzzBatchFrame(t, 3, 9), append(fuzzBatchFrame(t, 3, 9), 0)} {
		checkArbitrary(t, data)
	}
	if _, err := DecodeFrame(append(fuzzBatchFrame(t, 3, 9), 0)); err == nil {
		t.Error("trailing byte after a binary frame accepted")
	}
}

func FuzzFrameCodec(f *testing.F) {
	for _, cc := range codecCases {
		tu := cc.tuple(fuzzSchema(), 0)
		f.Add(appendTuple(nil, 1, "dirty", &tu), cc.id, cc.sub, cc.evSec, cc.evNs, cc.lagNs, cc.fbits, cc.cell, cc.shape, cc.rows)
	}
	f.Add(fuzzBatchFrame(f, 3, 2), uint64(1), 0, int64(0), uint32(0), int64(0), uint64(0), "", uint16(0), uint8(0))
	f.Add([]byte(`{"type":"tuple","seq":3,"tuple":{"id":1,"event":"2021-06-01T00:00:00Z","arrival":"2021-06-01T00:00:00Z","values":["","1","x"]}}`),
		uint64(1), 0, int64(0), uint32(0), int64(0), uint64(0), "", uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, id uint64, sub int, evSec int64, evNs uint32, lagNs int64, fbits uint64, cell string, shape uint16, rows uint8) {
		checkArbitrary(t, data)
		// ColumnBatch keeps sub-streams as int32, so the batch encoders only
		// agree inside that range.
		checkCodec(t, codecCase{id: id, sub: int(int32(sub)), evSec: evSec, evNs: evNs, lagNs: lagNs, fbits: fbits, cell: cell, shape: shape, rows: rows})
	})
}

// TestEncodeFrameAllocs: a tuple frame costs its payload and nothing
// else, on the view encoder and on the hub's direct one.
func TestEncodeFrameAllocs(t *testing.T) {
	tu := codecCases[0].tuple(fuzzSchema(), 0)
	f := &Frame{Type: FrameTuple, Channel: "t/s/dirty", Seq: 9, Tuple: EncodeTuple(tu)}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("EncodeFrame of a tuple frame: %v allocs, want <= 1", n)
	}
	hub := NewHubNamed([]string{ChannelDirty}, 4, 4, PolicyDropOldest, nil)
	if n := testing.AllocsPerRun(200, func() {
		if err := hub.PublishTuple(ChannelDirty, tu); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Hub.PublishTuple: %v allocs per frame, want <= 1", n)
	}
}

// TestClientNextAllocs: ClientSource.Next allocates what the tuple it
// returns owns — its values and one copy of the payload text — from a
// stream of tuple frames and, amortised, from colbatch frames.
func TestClientNextAllocs(t *testing.T) {
	schema := fuzzSchema()
	const n = 512
	var wire bytes.Buffer
	batch := stream.NewColumnBatch(schema, 64)
	for i := 0; i < n; i++ {
		tu := codecCases[0].tuple(schema, i)
		if err := WriteFrame(&wire, appendTuple(nil, uint64(i+1), ChannelDirty, &tu)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := batch.AppendTuple(codecCases[0].tuple(schema, i)); err != nil {
			t.Fatal(err)
		}
		if batch.Len() == 64 {
			if err := WriteFrame(&wire, appendColumnBatch(nil, uint64(n+1+i/64), ChannelDirty, batch)); err != nil {
				t.Fatal(err)
			}
			batch.Reset()
		}
	}
	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()
	c := &ClientSource{channel: ChannelDirty, conn: local, br: bufio.NewReader(&wire), cur: schema, schema: schema}
	next := func(k int) func() {
		return func() {
			for i := 0; i < k; i++ {
				if _, err := c.Next(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	next(8)() // warm the reused buffers
	if perTuple := testing.AllocsPerRun(399, next(1)); perTuple > 3 {
		t.Errorf("tuple frames: %.2f allocs per tuple, want <= 3", perTuple)
	}
	next(n - 8 - 400 + 64)() // the rest of the tuple frames and the first batch
	if perTuple := testing.AllocsPerRun(5, next(64)) / 64; perTuple > 3 {
		t.Errorf("colbatch frames: %.2f allocs per tuple, want <= 3", perTuple)
	}
}
