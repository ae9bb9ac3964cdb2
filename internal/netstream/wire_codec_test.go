package netstream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
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
	t.ID, t.SubStream, t.EventTime, t.Arrival = cc.id+uint64(row), int32(cc.sub), event, event.Add(time.Duration(cc.lagNs))
	if cc.shape&shapeRowSubs != 0 {
		t.SubStream = int32(row % 2)
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

// decodeScribbled is decodeTuples on a copy of payload that it then
// overwrites, as a client's next frame overwrites its read buffer: a
// decoded cell that aliased its input no longer compares equal.
func decodeScribbled(payload []byte, schema *stream.Schema, m *batchMeta) (uint64, []stream.Tuple, error) {
	buf := bytes.Clone(payload)
	seq, rows, err := decodeTuples(nil, buf, schema, m)
	for i := range buf {
		buf[i] = ^buf[i]
	}
	return seq, rows, err
}

// checkCodec is the codec's spec for one generated case.
func checkCodec(t *testing.T, cc codecCase) {
	schema := fuzzSchema()
	const seq, channel = 77, "t/s/dirty"
	var meta batchMeta

	// Tuple frame.
	tu := cc.tuple(schema, 0)
	direct := appendTuple(nil, seq, channel, &tu)
	seqGot, got, gotErr := decodeScribbled(direct, schema, &meta)
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
	seqGot, got, gotErr = decodeScribbled(direct, schema, &meta)
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

// subStreamFrames is a tuple frame and a colbatch frame, each of one
// row of empty cells over fuzzSchema on sub-stream sub.
func subStreamFrames(sub int64) [][]byte {
	tuple := append(appendHeader(nil, tagTuple, 1, ChannelDirty), 1) // id
	tuple = append(binary.AppendVarint(tuple, sub), 0, 0, 0, 0, 3, 0, 0, 0)
	batch := append(appendHeader(nil, tagColBatch, 2, ChannelDirty), 1, 1, 1) // rows, id, hasSubs
	batch = append(binary.AppendVarint(batch, sub), 0, 0, 0, 0, 3, 0, 0, 0)
	return [][]byte{tuple, batch}
}

// TestWireRejectsWideSubStream: a sub-stream outside int32, which a
// stream.Tuple cannot hold, fails the frame in both decoders, as a
// _substream outside it fails a MetaReader row; int32's ends decode.
func TestWireRejectsWideSubStream(t *testing.T) {
	for _, c := range []struct {
		sub int64
		ok  bool
	}{{math.MaxInt32, true}, {math.MinInt32, true}, {math.MaxInt32 + 1, false}, {1<<32 + 1, false}, {math.MinInt32 - 1, false}} {
		for i, payload := range subStreamFrames(c.sub) {
			_, errView := DecodeFrame(payload)
			_, rows, errRows := decodeTuples(nil, payload, fuzzSchema(), new(batchMeta))
			if (errView == nil) != c.ok || (errRows == nil) != c.ok {
				t.Fatalf("frame %d on sub-stream %d: DecodeFrame err %v, decodeTuples err %v; want accepted %v", i, c.sub, errView, errRows, c.ok)
			}
			if c.ok && (len(rows) != 1 || int64(rows[0].SubStream) != c.sub) {
				t.Fatalf("frame %d on sub-stream %d decoded as %+v", i, c.sub, rows)
			}
		}
	}
}

func FuzzFrameCodec(f *testing.F) {
	for _, sub := range []int64{math.MaxInt32 + 1, 1<<32 + 1} {
		for _, payload := range subStreamFrames(sub) {
			f.Add(payload, uint64(1), 0, int64(0), uint32(0), int64(0), uint64(0), "", uint16(0), uint8(0))
		}
	}
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

// clientOver is a ClientSource reading the given frames, already
// subscribed on schema.
func clientOver(t *testing.T, schema *stream.Schema, wire io.Reader) *ClientSource {
	local, remote := net.Pipe()
	t.Cleanup(func() { local.Close(); remote.Close() })
	return &ClientSource{channel: ChannelDirty, conn: local, br: bufio.NewReader(wire), cur: schema, schema: schema}
}

// TestClientNextAllocs: ClientSource.Next allocates only what the tuple
// it returns owns — its values slice and a copy of each string cell —
// from a stream of tuple frames and, amortised, from colbatch frames.
func TestClientNextAllocs(t *testing.T) {
	numeric := stream.MustSchema("Time", // the serve workloads' schema
		stream.Field{Name: "Time", Kind: stream.KindTime},
		stream.Field{Name: "V", Kind: stream.KindFloat},
		stream.Field{Name: "K", Kind: stream.KindInt},
	)
	mixed := fuzzSchema()
	for _, c := range []struct {
		name   string
		schema *stream.Schema
		tuple  func(i int) stream.Tuple
		want   float64
	}{
		{"numeric", numeric, func(i int) stream.Tuple {
			at := time.Date(2021, 6, 1, 0, 0, i, 0, time.UTC)
			tu := stream.NewTuple(numeric, []stream.Value{stream.Time(at), stream.Float(float64(i) / 8), stream.Int(int64(i) * 1e6)})
			tu.ID, tu.EventTime, tu.Arrival = uint64(i+1), at, at
			return tu
		}, 1},
		// A one-byte string is one of the runtime's static strings, so the
		// cell is longer: the values slice and the one string cell.
		{"fuzzSchema", mixed, func(i int) stream.Tuple {
			cc := codecCases[0]
			cc.cell = fmt.Sprintf("sensor-%03d", i%1000)
			return cc.tuple(mixed, i)
		}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			// AllocsPerRun counts every goroutine's allocations, so each phase
			// runs long enough (399 tuples, 40 batches) that stragglers from
			// earlier tests cannot add a whole allocation per run.
			const n, batches = 512, 48
			var wire bytes.Buffer
			batch := stream.NewColumnBatch(c.schema, 64)
			for i := 0; i < n; i++ {
				tu := c.tuple(i)
				if err := WriteFrame(&wire, appendTuple(nil, uint64(i+1), ChannelDirty, &tu)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64*batches; i++ {
				if err := batch.AppendTuple(c.tuple(i)); err != nil {
					t.Fatal(err)
				}
				if batch.Len() == 64 {
					if err := WriteFrame(&wire, appendColumnBatch(nil, uint64(n+1+i/64), ChannelDirty, batch)); err != nil {
						t.Fatal(err)
					}
					batch.Reset()
				}
			}
			cs := clientOver(t, c.schema, &wire)
			next := func(k int) func() {
				return func() {
					for i := 0; i < k; i++ {
						if _, err := cs.Next(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			next(8)() // warm the reused buffers
			if perTuple := testing.AllocsPerRun(399, next(1)); perTuple != c.want {
				t.Errorf("tuple frames: %.2f allocs per tuple, want %v", perTuple, c.want)
			}
			next(n - 8 - 400 + 64)() // the rest of the tuple frames and the first batch
			if perTuple := testing.AllocsPerRun(40, next(64)) / 64; perTuple != c.want {
				t.Errorf("colbatch frames: %.2f allocs per tuple, want %v", perTuple, c.want)
			}
		})
	}
}

// TestDecodedCellsOwnTheirBytes: the client reads every frame into one
// reused buffer, so a tuple it returned must not change when the next
// frame overwrites that buffer.
func TestDecodedCellsOwnTheirBytes(t *testing.T) {
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "k", Kind: stream.KindInt},
		stream.Field{Name: "s", Kind: stream.KindString},
	)
	frame := func(seq uint64, at time.Time, v float64, k int64, s string) []byte {
		tu := stream.NewTuple(schema, []stream.Value{stream.Time(at), stream.Float(v), stream.Int(k), stream.Str(s)})
		tu.ID, tu.EventTime, tu.Arrival = seq, at, at
		return appendTuple(nil, seq, ChannelDirty, &tu)
	}
	// Same lengths, so the second frame overwrites every byte of the first.
	first := frame(1, time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC), 1.25, 1111, "alpha")
	second := frame(2, time.Date(2029, 9, 9, 9, 9, 9, 0, time.UTC), 8.75, 9999, "omega")
	if len(first) != len(second) {
		t.Fatalf("frames of %d and %d bytes", len(first), len(second))
	}
	var wire bytes.Buffer
	for _, p := range [][]byte{first, second} {
		if err := WriteFrame(&wire, p); err != nil {
			t.Fatal(err)
		}
	}
	cs := clientOver(t, schema, &wire)
	got, err := cs.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeTuple(got).Values
	if _, err := cs.Next(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cs.readBuf[:len(second)], second) {
		t.Fatal("the second frame was not read into the first's buffer")
	}
	if after := EncodeTuple(got).Values; !reflect.DeepEqual(after, want) {
		t.Fatalf("the first tuple changed when the next frame was read: %q, was %q", after, want)
	}
}

// TestFrameLengthPrefixAllocs: the length prefix costs no allocation on
// either end — built in a bufio.Writer's buffer, read into the reused
// frame buffer.
func TestFrameLengthPrefixAllocs(t *testing.T) {
	tu := codecCases[0].tuple(fuzzSchema(), 0)
	payload := appendTuple(nil, 1, ChannelDirty, &tu)
	bw := bufio.NewWriter(io.Discard)
	if n := testing.AllocsPerRun(500, func() {
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteFrame into a bufio.Writer: %v allocs, want 0", n)
	}
	var wire bytes.Buffer
	for i := 0; i < 600; i++ {
		if err := WriteFrame(&wire, payload); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&wire)
	buf, err := readFrameInto(br, nil, MaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if buf, err = readFrameInto(br, buf[:0], MaxFrameBytes); err != nil || !bytes.Equal(buf, payload) {
			t.Fatalf("read %q, %v", buf, err)
		}
	}); n != 0 {
		t.Errorf("readFrameInto with a warmed buffer: %v allocs, want 0", n)
	}
}
