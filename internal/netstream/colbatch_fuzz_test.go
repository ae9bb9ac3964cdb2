package netstream

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"icewafl/internal/stream"
)

// fuzzSchema is the fixed schema both columnar fuzzers decode against.
func fuzzSchema() *stream.Schema {
	return stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "sensor", Kind: stream.KindString},
	)
}

// fuzzBatchFrame builds one valid colbatch frame payload with n rows.
func fuzzBatchFrame(tb testing.TB, n int, seq uint64) []byte {
	tb.Helper()
	schema := fuzzSchema()
	base := time.Date(2021, 6, 1, 0, 0, 0, 123456789, time.UTC)
	wb := NewWireColumnBatch(schema.Len())
	for i := 0; i < n; i++ {
		vals := []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Second)),
			stream.Float(float64(i) + 0.5),
			stream.Str("s"),
		}
		if i%3 == 1 {
			vals[1] = stream.Null()
		}
		tu := stream.NewTuple(schema, vals)
		tu.ID = uint64(i + 1)
		tu.SubStream = i % 2
		tu.EventTime = base.Add(time.Duration(i) * time.Second)
		tu.Arrival = tu.EventTime.Add(time.Millisecond)
		wb.AppendTuple(tu)
	}
	payload, err := EncodeFrame(&Frame{Type: FrameColBatch, Channel: ChannelDirty, Seq: seq, Batch: wb})
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// FuzzColumnarFrame checks the decode→encode→decode fixed point of the
// colbatch codec: any frame payload decodeColumnBatch accepts must
// survive re-encoding through AppendTuple with byte-identical wire
// form and identical decoded tuples — i.e. one decode/encode round
// normalises, after which the codec is a fixed point.
func FuzzColumnarFrame(f *testing.F) {
	f.Add(fuzzBatchFrame(f, 0, 1))
	f.Add(fuzzBatchFrame(f, 1, 2))
	f.Add(fuzzBatchFrame(f, 7, 3))
	f.Add([]byte(`{"type":"colbatch","batch":{"count":0,"columns":[[],[],[]]}}`))
	f.Add([]byte(`{"type":"colbatch"}`))
	f.Add([]byte(`{"type":"tuple","tuple":{"id":1}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		schema := fuzzSchema()
		fr, err := DecodeFrame(data)
		if err != nil || fr.Type != FrameColBatch {
			return
		}
		tuples, err := decodeColumnBatch(fr.Batch, schema)
		if err != nil {
			return // malformed batches are rejected, that is the contract
		}
		if len(tuples) != fr.Batch.Count {
			t.Fatalf("decoded %d tuples from a batch of count %d", len(tuples), fr.Batch.Count)
		}
		// Re-encode the decoded rows and decode again: the tuples must be
		// identical.
		wb := NewWireColumnBatch(schema.Len())
		for _, tu := range tuples {
			wb.AppendTuple(tu)
		}
		again, err := decodeColumnBatch(wb, schema)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if len(again) != len(tuples) {
			t.Fatalf("re-decode yielded %d tuples, want %d", len(again), len(tuples))
		}
		for i := range tuples {
			if !reflect.DeepEqual(EncodeTuple(again[i]), EncodeTuple(tuples[i])) {
				t.Fatalf("tuple %d changed across re-encode:\ngot  %+v\nwant %+v", i, EncodeTuple(again[i]), EncodeTuple(tuples[i]))
			}
		}
		// And the wire form itself is now a fixed point.
		wb2 := NewWireColumnBatch(schema.Len())
		for _, tu := range again {
			wb2.AppendTuple(tu)
		}
		if !reflect.DeepEqual(wb, wb2) {
			t.Fatalf("wire form not a fixed point:\nfirst  %+v\nsecond %+v", wb, wb2)
		}
	})
}

// FuzzColumnarTornFrame cuts a valid colbatch frame stream anywhere and
// appends arbitrary bytes: every frame fully contained in the intact
// prefix must decode exactly as the original, and whatever the reader
// makes of the torn tail must be a clean error or a structurally valid
// batch — never a panic, never a silently truncated one.
func FuzzColumnarTornFrame(f *testing.F) {
	f.Add(0, []byte{})
	f.Add(3, []byte{})
	f.Add(17, []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(64, []byte(`{"type":"colbatch","batch":{"count":2}}`))
	f.Add(1<<20, []byte("trailing garbage"))
	f.Fuzz(func(t *testing.T, cut int, tail []byte) {
		schema := fuzzSchema()
		var wire bytes.Buffer
		var framePayloads [][]byte
		hello, err := EncodeFrame(&Frame{Type: FrameHello, Channel: ChannelDirty, Schema: SchemaDocument(schema)})
		if err != nil {
			t.Fatal(err)
		}
		for i, payload := range [][]byte{hello, fuzzBatchFrame(t, 5, 1), fuzzBatchFrame(t, 3, 2)} {
			framePayloads = append(framePayloads, payload)
			if err := WriteFrame(&wire, payload); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		full := wire.Bytes()
		if cut < 0 {
			cut = -cut
		}
		cut %= len(full) + 1
		torn := append(append([]byte{}, full[:cut]...), tail...)

		// Count how many whole frames survive in the intact prefix.
		intact := 0
		for off := 0; intact < len(framePayloads); intact++ {
			end := off + 4 + len(framePayloads[intact])
			if end > cut {
				break
			}
			off = end
		}

		r := bytes.NewReader(torn)
		for i := 0; ; i++ {
			payload, err := ReadFrame(r)
			if err != nil {
				if i < intact {
					t.Fatalf("frame %d lost: intact prefix held %d frames, read error %v", i, intact, err)
				}
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return
				}
				// Any other error must come from the length guard, not a
				// panic or a short read gone unnoticed.
				return
			}
			if i < intact && !bytes.Equal(payload, framePayloads[i]) {
				t.Fatalf("frame %d corrupted by the cut:\ngot  %q\nwant %q", i, payload, framePayloads[i])
			}
			fr, err := DecodeFrame(payload)
			if err != nil {
				if i < intact {
					t.Fatalf("intact frame %d no longer decodes: %v", i, err)
				}
				continue
			}
			if fr.Type != FrameColBatch {
				continue
			}
			tuples, err := decodeColumnBatch(fr.Batch, schema)
			if err != nil {
				if i < intact {
					t.Fatalf("intact batch frame %d rejected: %v", i, err)
				}
				continue
			}
			if len(tuples) != fr.Batch.Count {
				t.Fatalf("frame %d: decoded %d tuples from count %d", i, len(tuples), fr.Batch.Count)
			}
		}
	})
}
