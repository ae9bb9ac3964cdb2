package netstream

// The colbatch frame's codec. No server emits the frame any more, but
// ClientSource and the HTTP edge still decode it (a WAL an older build
// wrote may hold it), and bench/ times its encoder.

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"icewafl/internal/stream"
)

// decodeColumnBatch decodes a colbatch view's rows against schema by
// the one binary decode rule, as ClientSource does for such a frame.
func decodeColumnBatch(wb *WireColumnBatch, schema *stream.Schema) ([]stream.Tuple, error) {
	if wb == nil {
		return nil, errors.New("netstream: nil column batch payload")
	}
	return decodeView(&Frame{Type: FrameColBatch, Batch: wb}, schema)
}

// TestColumnBatchRoundTrip: a batch survives the wire encoding exactly
// — IDs, substreams, nanosecond timestamps and every cell including
// NULL — and the two encoders (row-wise AppendTuple, column-major
// EncodeColumnBatch) produce the identical wire payload.
func TestColumnBatchRoundTrip(t *testing.T) {
	schema := wireSchema(t)
	base := time.Date(2021, 6, 1, 12, 0, 0, 987654321, time.UTC)
	batch := stream.NewColumnBatch(schema, 4)
	var rows []stream.Tuple
	for i := 0; i < 4; i++ {
		vals := []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Minute)),
			stream.Float(float64(i) + 0.25),
			stream.Str("s"),
		}
		if i == 2 {
			vals[1] = stream.Null()
			vals[2] = stream.Null()
		}
		tu := stream.NewTuple(schema, vals)
		tu.ID = uint64(i + 1)
		tu.SubStream = int32(i % 2)
		tu.EventTime = base.Add(time.Duration(i) * time.Minute)
		tu.Arrival = tu.EventTime.Add(17 * time.Millisecond)
		rows = append(rows, tu)
		if err := batch.AppendTuple(tu); err != nil {
			t.Fatal(err)
		}
	}

	colMajor := EncodeColumnBatch(batch)
	rowWise := NewWireColumnBatch(schema.Len())
	for _, tu := range rows {
		rowWise.AppendTuple(tu)
	}
	if !reflect.DeepEqual(colMajor, rowWise) {
		t.Fatalf("encoders disagree:\ncolumn-major %+v\nrow-wise     %+v", colMajor, rowWise)
	}

	decoded, err := decodeColumnBatch(colMajor, schema)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "batch round trip", decoded, rows)

	// All-zero substreams omit the subs array entirely.
	zero := NewWireColumnBatch(schema.Len())
	flat := rows[0]
	flat.SubStream = 0
	zero.AppendTuple(flat)
	if zero.Subs != nil {
		t.Errorf("all-zero substreams encoded as %v, want omitted", zero.Subs)
	}
	payload, err := EncodeFrame(&Frame{Type: FrameColBatch, Batch: zero})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(frameJSON(t, payload), &raw); err != nil {
		t.Fatal(err)
	}
	if batchRaw, ok := raw["batch"].(map[string]any); !ok {
		t.Fatal("frame lost its batch payload")
	} else if _, present := batchRaw["subs"]; present {
		t.Error("subs array serialised despite being all zero")
	}
}

// TestDecodeColumnBatchValidation rejects structurally inconsistent
// batches instead of panicking or silently truncating.
func TestDecodeColumnBatchValidation(t *testing.T) {
	schema := wireSchema(t)
	ts := "2021-06-01T00:00:00Z"
	valid := func() *WireColumnBatch {
		return &WireColumnBatch{
			Count:    1,
			IDs:      []uint64{1},
			Events:   []string{ts},
			Arrivals: []string{ts},
			Columns:  [][]string{{ts}, {"1.5"}, {"x"}},
		}
	}
	if _, err := decodeColumnBatch(valid(), schema); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	for name, mutate := range map[string]func(*WireColumnBatch){
		"nil":            func(wb *WireColumnBatch) { *wb = WireColumnBatch{Count: -1} },
		"short ids":      func(wb *WireColumnBatch) { wb.IDs = nil },
		"short events":   func(wb *WireColumnBatch) { wb.Events = nil },
		"short arrivals": func(wb *WireColumnBatch) { wb.Arrivals = nil },
		"bad subs":       func(wb *WireColumnBatch) { wb.Subs = []int{1, 2} },
		"missing column": func(wb *WireColumnBatch) { wb.Columns = wb.Columns[:2] },
		"ragged column":  func(wb *WireColumnBatch) { wb.Columns[1] = nil },
		"bad cell":       func(wb *WireColumnBatch) { wb.Columns[1][0] = "not-a-float" },
		"bad event time": func(wb *WireColumnBatch) { wb.Events[0] = "yesterday" },
		"bad arrival":    func(wb *WireColumnBatch) { wb.Arrivals[0] = "later" },
	} {
		wb := valid()
		mutate(wb)
		if _, err := decodeColumnBatch(wb, schema); err == nil {
			t.Errorf("%s: malformed batch accepted", name)
		}
	}
	if _, err := decodeColumnBatch(nil, schema); err == nil {
		t.Error("nil batch accepted")
	}
}
