package netstream

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"icewafl/internal/stream"
)

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
		tu.SubStream = i % 2
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

	decoded, err := DecodeColumnBatch(colMajor, schema)
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
	if _, err := DecodeColumnBatch(valid(), schema); err != nil {
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
		if _, err := DecodeColumnBatch(wb, schema); err == nil {
			t.Errorf("%s: malformed batch accepted", name)
		}
	}
	if _, err := DecodeColumnBatch(nil, schema); err == nil {
		t.Error("nil batch accepted")
	}
}

// columnarConfig is serverConfig with columnar serving enabled.
func columnarConfig(t *testing.T, seed int64, n, batch int) Config {
	t.Helper()
	cfg := serverConfig(t, seed, n)
	cfg.Columnar = true
	cfg.ColumnarBatch = batch
	return cfg
}

// rawDirtyFrameTypes subscribes raw and returns the type of every frame
// after the hello, so tests can assert the wire actually carries
// colbatch frames.
func rawDirtyFrameTypes(t *testing.T, addr string) []string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, _ := json.Marshal(SubscribeRequest{Channel: ChannelDirty})
	if err := WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var types []string
	for {
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		payload, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == FrameHello {
			continue
		}
		types = append(types, f.Type)
		if f.Type == FrameEOF || f.Type == FrameError {
			return types
		}
	}
}

// TestServerColumnarEquivalence: a columnar-serving daemon is
// indistinguishable from tuple-wise serving at the ClientSource level —
// byte-identical dirty tuples, clean tuples and log entries — while the
// wire itself carries colbatch frames (one per batch, not per tuple).
func TestServerColumnarEquivalence(t *testing.T) {
	const seed, n, batch = 4242, 500, 64
	refDirty, refClean, refLog := referenceRun(t, seed, n, 1)

	srv, tcpAddr, _ := startServer(t, columnarConfig(t, seed, n, batch))

	dirtyC, err := Dial(tcpAddr, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer dirtyC.Stop()
	sameTuples(t, "columnar dirty", drainClient(t, dirtyC), refDirty)

	cleanC, err := Dial(tcpAddr, ChannelClean)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanC.Stop()
	sameTuples(t, "columnar clean", drainClient(t, cleanC), refClean)

	entries := readLogChannel(t, tcpAddr)
	if len(entries) != len(refLog.Entries) {
		t.Fatalf("log: got %d entries, want %d", len(entries), len(refLog.Entries))
	}
	for i := range entries {
		g, _ := json.Marshal(entries[i])
		w, _ := json.Marshal(refLog.Entries[i])
		if string(g) != string(w) {
			t.Fatalf("log entry %d differs:\ngot  %s\nwant %s", i, g, w)
		}
	}

	// The wire carries batches: every data frame on dirty is a colbatch,
	// and there are far fewer frames than tuples.
	types := rawDirtyFrameTypes(t, tcpAddr)
	batches := 0
	for i, ft := range types {
		switch ft {
		case FrameColBatch:
			batches++
		case FrameEOF:
			if i != len(types)-1 {
				t.Fatalf("eof frame mid-stream at %d", i)
			}
		default:
			t.Fatalf("frame %d on columnar dirty channel has type %q", i, ft)
		}
	}
	maxBatches := (len(refDirty) + batch - 1) / batch
	if batches == 0 || batches > maxBatches+1 {
		t.Errorf("dirty channel published %d colbatch frames for %d tuples (batch %d)", batches, len(refDirty), batch)
	}
	if got, want := srv.Hub().Seq(ChannelDirty), uint64(batches+1); got != want {
		t.Errorf("dirty channel seq = %d, want %d frames", got, want)
	}
}

// TestServerColumnarReorderFallback: with a reorder window the runner's
// batch face is hidden behind the reorder wrapper, so the server
// re-accumulates tuples into colbatch frames — the stream stays
// byte-identical to tuple-wise serving at the same window.
func TestServerColumnarReorderFallback(t *testing.T) {
	const seed, n, batch = 77, 300, 32
	refDirty, _, _ := referenceRun(t, seed, n, 8)

	cfg := columnarConfig(t, seed, n, batch)
	cfg.Reorder = 8
	_, tcpAddr, _ := startServer(t, cfg)

	dirtyC, err := Dial(tcpAddr, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer dirtyC.Stop()
	sameTuples(t, "columnar dirty (reorder)", drainClient(t, dirtyC), refDirty)

	for i, ft := range rawDirtyFrameTypes(t, tcpAddr) {
		if ft != FrameColBatch && ft != FrameEOF {
			t.Fatalf("frame %d has type %q, want colbatch frames under reorder too", i, ft)
		}
	}
}

// TestServerColumnarDefaultBatch: the default batch size is applied.
func TestServerColumnarDefaultBatch(t *testing.T) {
	base := columnarConfig(t, 1, 10, 0)
	srv, err := newServer(base, "", nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.ColumnarBatch <= 0 {
		t.Errorf("default columnar batch not applied: %d", srv.cfg.ColumnarBatch)
	}
}

// TestServerColumnarWALReplayByteIdentical is the durable regression
// test: a columnar-served dirty channel persisted to the WAL and
// replayed by a restarted daemon (whose pipeline must not re-run) is
// byte-identical to tuple-wise serving of the same process.
func TestServerColumnarWALReplayByteIdentical(t *testing.T) {
	const seed, n, batch = 41, 200, 16
	walDir := t.TempDir()
	refDirty, _, _ := referenceRun(t, seed, n, 1)

	cfg := columnarConfig(t, seed, n, batch)
	cfg.WALDir = walDir
	srv1, addr1, _, stop1 := startStoppableServer(t, cfg)
	waitPipelineDone(t, srv1)
	if err := srv1.PipelineErr(); err != nil {
		t.Fatalf("columnar run failed: %v", err)
	}
	c1, err := Dial(addr1, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "columnar dirty before restart", drainClient(t, c1), refDirty)
	stop1()

	cfg2 := columnarConfig(t, seed, n, batch)
	cfg2.WALDir = walDir
	cfg2.NewSource = func() (stream.Source, error) {
		return nil, errors.New("pipeline must not re-run over a terminal wal")
	}
	srv2, addr2, _, _ := startStoppableServer(t, cfg2)
	waitPipelineDone(t, srv2)
	if err := srv2.PipelineErr(); err != nil {
		t.Fatalf("restart over terminal wal re-ran the pipeline: %v", err)
	}

	c2, err := Dial(addr2, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "columnar dirty replayed from wal", drainClient(t, c2), refDirty)

	// The replayed wire still carries colbatch frames, and a mid-stream
	// from_seq resume starts at a batch boundary.
	types := rawDirtyFrameTypes(t, addr2)
	for i, ft := range types {
		if ft != FrameColBatch && ft != FrameEOF {
			t.Fatalf("replayed frame %d has type %q", i, ft)
		}
	}
	mid := uint64(len(types) / 2)
	seqs := frameSeqs(t, addr2, ChannelDirty, mid)
	for i, s := range seqs {
		if s != mid+uint64(i) {
			t.Fatalf("resume out of order at %d: seq %d, want %d", i, s, mid+uint64(i))
		}
	}
}

// TestClientSourceColumnarReconnect: from_seq resume works at batch
// granularity — a ClientSource reading colbatch frames through a
// flapping proxy still observes the complete stream exactly once.
func TestClientSourceColumnarReconnect(t *testing.T) {
	const seed, n, batch = 99, 600, 16
	_, tcpAddr, _ := startServer(t, columnarConfig(t, seed, n, batch))
	proxy := newFlappingProxy(t, tcpAddr, 8<<10)

	client, err := Dial(proxy.ln.Addr().String(), ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Stop()
	retry := stream.NewRetrySource(client, stream.RetryPolicy{
		MaxRetries: 1000,
		Sleep:      func(time.Duration) {},
	})

	got, err := stream.Drain(retry)
	if err != nil {
		t.Fatalf("drain through flapping proxy: %v", err)
	}
	refDirty, _, _ := referenceRun(t, seed, n, 1)
	sameTuples(t, "reconnected columnar dirty", got, refDirty)
	if client.Reconnects() == 0 {
		t.Error("expected at least one reconnect through the flapping proxy")
	}
	for i := 1; i < len(got); i++ {
		if got[i].ID <= got[i-1].ID {
			t.Fatalf("tuple IDs not strictly increasing at %d: %d after %d", i, got[i].ID, got[i-1].ID)
		}
	}
}
