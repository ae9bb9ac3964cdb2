package netstream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/csvio"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// testSource generates n deterministic tuples over wireSchema.
func testSource(s *stream.Schema, n int) stream.Source {
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	return stream.NewGeneratorSource(s, n, func(i int) stream.Tuple {
		return stream.NewTuple(s, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Minute)),
			stream.Float(float64(i)),
			stream.Str(fmt.Sprintf("s%d", i%3)),
		})
	})
}

// testProcess builds a deliberately stateful pipeline (RNG noise plus a
// sticky frozen value), constructed fresh per run like config.Build
// would.
func testProcess(seed int64) *core.Process {
	noise := core.NewStandard("noise",
		&core.GaussianNoise{Stddev: core.Const(3), Rand: rng.Derive(seed, "noise")},
		core.NewRandomConst(0.4, rng.Derive(seed, "noise-cond")), "v")
	freeze := core.NewStandard("freeze",
		core.NewFrozenValue(),
		core.NewSticky(core.NewRandomConst(0.05, rng.Derive(seed, "freeze-cond")), 30*time.Minute), "v")
	return &core.Process{
		Pipelines: []*core.Pipeline{core.NewPipeline(noise, freeze)},
		FirstID:   1,
	}
}

// referenceRun executes the pipeline in-process, returning the dirty
// tuples, the clean (prepared) tuples, and the pollution log — the
// ground truth every network client must observe.
func referenceRun(t *testing.T, seed int64, n, reorder int) (dirty, clean []stream.Tuple, plog *core.Log) {
	t.Helper()
	proc := testProcess(seed)
	proc.CleanTap = func(tp stream.Tuple) { clean = append(clean, tp.Clone()) }
	src, plog, err := proc.RunStream(testSource(wireSchema(t), n), reorder)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err = stream.Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	return dirty, clean, plog
}

// startServer is startStoppableServer with the stop left to test
// cleanup.
func startServer(t *testing.T, cfg Config) (srv *Server, tcpAddr, httpAddr string) {
	t.Helper()
	srv, tcpAddr, httpAddr, _ = startStoppableServer(t, cfg)
	return srv, tcpAddr, httpAddr
}

// serverConfig returns a Config running testProcess over n generated
// tuples.
func serverConfig(t *testing.T, seed int64, n int) Config {
	t.Helper()
	schema := wireSchema(t)
	return Config{
		Schema: schema,
		Proc:   testProcess(seed),
		NewSource: func() (stream.Source, error) {
			return testSource(schema, n), nil
		},
		Reorder: 1,
		Buffer:  64,
		Replay:  1 << 16,
	}
}

// drainClient reads every tuple from a ClientSource until EOF.
func drainClient(t *testing.T, c *ClientSource) []stream.Tuple {
	t.Helper()
	tuples, err := stream.Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	return tuples
}

// sameTuples compares two tuple slices by their wire rendering.
func sameTuples(t *testing.T, label string, got, want []stream.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d tuples, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := EncodeTuple(got[i]), EncodeTuple(want[i])
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: tuple %d differs:\ngot  %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestServerEquivalence is the acceptance test of the tentpole: every
// channel served over the network carries exactly what the in-process
// runner produces — dirty stream, clean stream, and pollution log.
func TestServerEquivalence(t *testing.T) {
	const seed, n = 4242, 500
	refDirty, refClean, refLog := referenceRun(t, seed, n, 1)

	_, tcpAddr, _ := startServer(t, serverConfig(t, seed, n))

	dirtyC, err := Dial(tcpAddr, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer dirtyC.Stop()
	cleanC, err := Dial(tcpAddr, ChannelClean)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanC.Stop()

	sameTuples(t, "dirty", drainClient(t, dirtyC), refDirty)
	sameTuples(t, "clean", drainClient(t, cleanC), refClean)
	if !sameSchema(dirtyC.Schema(), wireSchema(t)) {
		t.Error("client schema differs from server schema")
	}

	// The log channel carries the ground-truth entries in order.
	entries := readLogChannel(t, tcpAddr)
	if len(entries) != refLog.Len() {
		t.Fatalf("log: got %d entries, want %d", len(entries), refLog.Len())
	}
	for i := range entries {
		g, _ := json.Marshal(entries[i])
		w, _ := json.Marshal(*refLog.At(i))
		if string(g) != string(w) {
			t.Fatalf("log entry %d differs:\ngot  %s\nwant %s", i, g, w)
		}
	}
}

// TestServerMalformedRowFollowsFaultPolicy: a served session treats a
// malformed input row as the in-process runner does, by the process's
// fault policy. Without quarantine the session fails with the row's
// error; with it the row becomes exactly one dead letter and the dirty
// channel carries the in-process Stream's tuples.
func TestServerMalformedRowFollowsFaultPolicy(t *testing.T) {
	const seed, n, bad = 77, 60, 23
	schema := wireSchema(t)
	var b strings.Builder
	b.WriteString("ts,v,sensor\n")
	for i := 0; i < n; i++ {
		v := fmt.Sprint(i)
		if i == bad {
			v = "not-a-number"
		}
		fmt.Fprintf(&b, "2021-06-01T%02d:%02d:00Z,%s,s%d\n", i/60, i%60, v, i%3)
	}
	input := b.String()
	newSource := func() (stream.Source, error) { return csvio.NewReader(strings.NewReader(input), schema) }

	for _, quarantine := range []bool{false, true} {
		t.Run(fmt.Sprintf("quarantine=%v", quarantine), func(t *testing.T) {
			ref := testProcess(seed)
			ref.Fault = core.FaultPolicy{Quarantine: quarantine, DLQ: stream.NewDeadLetterQueue()}
			src, err := newSource()
			if err != nil {
				t.Fatal(err)
			}
			run, err := ref.Stream(src, core.StreamSpec{Reorder: 1})
			if err != nil {
				t.Fatal(err)
			}
			// A run over a CSV reader lends each tuple until the next
			// Next, so the reference keeps clones.
			var want []stream.Tuple
			var refErr error
			for {
				tp, err := run.Source.Next()
				if err != nil {
					if err != io.EOF {
						refErr = err
					}
					break
				}
				want = append(want, tp.Clone())
			}

			proc := testProcess(seed)
			proc.Fault = core.FaultPolicy{Quarantine: quarantine, DLQ: stream.NewDeadLetterQueue()}
			srv, tcpAddr, _ := startServer(t, Config{Proc: proc, NewSource: newSource, Reorder: 1, Buffer: 64, Replay: 1 << 16})
			waitPipelineDone(t, srv)
			err = srv.PipelineErr()
			if !quarantine {
				if _, ok := stream.AsTupleError(refErr); !ok {
					t.Fatalf("in-process run: err = %v, want the malformed row's tuple error", refErr)
				}
				if err == nil || !strings.Contains(err.Error(), refErr.Error()) {
					t.Fatalf("session err = %v, want the malformed row's error %q", err, refErr)
				}
				return
			}
			if refErr != nil || err != nil {
				t.Fatalf("in-process err = %v, session err = %v; want both nil under quarantine", refErr, err)
			}
			dirty, err := Dial(tcpAddr, ChannelDirty)
			if err != nil {
				t.Fatal(err)
			}
			defer dirty.Stop()
			sameTuples(t, "dirty", drainClient(t, dirty), want)
			if got, want := proc.Fault.DLQ.Len(), ref.Fault.DLQ.Len(); got != 1 || want != 1 {
				t.Fatalf("dead letters: session %d, in-process %d; want 1 each", got, want)
			}
		})
	}
}

// readLogChannel subscribes to the log channel over raw TCP and reads
// entries until eof.
func readLogChannel(t *testing.T, addr string) []core.Entry {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, _ := json.Marshal(SubscribeRequest{Channel: ChannelLog})
	if err := WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var entries []core.Entry
	for {
		payload, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case FrameHello:
		case FrameLog:
			entries = append(entries, *f.Entry)
		case FrameEOF:
			return entries
		default:
			t.Fatalf("unexpected frame %q on log channel", f.Type)
		}
	}
}

// TestServerConcurrentClientsIdentical: four concurrent subscribers —
// two from the start (one deliberately slow), two attaching late —
// observe byte-identical dirty streams, and the frame count matches the
// channel's sequence counter (flow conservation). The default block
// policy keeps the slow client lossless.
func TestServerConcurrentClientsIdentical(t *testing.T) {
	const seed, n = 7, 300
	srv, tcpAddr, _ := startServer(t, serverConfig(t, seed, n))

	collect := func(delay time.Duration) []string {
		conn, err := net.Dial("tcp", tcpAddr)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer conn.Close()
		req, _ := json.Marshal(SubscribeRequest{Channel: ChannelDirty})
		if err := WriteFrame(conn, req); err != nil {
			t.Error(err)
			return nil
		}
		br := bufio.NewReader(conn)
		var frames []string
		for {
			payload, err := ReadFrame(br)
			if err != nil {
				t.Errorf("read: %v", err)
				return frames
			}
			f, err := DecodeFrame(payload)
			if err != nil {
				t.Error(err)
				return frames
			}
			if f.Type == FrameHello {
				continue // hello carries no seq; identical by construction
			}
			frames = append(frames, string(payload))
			if f.Type == FrameEOF || f.Type == FrameError {
				return frames
			}
			if delay > 0 && len(frames)%16 == 0 {
				time.Sleep(delay) // a deliberately slow reader
			}
		}
	}

	var mu sync.Mutex
	results := make([][]string, 0, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		if i == 2 {
			<-srv.PipelineDone() // the last two attach after the run: replay path
		}
		var delay time.Duration
		if i == 1 {
			delay = time.Millisecond
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames := collect(delay)
			mu.Lock()
			results = append(results, frames)
			mu.Unlock()
		}()
	}
	wg.Wait()

	if len(results) != 4 {
		t.Fatalf("got %d client results, want 4", len(results))
	}
	for i := 1; i < 4; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("client %d observed a different stream (%d vs %d frames)", i, len(results[i]), len(results[0]))
		}
	}
	// Conservation: every client saw exactly seq frames (n tuples + eof).
	wantFrames := int(srv.Hub().Seq(ChannelDirty))
	if len(results[0]) != wantFrames {
		t.Errorf("clients saw %d frames, channel published %d", len(results[0]), wantFrames)
	}
	if wantFrames != n+1 {
		t.Errorf("dirty channel published %d frames, want %d tuples + eof", wantFrames, n)
	}
}

// gatedSource delays the first Next until the gate channel closes,
// letting tests subscribe clients before the pipeline starts.
type gatedSource struct {
	stream.Source
	gate <-chan struct{}
	once sync.Once
}

func (g *gatedSource) Next() (stream.Tuple, error) {
	g.once.Do(func() { <-g.gate })
	return g.Source.Next()
}

// subscribeRaw opens a raw TCP subscription and reads the hello frame,
// so the hub has definitely registered the subscriber on return.
func subscribeRaw(t *testing.T, addr, channel string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return subscribeConn(t, conn, channel)
}

// subscribeConn subscribes conn to channel and reads the hello.
func subscribeConn(t *testing.T, conn net.Conn, channel string) net.Conn {
	t.Helper()
	req, _ := json.Marshal(SubscribeRequest{Channel: channel})
	if err := WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrame(payload)
	if err != nil || f.Type != FrameHello {
		t.Fatalf("expected hello, got %v (%v)", f, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn
}

// TestServerSlowClientDisconnect: under disconnect-slow, a stalled TCP
// reader is cut by the backpressure policy while the pipeline finishes
// and other clients receive the complete stream.
func TestServerSlowClientDisconnect(t *testing.T) {
	const seed, n = 11, 8000
	gate := make(chan struct{})
	cfg := serverConfig(t, seed, n)
	inner := cfg.NewSource
	cfg.NewSource = func() (stream.Source, error) {
		src, err := inner()
		if err != nil {
			return nil, err
		}
		return &gatedSource{Source: src, gate: gate}, nil
	}
	cfg.Policy = PolicyDisconnectSlow
	cfg.Buffer = 8
	cfg.Replay = 1 << 16
	srv, tcpAddr, _ := startServer(t, cfg)

	// Slow client: subscribed before the pipeline starts, never reads
	// past the hello — the server-side writer blocks once the kernel
	// buffers fill and its hub queue overflows. Its small receive buffer
	// keeps the kernel from taking the whole ~580 KB stream, which would
	// leave the policy nothing to cut.
	conn, err := net.Dial("tcp", tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	slowConn := subscribeConn(t, conn, ChannelDirty)
	defer slowConn.Close()
	close(gate)

	// The pipeline must finish promptly despite the stalled client: the
	// policy cuts the slow subscription instead of throttling the run.
	select {
	case <-srv.PipelineDone():
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline stalled behind the slow client under disconnect-slow")
	}
	if err := srv.PipelineErr(); err != nil {
		t.Fatalf("pipeline error: %v", err)
	}
	if srv.Hub().slowDisconnects.Load() == 0 {
		t.Error("expected the slow client to be disconnected by policy")
	}

	// Another client still receives the entire stream (replay ring).
	fast, err := Dial(tcpAddr, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Stop()
	tuples := drainClient(t, fast)
	if len(tuples) != n {
		t.Fatalf("fast client got %d tuples, want %d", len(tuples), n)
	}
}

// TestServerSlowClientDropOldest: under drop-oldest, the stalled client
// loses frames (counted) but keeps its subscription and still observes
// the terminal frame; the fast client and the pipeline are unaffected.
func TestServerSlowClientDropOldest(t *testing.T) {
	const seed, n = 13, 8000
	gate := make(chan struct{})
	cfg := serverConfig(t, seed, n)
	inner := cfg.NewSource
	cfg.NewSource = func() (stream.Source, error) {
		src, err := inner()
		if err != nil {
			return nil, err
		}
		return &gatedSource{Source: src, gate: gate}, nil
	}
	cfg.Policy = PolicyDropOldest
	cfg.Buffer = 8
	cfg.Replay = 1 << 16
	srv, tcpAddr, _ := startServer(t, cfg)

	slowConn := subscribeRaw(t, tcpAddr, ChannelDirty)
	defer slowConn.Close()
	close(gate)

	// The pipeline must finish promptly: drop-oldest sheds the slow
	// client's load instead of throttling the run.
	select {
	case <-srv.PipelineDone():
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline stalled behind the slow client under drop-oldest")
	}
	if err := srv.PipelineErr(); err != nil {
		t.Fatalf("pipeline error: %v", err)
	}

	// Another client still receives the entire stream (replay ring).
	fast, err := Dial(tcpAddr, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Stop()
	if got := len(drainClient(t, fast)); got != n {
		t.Fatalf("fast client got %d tuples, want %d", got, n)
	}

	// The slow client now drains what survived: a strict subset ending in
	// the terminal eof frame.
	br := bufio.NewReader(slowConn)
	got, lastType := 0, ""
	for {
		_ = slowConn.SetReadDeadline(time.Now().Add(10 * time.Second))
		payload, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("slow drain after %d frames: %v", got, err)
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		got++
		lastType = f.Type
		if f.Type == FrameEOF || f.Type == FrameError {
			break
		}
	}
	if lastType != FrameEOF {
		t.Errorf("slow client's last frame = %s, want eof", lastType)
	}
	if got >= n+1 { // n tuples + eof would be a complete stream (hello already read)
		t.Errorf("slow client received a complete stream (%d frames); expected drops", got)
	}
	if srv.Hub().framesDropped.Load() == 0 {
		t.Error("expected counted drops for the slow client")
	}
}

// flappingProxy forwards TCP to backend but kills every connection after
// limit forwarded bytes, forcing clients to reconnect.
type flappingProxy struct {
	ln    net.Listener
	kills int
	mu    sync.Mutex
}

func newFlappingProxy(t *testing.T, backend string, limit int64) *flappingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flappingProxy{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.relay(conn, backend, limit)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *flappingProxy) relay(client net.Conn, backend string, limit int64) {
	defer client.Close()
	server, err := net.Dial("tcp", backend)
	if err != nil {
		return
	}
	defer server.Close()
	go func() {
		_, _ = io.Copy(server, client) // subscribe request upstream
	}()
	_, _ = io.CopyN(client, server, limit) // bounded downstream, then cut
	p.mu.Lock()
	p.kills++
	p.mu.Unlock()
}

// TestClientSourceReconnect: a ClientSource reads the complete stream
// exactly once through a proxy that kills the connection every few KB —
// reconnect-with-backoff plus from_seq resume.
func TestClientSourceReconnect(t *testing.T) {
	const seed, n = 99, 600
	_, tcpAddr, _ := startServer(t, serverConfig(t, seed, n))
	proxy := newFlappingProxy(t, tcpAddr, 8<<10)

	client, err := Dial(proxy.ln.Addr().String(), ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Stop()
	got, err := stream.Drain(client)
	if err != nil {
		t.Fatalf("drain through flapping proxy: %v", err)
	}
	refDirty, _, _ := referenceRun(t, seed, n, 1)
	sameTuples(t, "reconnected dirty", got, refDirty)

	if client.Reconnects() == 0 {
		t.Error("expected at least one reconnect through the flapping proxy")
	}
	// No duplicates: IDs strictly increase.
	for i := 1; i < len(got); i++ {
		if got[i].ID <= got[i-1].ID {
			t.Fatalf("tuple IDs not strictly increasing at %d: %d after %d", i, got[i].ID, got[i-1].ID)
		}
	}
}

// TestClientSourceErrors covers subscription validation and server-side
// rejection.
func TestClientSourceErrors(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", ChannelLog); err == nil {
		t.Error("expected log-channel subscription to be rejected client-side")
	}
	_, tcpAddr, _ := startServer(t, serverConfig(t, 3, 10))
	if _, err := Dial(tcpAddr, "bogus"); err == nil {
		t.Error("expected unknown channel to be rejected")
	}
}

// TestClientSourceStop: Stop unblocks a reader and latches ErrStopped.
func TestClientSourceStop(t *testing.T) {
	const seed, n = 21, 50
	_, tcpAddr, _ := startServer(t, serverConfig(t, seed, n))
	client, err := Dial(tcpAddr, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Next(); err != nil {
		t.Fatal(err)
	}
	client.Stop()
	for i := 0; i < 3; i++ {
		if _, err := client.Next(); err != stream.ErrStopped {
			t.Fatalf("Next after Stop = %v, want ErrStopped", err)
		}
	}
}

// TestServerHTTP exercises the NDJSON, health and metrics endpoints.
func TestServerHTTP(t *testing.T) {
	const seed, n = 17, 40
	cfg := serverConfig(t, seed, n)
	srv, _, httpAddr := startServer(t, cfg)
	<-srv.PipelineDone()
	base := "http://" + httpAddr

	// NDJSON: hello + n tuples + eof, one JSON object per line.
	resp, err := http.Get(base + "/stream?channel=dirty")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != n+2 {
		t.Fatalf("got %d NDJSON lines, want %d", len(lines), n+2)
	}
	first, last := mustFrame(t, lines[0]), mustFrame(t, lines[len(lines)-1])
	if first.Type != FrameHello || last.Type != FrameEOF {
		t.Errorf("stream frames = %s..%s, want hello..eof", first.Type, last.Type)
	}

	// Replay gap over HTTP is 410 Gone... but only when evicted; here the
	// ring holds everything, so from_seq resumes mid-stream instead.
	resp3, err := http.Get(base + "/stream?channel=dirty&from_seq=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	partial, _ := io.ReadAll(resp3.Body)
	gotLines := strings.Count(strings.TrimSpace(string(partial)), "\n") + 1
	if want := (n - 9) + 1 + 1; gotLines != want { // seq 10..n, hello, eof
		t.Errorf("from_seq=10 returned %d lines, want %d", gotLines, want)
	}

	resp4, err := http.Get(base + "/stream?channel=dirty&from_seq=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("bad from_seq status = %d, want 400", resp4.StatusCode)
	}

	// Health: pipeline done, all channels fully published.
	resp5, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp5.Body.Close()
	var body struct {
		Sessions map[string]SessionStatus `json:"sessions"`
	}
	if err := json.NewDecoder(resp5.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	health := body.Sessions[""]
	if health.State != "done" {
		t.Errorf("health state = %q, want done", health.State)
	}
	if health.DirtySeq != n+1 || health.CleanSeq != n+1 {
		t.Errorf("health seqs = %d/%d, want %d", health.DirtySeq, health.CleanSeq, n+1)
	}

	// Metrics: Prometheus exposition with the net gauges present.
	resp6, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp6.Body.Close()
	prom, _ := io.ReadAll(resp6.Body)
	for _, want := range []string{"icewafl_net_frames_sent_total", "icewafl_net_subscribers"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The same snapshot as JSON; any other format is refused.
	if snap := metricsJSON(t, base); snap.Gauges["icewafl_net_sessions"] != 1 {
		t.Errorf("metrics JSON gauges = %v, want one session", snap.Gauges)
	}
	resp7, err := http.Get(base + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp7.Body.Close()
	if resp7.StatusCode != http.StatusBadRequest {
		t.Errorf("/metrics?format=xml: HTTP %d, want 400", resp7.StatusCode)
	}
}

func mustFrame(t *testing.T, line string) *Frame {
	t.Helper()
	f, err := DecodeFrame([]byte(line))
	if err != nil {
		t.Fatalf("bad frame line %q: %v", line, err)
	}
	return f
}

// TestServerGracefulDrain: cancelling the serve context lets a connected
// subscriber finish reading buffered frames before the connection
// closes.
func TestServerGracefulDrain(t *testing.T) {
	const seed, n = 31, 100
	cfg := serverConfig(t, seed, n)
	cfg.DrainTimeout = 5 * time.Second
	srv, tcpAddr, _, stop := startStoppableServer(t, cfg)
	done := make(chan struct{})

	client, err := Dial(tcpAddr, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Stop()
	<-srv.PipelineDone()
	go func() {
		defer close(done)
		stop() // shutdown begins while the client still has everything to read
	}()

	tuples, err := stream.Drain(client)
	if err != nil {
		t.Fatalf("drain during graceful shutdown: %v", err)
	}
	if len(tuples) != n {
		t.Errorf("client got %d tuples through the drain, want %d", len(tuples), n)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after drain")
	}
}
