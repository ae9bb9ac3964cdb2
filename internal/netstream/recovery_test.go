// Crash-recovery tests for the durable service runtime: WAL-backed
// replay across server restarts, checkpoint resume of an interrupted
// pipeline with no duplicated or skipped sequence numbers, a panicking
// session failing alone, and the bounded drain under a stuck subscriber.
package netstream

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

// startStoppableServer runs cfg as the unnamed session of a Service
// served over loopback TCP and HTTP, and returns the session's server,
// the two addresses and a stop function, so a test can shut one server
// down completely (WALs closed) before starting its successor over the
// same state directory.
func startStoppableServer(t *testing.T, cfg Config) (srv *Server, tcpAddr, httpAddr string, stop func()) {
	t.Helper()
	if cfg.Schema == nil {
		cfg.Schema = wireSchema(t)
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 100 * time.Millisecond
	}
	svc, err := NewService(ServiceConfig{Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := svc.Serve(ctx, tcpLn, httpLn); err != nil {
			t.Logf("serve: %v", err)
		}
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
	t.Cleanup(stop)
	return sess.Server(), tcpLn.Addr().String(), httpLn.Addr().String(), stop
}

// failAfterSource emits the first n tuples of the wrapped source, then
// fails with a fatal (non-tuple, non-EOF) error — the in-process stand-
// in for a crashing session.
type failAfterSource struct {
	stream.Source
	left int
}

func (f *failAfterSource) Next() (stream.Tuple, error) {
	if f.left == 0 {
		return stream.Tuple{}, errors.New("injected fatal source failure")
	}
	f.left--
	return f.Source.Next()
}

// panicSource emits left tuples of the wrapped source, then panics in
// Next.
type panicSource struct {
	stream.Source
	left int
}

func (p *panicSource) Next() (stream.Tuple, error) {
	if p.left == 0 {
		panic("injected source panic")
	}
	p.left--
	return p.Source.Next()
}

// frameSeqs subscribes raw from fromSeq and returns the sequence
// numbers of every tuple frame until EOF.
func frameSeqs(t *testing.T, addr, channel string, fromSeq uint64) []uint64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, _ := json.Marshal(SubscribeRequest{Channel: channel, FromSeq: fromSeq})
	if err := WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	br := bufio.NewReader(conn)
	var seqs []uint64
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
		case FrameTuple:
			seqs = append(seqs, f.Seq)
		case FrameEOF:
			return seqs
		default:
			t.Fatalf("unexpected frame %q", f.Type)
		}
	}
}

// sessionLogCheckpoint opens the session log of a stopped server's state
// dir and returns its newest checkpoint.
func sessionLogCheckpoint(t *testing.T, stateDir string) (*core.Checkpoint, error) {
	t.Helper()
	w, err := OpenWAL(filepath.Join(stateDir, "wal"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	return w.Checkpoint()
}

// waitPipelineDone blocks until the server's pipeline run finishes.
func waitPipelineDone(t *testing.T, srv *Server) {
	t.Helper()
	select {
	case <-srv.PipelineDone():
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline never finished")
	}
}

// TestServerWALReplayAcrossRestart: a daemon restarted over a completed
// durable run serves every channel entirely from the WAL — without
// re-running the pipeline — byte-identical to the original, including
// mid-stream from_seq resumes.
func TestServerWALReplayAcrossRestart(t *testing.T) {
	const seed, n = 41, 200
	stateDir := t.TempDir()
	refDirty, refClean, refLog := referenceRun(t, seed, n, 1)

	cfg := serverConfig(t, seed, n)
	cfg.StateDir = stateDir
	srv1, addr1, _, stop1 := startStoppableServer(t, cfg)
	waitPipelineDone(t, srv1)
	if err := srv1.PipelineErr(); err != nil {
		t.Fatalf("first run failed: %v", err)
	}
	c1, err := Dial(addr1, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "dirty before restart", drainClient(t, c1), refDirty)
	stop1()

	// The restarted server must never re-run the pipeline: a completed
	// durable run serves from the log alone.
	cfg2 := serverConfig(t, seed, n)
	cfg2.StateDir = stateDir
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
	sameTuples(t, "dirty after restart", drainClient(t, c2), refDirty)
	cc, err := Dial(addr2, ChannelClean)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "clean after restart", drainClient(t, cc), refClean)
	entries := readLogChannel(t, addr2)
	if len(entries) != refLog.Len() {
		t.Fatalf("log after restart: %d entries, want %d", len(entries), refLog.Len())
	}
	for i := range entries {
		if !reflect.DeepEqual(entries[i], *refLog.At(i)) {
			t.Fatalf("log entry %d differs after restart:\ngot  %+v\nwant %+v", i, entries[i], *refLog.At(i))
		}
	}

	// Mid-stream resume straight out of the WAL.
	mid := uint64(n / 2)
	seqs := frameSeqs(t, addr2, ChannelDirty, mid)
	if uint64(len(seqs)) != uint64(n)-mid+1 {
		t.Fatalf("from_seq=%d: got %d frames, want %d", mid, len(seqs), uint64(n)-mid+1)
	}
	for i, s := range seqs {
		if s != mid+uint64(i) {
			t.Fatalf("resume out of order at %d: seq %d, want %d", i, s, mid+uint64(i))
		}
	}
}

// TestServerCheckpointResumeMidRun is the acceptance test of the
// tentpole recovery path: the pipeline dies mid-run, the restarted
// server resumes from the durable checkpoint, re-served frames continue
// the WAL sequence with no duplicates or gaps, and a client draining
// the restarted server observes a stream byte-identical to an
// uninterrupted run.
func TestServerCheckpointResumeMidRun(t *testing.T) {
	const seed, n, dieAt = 43, 160, 70
	stateDir := t.TempDir()
	refDirty, refClean, refLog := referenceRun(t, seed, n, 1)

	cfg := serverConfig(t, seed, n)
	cfg.StateDir = stateDir
	cfg.CheckpointEvery = 16
	cfg.WAL = WALOptions{FsyncEvery: 8}
	src := cfg.NewSource
	cfg.NewSource = func() (stream.Source, error) {
		inner, err := src()
		if err != nil {
			return nil, err
		}
		return &failAfterSource{Source: inner, left: dieAt}, nil
	}
	srv1, _, _, stop1 := startStoppableServer(t, cfg)
	waitPipelineDone(t, srv1)
	if err := srv1.PipelineErr(); err == nil {
		t.Fatal("first run was supposed to die mid-stream")
	}
	stop1()

	ck, err := sessionLogCheckpoint(t, stateDir)
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint survived the crash: %v", err)
	}
	if ck.Offsets["net."+ChannelDirty] == 0 {
		t.Fatalf("checkpoint carries no dirty cursor: %+v", ck.Offsets)
	}

	cfg2 := serverConfig(t, seed, n)
	cfg2.StateDir = stateDir
	cfg2.CheckpointEvery = 16
	cfg2.WAL = WALOptions{FsyncEvery: 8}
	srv2, addr2, _, _ := startStoppableServer(t, cfg2)
	waitPipelineDone(t, srv2)
	if err := srv2.PipelineErr(); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if srv2.Hub().Recovered() == 0 {
		t.Fatal("resume never exercised the suppression window (recovered = 0)")
	}

	c, err := Dial(addr2, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "dirty across crash", drainClient(t, c), refDirty)
	cc, err := Dial(addr2, ChannelClean)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "clean across crash", drainClient(t, cc), refClean)
	entries := readLogChannel(t, addr2)
	if len(entries) != refLog.Len() {
		t.Fatalf("log across crash: %d entries, want %d", len(entries), refLog.Len())
	}

	// Never double-serve or skip a sequence: the full dirty frame
	// sequence is exactly 1..n.
	seqs := frameSeqs(t, addr2, ChannelDirty, 1)
	if len(seqs) != n {
		t.Fatalf("dirty frames across crash: %d, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("sequence broken at %d: seq %d, want %d (duplicate or gap across restart)", i, s, i+1)
		}
	}
}

// TestServiceSessionPanicFailsAlone: a source that panics in Next fails
// its own session — state failed with the panic as its error, an error
// frame to its subscriber, /healthz degraded — while a sibling session
// of the same service drains byte-identical to its reference, and the
// process survives.
func TestServiceSessionPanicFailsAlone(t *testing.T) {
	const seed, n = 59, 200
	svc, tcpAddr, baseURL := startService(t, ServiceConfig{})
	for name, spec := range map[string]testSessionSpec{
		"steady": {Seed: seed, N: n},
		"boom":   {Seed: seed, N: n, PanicAt: 50},
	} {
		if status, body := createSession(t, baseURL, "alpha", name, specJSON(t, spec)); status != http.StatusCreated {
			t.Fatalf("create alpha/%s: HTTP %d: %v", name, status, body)
		}
	}

	conn := subscribeTCP(t, tcpAddr, "alpha/boom/"+ChannelDirty, 0)
	tuples, terminal := readTCPFrames(t, conn)
	conn.Close()
	if terminal.Type != FrameError || !strings.Contains(terminal.Error, "panic") {
		t.Fatalf("panicking session ended with %q frame %q, want an error frame naming the panic", terminal.Type, terminal.Error)
	}
	if len(tuples) != 50 {
		t.Fatalf("panicking session delivered %d tuples, want the 50 before the panic", len(tuples))
	}

	refDirty, _, _ := referenceRun(t, seed, n, 1)
	conn = subscribeTCP(t, tcpAddr, "alpha/steady/"+ChannelDirty, 0)
	tuples, terminal = readTCPFrames(t, conn)
	conn.Close()
	if terminal.Type != FrameEOF {
		t.Fatalf("sibling session ended with %q: %s", terminal.Type, terminal.Error)
	}
	sameTuples(t, "sibling of a panicking session", tuples, refDirty)

	for _, name := range []string{"boom", "steady"} {
		sess, ok := svc.Get("alpha", name)
		if !ok {
			t.Fatalf("alpha/%s gone", name)
		}
		waitPipelineDone(t, sess.Server())
	}
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		State    string                   `json:"state"`
		Sessions map[string]SessionStatus `json:"sessions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	boom, steady := health.Sessions["alpha/boom"], health.Sessions["alpha/steady"]
	if health.State != "degraded" || boom.State != "failed" || !strings.Contains(boom.Error, "panic") || steady.State != "done" {
		t.Fatalf("healthz: state %s, boom %s (%s), steady %s; want degraded, failed with the panic, done",
			health.State, boom.State, boom.Error, steady.State)
	}
}

// TestServerDrainExpiredOnStuckSubscriber: a subscriber that stops
// reading under the block policy wedges its handler in a TCP write; the
// drain deadline must still bound shutdown, force-close the connection,
// and mark the drain expired (the daemon exits non-zero on it).
func TestServerDrainExpiredOnStuckSubscriber(t *testing.T) {
	// n must outgrow what the loopback socket buffers absorb (~4 MiB), or
	// the pipeline finishes into the kernel instead of wedging; binary
	// frames are a third the size the JSON ones were.
	const seed, n = 59, 400000
	cfg := serverConfig(t, seed, n)
	cfg.Policy = PolicyBlock
	cfg.Buffer = 16
	cfg.DrainTimeout = 300 * time.Millisecond
	srv, addr, _, stop := startStoppableServer(t, cfg)

	// Subscribe and never read past the hello: the send queue fills, the
	// handler wedges in the TCP write once the socket buffers fill, and
	// the pipeline blocks in Publish. Wait until the publish cursor
	// actually stalls before shutting down, so the drain path is
	// exercised against a genuinely wedged pipeline.
	conn := subscribeRaw(t, addr, ChannelDirty)
	defer conn.Close()
	var last uint64
	stable := 0
	wedgeDeadline := time.Now().Add(30 * time.Second)
	for stable < 3 {
		if time.Now().After(wedgeDeadline) {
			t.Fatalf("pipeline never wedged (seq %d of %d)", last, n)
		}
		time.Sleep(100 * time.Millisecond)
		cur := srv.Hub().Seq(ChannelDirty)
		if cur > 0 && cur == last {
			stable++
		} else {
			stable, last = 0, cur
		}
	}
	if last >= n {
		t.Fatalf("pipeline finished (%d frames) instead of wedging on the stuck subscriber", last)
	}

	start := time.Now()
	stop()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown with a stuck subscriber took %v", elapsed)
	}
	if !srv.DrainExpired() {
		t.Fatal("DrainExpired() = false after force-closing a stuck subscriber")
	}
}

// TestGapErrorTyped: a replay gap is typed, carries both resume
// coordinates, and unwraps to ErrGap.
func TestGapErrorTyped(t *testing.T) {
	var err error = fmt.Errorf("wrapped: %w", &GapError{Channel: ChannelDirty, Requested: 3, LastAcked: 2, ServerMin: 90})
	if !errors.Is(err, ErrGap) {
		t.Fatal("GapError does not unwrap to ErrGap")
	}
	var gap *GapError
	if !errors.As(err, &gap) || gap.Requested != 3 || gap.LastAcked != 2 || gap.ServerMin != 90 {
		t.Fatalf("GapError through wrapping = %+v", gap)
	}
}

// scriptedServer answers the i-th subscription on a loopback listener
// with the frames of script[i] and then drops the connection; any later
// subscription is dropped at once. It returns the listener and the count
// of accepted connections.
func scriptedServer(t *testing.T, script ...[]*Frame) (net.Listener, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			i := int(accepted.Add(1)) - 1
			if _, err := ReadFrame(conn); err == nil && i < len(script) {
				for _, f := range script[i] {
					payload, err := EncodeFrame(f)
					if err != nil || WriteFrame(conn, payload) != nil {
						break
					}
				}
			}
			conn.Close()
		}
	}()
	return ln, &accepted
}

// setReconnectWaits sets the client's backoff waits for one test.
func setReconnectWaits(t *testing.T, base, max time.Duration) {
	oldBase, oldMax := reconnectBase, reconnectMax
	reconnectBase, reconnectMax = base, max
	t.Cleanup(func() { reconnectBase, reconnectMax = oldBase, oldMax })
}

// TestClientSourceServerAnswerEndsNext: an error frame and a replay gap
// are the server's answers, not transport failures — Next returns them
// on the first attempt, without a reconnect.
func TestClientSourceServerAnswerEndsNext(t *testing.T) {
	hello := &Frame{Type: FrameHello, Channel: ChannelDirty, Schema: SchemaDocument(wireSchema(t))}

	ln, accepted := scriptedServer(t, []*Frame{hello, {Type: FrameError, Error: "pipeline failed"}})
	c, err := Dial(ln.Addr().String(), ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.Next(); err == nil || !strings.Contains(err.Error(), "server error: pipeline failed") {
		t.Fatalf("Next after an error frame = %v", err)
	}
	if c.Reconnects() != 0 || accepted.Load() != 1 {
		t.Fatalf("error frame: %d reconnects, %d connections, want 0 and 1", c.Reconnects(), accepted.Load())
	}

	// The first connection drops after its hello; the re-dial is answered
	// with a gap, which ends Next instead of spending the budget.
	ln, accepted = scriptedServer(t, []*Frame{hello}, []*Frame{{Type: FrameError, Error: "gap", Gap: &GapInfo{Requested: 1, ServerMin: 5}}})
	c, err = Dial(ln.Addr().String(), ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	_, err = c.Next()
	var gap *GapError
	if !errors.As(err, &gap) || gap.ServerMin != 5 {
		t.Fatalf("Next after a gap answer = %v, want the GapError", err)
	}
	if c.Reconnects() != 0 || accepted.Load() != 2 {
		t.Fatalf("gap: %d reconnects, %d connections, want 0 and 2", c.Reconnects(), accepted.Load())
	}
}

// TestClientSourceStopCutsBackoff: Stop ends a Next that is waiting to
// re-dial with ErrStopped at once, not after the wait.
func TestClientSourceStopCutsBackoff(t *testing.T) {
	setReconnectWaits(t, time.Minute, time.Minute) // lengthened: the wait must be cut
	ln, _ := scriptedServer(t, []*Frame{{Type: FrameHello, Channel: ChannelDirty, Schema: SchemaDocument(wireSchema(t))}})
	c, err := Dial(ln.Addr().String(), ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Next()
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // the connection drops; Next waits
	stopped := time.Now()
	c.Stop()
	select {
	case err := <-done:
		if err != stream.ErrStopped {
			t.Fatalf("Next after Stop = %v, want ErrStopped", err)
		}
		if d := time.Since(stopped); d > 100*time.Millisecond {
			t.Fatalf("Next returned %v after Stop", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not cut the backoff short")
	}
}

// TestClientSourceReconnectBudget: against a closed port the re-dials
// run out and Next returns the last dial error.
func TestClientSourceReconnectBudget(t *testing.T) {
	setReconnectWaits(t, time.Millisecond, 2*time.Millisecond)
	ln, accepted := scriptedServer(t, []*Frame{{Type: FrameHello, Channel: ChannelDirty, Schema: SchemaDocument(wireSchema(t))}})
	c, err := Dial(ln.Addr().String(), ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ln.Close()
	_, err = c.Next()
	if !errors.Is(err, syscall.ECONNREFUSED) || !strings.Contains(err.Error(), "netstream: dial") {
		t.Fatalf("Next against a closed port = %v, want the dial error", err)
	}
	if c.Reconnects() != 0 || accepted.Load() != 1 {
		t.Fatalf("%d reconnects, %d connections, want 0 and 1", c.Reconnects(), accepted.Load())
	}
}

// TestClientSourceGapError: end-to-end over TCP — a reconnect past the
// server's replay retention yields the typed GapError with the server's
// minimum retained sequence, and RestartAt resumes there.
func TestClientSourceGapError(t *testing.T) {
	const seed, n = 61, 400
	cfg := serverConfig(t, seed, n)
	cfg.Replay = 32 // tiny ring: early frames evict quickly
	srv, addr, _, _ := startStoppableServer(t, cfg)
	waitPipelineDone(t, srv)

	_, err := Dial(addr, ChannelDirty) // from_seq 0 → oldest is long gone
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("expected GapError, got %v", err)
	}
	if gap.ServerMin == 0 || gap.ServerMin <= 1 {
		t.Fatalf("GapError.ServerMin = %d, want the ring's oldest retained seq", gap.ServerMin)
	}
	if gap.Channel != ChannelDirty {
		t.Fatalf("GapError.Channel = %q", gap.Channel)
	}

	// The recovery hook: restart the subscription at the server minimum.
	c, err := DialFrom(addr, ChannelDirty, gap.ServerMin, 5*time.Second)
	if err != nil {
		t.Fatalf("resume at server minimum: %v", err)
	}
	tuples, err := stream.Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(uint64(n) - gap.ServerMin + 1); len(tuples) != want {
		t.Fatalf("resumed read: %d tuples, want %d", len(tuples), want)
	}
}
