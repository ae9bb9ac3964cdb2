// Crash-recovery tests for the durable service runtime: WAL-backed
// replay across server restarts, checkpoint resume of an interrupted
// pipeline with no duplicated or skipped sequence numbers, supervised
// in-process session restarts, quarantine reporting, and the bounded
// drain under a stuck subscriber.
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
	if len(entries) != len(refLog.Entries) {
		t.Fatalf("log after restart: %d entries, want %d", len(entries), len(refLog.Entries))
	}
	for i := range entries {
		if !reflect.DeepEqual(entries[i], refLog.Entries[i]) {
			t.Fatalf("log entry %d differs after restart:\ngot  %+v\nwant %+v", i, entries[i], refLog.Entries[i])
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
	if len(entries) != len(refLog.Entries) {
		t.Fatalf("log across crash: %d entries, want %d", len(entries), len(refLog.Entries))
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

// TestServerSuperviseRestartsSession: under Supervise a fatal session
// failure restarts the pipeline in-process; with the WAL and checkpoint
// armed the restarted session continues the stream seamlessly and the
// restart is counted.
func TestServerSuperviseRestartsSession(t *testing.T) {
	const seed, n, dieAt = 47, 120, 50
	stateDir := t.TempDir()
	refDirty, _, _ := referenceRun(t, seed, n, 1)

	cfg := serverConfig(t, seed, n)
	cfg.StateDir = stateDir
	cfg.CheckpointEvery = 8
	cfg.Supervise = true
	cfg.RestartBudget = 3
	cfg.RestartWindow = time.Minute
	cfg.RestartBackoff = time.Millisecond
	src := cfg.NewSource
	attempts := 0
	cfg.NewSource = func() (stream.Source, error) {
		attempts++
		inner, err := src()
		if err != nil {
			return nil, err
		}
		if attempts == 1 {
			return &failAfterSource{Source: inner, left: dieAt}, nil
		}
		return inner, nil
	}
	srv, addr, httpAddr, _ := startStoppableServer(t, cfg)
	waitPipelineDone(t, srv)
	if err := srv.PipelineErr(); err != nil {
		t.Fatalf("supervised run did not recover: %v", err)
	}
	if got := srv.Supervisor().Restarts(); got != 1 {
		t.Fatalf("Restarts() = %d, want 1", got)
	}
	if srv.Supervisor().Quarantined() {
		t.Fatal("session quarantined despite recovering")
	}

	c, err := Dial(addr, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "dirty across supervised restart", drainClient(t, c), refDirty)

	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Sessions map[string]map[string]any `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	health := body.Sessions[""]
	if health["restarts"] != float64(1) {
		t.Fatalf("healthz restarts = %v, want 1 (%v)", health["restarts"], health)
	}
	if health["state"] == "quarantined" {
		t.Fatalf("healthz reports quarantine on a recovered session: %v", health)
	}
}

// TestServerQuarantineOnRestartBudget: a session that keeps dying
// exhausts its restart budget, is quarantined instead of crash-looping,
// and /healthz reports it.
func TestServerQuarantineOnRestartBudget(t *testing.T) {
	const seed, n = 53, 100
	cfg := serverConfig(t, seed, n)
	cfg.StateDir = t.TempDir()
	cfg.Supervise = true
	cfg.RestartBudget = 2
	cfg.RestartWindow = time.Minute
	cfg.RestartBackoff = time.Millisecond
	cfg.NewSource = func() (stream.Source, error) {
		return nil, errors.New("source permanently broken")
	}
	srv, _, httpAddr, _ := startStoppableServer(t, cfg)
	waitPipelineDone(t, srv)
	err := srv.PipelineErr()
	if err == nil || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("pipeline error = %v, want quarantine", err)
	}
	if !srv.Supervisor().Quarantined() {
		t.Fatal("Quarantined() = false after budget exhaustion")
	}
	if got := srv.Supervisor().Restarts(); got != 2 {
		t.Fatalf("Restarts() = %d, want 2", got)
	}

	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Sessions map[string]map[string]any `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	health := body.Sessions[""]
	if health["state"] != "quarantined" {
		t.Fatalf("healthz state = %v, want quarantined (%v)", health["state"], health)
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

// gapSource always fails with a replay gap and counts the attempts.
type gapSource struct {
	schema *stream.Schema
	calls  int
}

func (g *gapSource) Schema() *stream.Schema { return g.schema }
func (g *gapSource) Next() (stream.Tuple, error) {
	g.calls++
	return stream.Tuple{}, fmt.Errorf("wrapped: %w", &GapError{Channel: ChannelDirty, Requested: 3, LastAcked: 2, ServerMin: 90})
}

// TestGapErrorTyped: the client maps a server-side replay gap to the
// typed, permanent GapError carrying both resume coordinates, and the
// retry layer refuses to retry it.
func TestGapErrorTyped(t *testing.T) {
	gap := &GapError{Channel: ChannelDirty, Requested: 3, LastAcked: 2, ServerMin: 90}
	if !errors.Is(gap, ErrGap) {
		t.Fatal("GapError does not unwrap to ErrGap")
	}
	if !stream.IsPermanent(gap) {
		t.Fatal("GapError is not permanent")
	}

	// The default retry policy must surface the permanent error on the
	// first attempt instead of burning its retry budget.
	src := &gapSource{schema: wireSchema(t)}
	rs := stream.NewRetrySource(src, stream.RetryPolicy{MaxRetries: 5, Sleep: func(time.Duration) {}})
	_, err := rs.Next()
	var got *GapError
	if !errors.As(err, &got) {
		t.Fatalf("RetrySource returned %v, want the GapError", err)
	}
	if src.calls != 1 {
		t.Fatalf("permanent gap was attempted %d times, want 1", src.calls)
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
	if !stream.IsPermanent(gap) {
		t.Fatal("wire GapError is not permanent")
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
