package netstream

// The frame path end to end: what the HTTP edge renders from binary
// payloads, a state directory an older (JSON) build left behind, the
// socket-write coalescing rule, and the bounded subscribe request.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

// parentLines is a channel's stream as the JSON build put it on the
// wire: json.Marshal of the hello, of every data frame built the old
// way (the reference views of wire_test.go, &Entry), and of the eof.
func parentLines(t *testing.T, channel string, tuples []stream.Tuple, entries []core.Entry) []string {
	t.Helper()
	schema := wireSchema(t)
	frames := []*Frame{{Type: FrameHello, Channel: channel, Schema: SchemaDocument(schema)}}
	add := func(f *Frame) {
		f.Channel, f.Seq = channel, uint64(len(frames))
		frames = append(frames, f)
	}
	for i := range entries {
		add(&Frame{Type: FrameLog, Entry: &entries[i]})
	}
	for _, tu := range tuples {
		add(&Frame{Type: FrameTuple, Tuple: jsonBuildTuple(tu)})
	}
	add(&Frame{Type: FrameEOF})
	lines := make([]string, len(frames))
	for i, f := range frames {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(data)
	}
	return lines
}

// fetchLines is streamLines for a goroutine that must not fail the
// test itself: one HTTP stream's non-empty lines.
func fetchLines(url string) ([]string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return strings.FieldsFunc(string(body), func(r rune) bool { return r == '\n' }), nil
}

// sameLines compares an HTTP stream with the parent's rendering.
func sameLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d differs from the JSON build's:\ngot  %s\nwant %s", label, i, got[i], want[i])
		}
	}
}

// TestHTTPEdgeMatchesJSONBuild: every NDJSON line of a served run
// equals json.Marshal of the frame the JSON build published,
// whether the frame reaches the handler live, from the replay ring or
// from the WAL.
func TestHTTPEdgeMatchesJSONBuild(t *testing.T) {
	const seed, n = 21, 60
	dirty, clean, plog := referenceRun(t, seed, n, 1)
	for _, tc := range []struct {
		name string
		wal  bool
	}{{"ring", false}, {"wal", true}} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			cfg := serverConfig(t, seed, n)
			cfg.NewSource = func() (stream.Source, error) {
				return &gatedSource{Source: testSource(wireSchema(t), n), gate: gate}, nil
			}
			if tc.wal {
				cfg.StateDir = t.TempDir()
			}
			srv, _, httpAddr := startServer(t, cfg)
			want := map[string][]string{
				ChannelDirty: parentLines(t, ChannelDirty, dirty, nil),
				ChannelClean: parentLines(t, ChannelClean, clean, nil),
				ChannelLog:   parentLines(t, ChannelLog, nil, plog.Entries),
			}

			// Live: subscribed before the first publish.
			type capture struct {
				channel string
				lines   []string
				err     error
			}
			live := make(chan capture)
			subs := len(Channels())
			for _, ch := range Channels() {
				go func() {
					lines, err := fetchLines("http://" + httpAddr + "/stream?channel=" + ch)
					live <- capture{ch, lines, err}
				}()
			}
			for deadline := time.Now().Add(10 * time.Second); srv.Hub().SubscriberCount() < int64(subs); {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d subscribers registered", srv.Hub().SubscriberCount(), subs)
				}
				time.Sleep(time.Millisecond)
			}
			close(gate)
			for i := 0; i < subs; i++ {
				c := <-live
				if c.err != nil {
					t.Fatalf("live %s: %v", c.channel, c.err)
				}
				sameLines(t, "live "+c.channel, c.lines, want[c.channel])
			}

			// Replay: subscribed after the run, from the ring or the WAL.
			waitPipelineDone(t, srv)
			for _, ch := range Channels() {
				sameLines(t, "replay "+ch, streamLines(t, "http://"+httpAddr+"/stream?channel="+ch), want[ch])
			}
			resumed := streamLines(t, "http://"+httpAddr+"/stream?channel=clean&from_seq=41")
			sameLines(t, "resume clean", resumed[1:], want[ChannelClean][41:])
		})
	}
}

// TestRecoverJSONStateDir: a state dir in the layout of older builds —
// one log per channel under wal/<channel> (whose records may be JSON),
// or checkpoint/ck.json — is refused, not read or converted. The
// unnamed session fails to start with ErrOldStateDir naming the
// directory, Recover logs and skips such a named session, a create of
// the same name is refused too, and none of them touches the old files.
func TestRecoverJSONStateDir(t *testing.T) {
	const seed, n = 33, 200
	oldLog := func(t *testing.T, dir string) string {
		w, err := OpenWAL(filepath.Join(dir, "wal", ChannelDirty), WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(1, false, []byte(`{"type":"tuple","channel":"dirty","seq":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, "wal", ChannelDirty, fmt.Sprintf("%020d%s", 1, walSuffix))
	}
	oldCheckpoint := func(t *testing.T, dir string) string {
		path := filepath.Join(dir, "checkpoint", "ck.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := core.WriteCheckpoint(path, &core.Checkpoint{Version: core.CheckpointVersion}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	refused := func(t *testing.T, err error, dir, kept string) {
		t.Helper()
		if !errors.Is(err, ErrOldStateDir) || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "build that wrote it") {
			t.Fatalf("err = %v, want ErrOldStateDir naming %s and the build that wrote it", err, dir)
		}
		if _, serr := os.Stat(kept); serr != nil {
			t.Fatalf("the refused state was touched: %v", serr)
		}
	}
	for name, write := range map[string]func(*testing.T, string) string{"wal": oldLog, "checkpoint": oldCheckpoint} {
		t.Run("unnamed/"+name, func(t *testing.T) {
			stateDir := t.TempDir()
			kept := write(t, stateDir)
			svc, err := NewService(ServiceConfig{StateDir: stateDir})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			_, err = svc.Start(serverConfig(t, seed, n))
			refused(t, err, stateDir, kept)
		})
	}
	t.Run("named", func(t *testing.T) {
		stateDir := t.TempDir()
		sessDir := filepath.Join(stateDir, "alpha", "old")
		kept := oldLog(t, sessDir)
		req := durableRequest(t, "alpha", "old", seed, n)
		if err := writeSpecFile(nil, filepath.Join(sessDir, "spec.json"), req); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var logs []string
		svc, _, _ := startService(t, ServiceConfig{StateDir: stateDir, Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		}})
		ids, err := svc.Recover()
		if err != nil || len(ids) != 0 {
			t.Fatalf("Recover = %v, %v; want the old session skipped", ids, err)
		}
		mu.Lock()
		logged := strings.Join(logs, "\n")
		mu.Unlock()
		if !strings.Contains(logged, "recover: session alpha/old") || !strings.Contains(logged, ErrOldStateDir.Error()) {
			t.Fatalf("no logged refusal for alpha/old:\n%s", logged)
		}
		_, err = svc.Create(req)
		refused(t, err, sessDir, kept)
		if _, err := os.Stat(filepath.Join(sessDir, "spec.json")); err != nil {
			t.Fatalf("the refused session's spec was removed: %v", err)
		}
	})
}

// coalesceServer serves srv's dirty channel to one TCP subscriber
// through streamTCP (no pipeline runs; the test publishes) and returns
// the client side with the hello already read.
func coalesceServer(t *testing.T, policy Policy, buffer int, throttle throttleFunc) (*Server, net.Conn) {
	t.Helper()
	cfg := serverConfig(t, 1, 1)
	cfg.Policy, cfg.Buffer = policy, buffer
	srv, err := newServer(cfg, "", obs.NewRegistry(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		srv.streamTCP(conn, ChannelDirty, 0, throttle)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		ln.Close()
		srv.Hub().Close()
		<-done
	})
	if f := readFrameWithin(t, conn, 5*time.Second); f.Type != FrameHello {
		t.Fatalf("first frame is %q, want hello", f.Type)
	}
	return srv, conn
}

// readFrameWithin reads one frame or fails the test after d — far below
// the test timeout, so a frame parked in a write buffer shows as a
// failure, not a hang.
func readFrameWithin(t *testing.T, conn net.Conn, d time.Duration) *Frame {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(d))
	payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("no frame within %v: %v", d, err)
	}
	f, err := DecodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCoalescingNeverParksAFrame: a frame published to an idle TCP
// subscriber arrives without a second publish pushing it out, under
// every backpressure policy and with a tenant throttle attached; and a
// burst far larger than the subscriber queue arrives complete and in
// order.
func TestCoalescingNeverParksAFrame(t *testing.T) {
	tu := codecCases[0].tuple(wireSchema(t), 0)
	unlimited := newTenantState("t", TenantQuota{BytesPerSec: 1 << 30})
	for _, tc := range []struct {
		name     string
		policy   Policy
		throttle throttleFunc
	}{
		{"block", PolicyBlock, nil},
		{"drop-oldest", PolicyDropOldest, nil},
		{"disconnect-slow", PolicyDisconnectSlow, nil},
		{"block throttled", PolicyBlock, func(n int, beforeSleep func() error) error {
			return unlimited.throttle(context.Background(), n, beforeSleep)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, conn := coalesceServer(t, tc.policy, 4096, tc.throttle)
			for seq := uint64(1); seq <= 3; seq++ {
				if err := srv.Hub().PublishTuple(ChannelDirty, tu); err != nil {
					t.Fatal(err)
				}
				if f := readFrameWithin(t, conn, 2*time.Second); f.Seq != seq {
					t.Fatalf("idle frame: seq %d, want %d", f.Seq, seq)
				}
			}
			const burst = 3000
			for i := 0; i < burst; i++ {
				if err := srv.Hub().PublishTuple(ChannelDirty, tu); err != nil {
					t.Fatal(err)
				}
			}
			for seq := uint64(4); seq < 4+burst; seq++ {
				if f := readFrameWithin(t, conn, 5*time.Second); f.Seq != seq {
					t.Fatalf("burst: seq %d, want %d", f.Seq, seq)
				}
			}
			if n := srv.reg.Histogram(obs.StageNetSend).Count; n != 1+3+burst {
				t.Errorf("StageNetSend observed %d times for %d frames", n, 1+3+burst)
			}
		})
	}

	t.Run("block small queue", func(t *testing.T) {
		srv, conn := coalesceServer(t, PolicyBlock, 8, nil)
		const burst = 5000
		go func() {
			for i := 0; i < burst; i++ {
				if err := srv.Hub().PublishTuple(ChannelDirty, tu); err != nil {
					return
				}
			}
		}()
		for seq := uint64(1); seq <= burst; seq++ {
			if f := readFrameWithin(t, conn, 5*time.Second); f.Seq != seq {
				t.Fatalf("burst: seq %d, want %d", f.Seq, seq)
			}
		}
	})
}

// TestThrottleSleepFlushesFirst: when the tenant's token bucket makes
// the writer sleep, the frames already in the write buffer are on the
// socket before the sleep starts.
func TestThrottleSleepFlushesFirst(t *testing.T) {
	tu := codecCases[0].tuple(wireSchema(t), 0)
	frame := len(appendTuple(nil, 1, ChannelDirty, &tu))
	hello, err := EncodeFrame(&Frame{Type: FrameHello, Channel: ChannelDirty, Schema: SchemaDocument(wireSchema(t))})
	if err != nil {
		t.Fatal(err)
	}
	// The bucket covers the hello and five frames; the sixth sleeps for
	// about a frame's worth of seconds at 1 B/s.
	const paid = 5
	ts := newTenantState("t", TenantQuota{BytesPerSec: 1, Burst: int64(len(hello) + paid*frame + frame/2)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, conn := coalesceServer(t, PolicyBlock, 64, func(n int, beforeSleep func() error) error {
		return ts.throttle(ctx, n, beforeSleep)
	})
	for i := 0; i < paid+3; i++ {
		if err := srv.Hub().PublishTuple(ChannelDirty, tu); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= paid; seq++ {
		if f := readFrameWithin(t, conn, 2*time.Second); f.Seq != seq {
			t.Fatalf("seq %d, want %d", f.Seq, seq)
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := ReadFrame(conn); err == nil {
		t.Fatal("the throttled frame arrived without waiting for the bucket")
	}
}

// TestSubscribeRequestIsBounded: before it knows who is asking, the
// daemon does not take a peer's word for a frame length. A 16 MiB
// length prefix with nothing behind it is answered with a terminal
// error frame and a closed connection at once, not after the 10 s read
// deadline — on the single-pipeline server and on the session service.
func TestSubscribeRequestIsBounded(t *testing.T) {
	_, serverAddr, _ := startServer(t, serverConfig(t, 1, 4))
	_, serviceAddr, _ := startService(t, ServiceConfig{})
	for name, addr := range map[string]string{"server": serverAddr, "service": serviceAddr} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte{0x00, 0xFF, 0xFF, 0xFF}); err != nil {
				t.Fatal(err)
			}
			f := readFrameWithin(t, conn, 3*time.Second)
			if f.Type != FrameError || !strings.Contains(f.Error, "bad subscribe request") {
				t.Fatalf("got %+v, want a bad-subscribe error frame", f)
			}
			_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
				t.Fatalf("connection not closed after the rejection: %v", err)
			}
		})
	}
	// The cap itself: a request just over it is refused, one under it is
	// parsed as ever.
	if _, err := readFrameInto(strings.NewReader("\x00\x00\x10\x01"), nil, maxSubscribeBytes); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("frame of maxSubscribeBytes+1: %v, want errFrameTooLarge", err)
	}
}
