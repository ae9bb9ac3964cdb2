package chaos

// Integration tests driving a real netstream server through the fault
// proxy: disconnect-slow backpressure when the network delivers partial
// TCP writes (a throttled reader), and client resume across mid-frame
// connection kills.

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/netstream"
	"icewafl/internal/obs"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

func itSchema(t *testing.T) *stream.Schema {
	t.Helper()
	return stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "sensor", Kind: stream.KindString},
	)
}

// itSource generates n deterministic tuples over itSchema.
func itSource(s *stream.Schema, n int) stream.Source {
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	return stream.NewGeneratorSource(s, n, func(i int) stream.Tuple {
		return stream.NewTuple(s, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Minute)),
			stream.Float(float64(i)),
			stream.Str(fmt.Sprintf("s%d", i%3)),
		})
	})
}

// itProcess builds a small stateful pipeline, fresh per run.
func itProcess(seed int64) *core.Process {
	noise := core.NewStandard("noise",
		&core.GaussianNoise{Stddev: core.Const(3), Rand: rng.Derive(seed, "noise")},
		core.NewRandomConst(0.4, rng.Derive(seed, "noise-cond")), "v")
	return &core.Process{
		Pipelines: []*core.Pipeline{core.NewPipeline(noise)},
		FirstID:   1,
	}
}

// itReference runs the pipeline in-process and returns the dirty
// tuples every network client must observe.
func itReference(t *testing.T, seed int64, n int) []stream.Tuple {
	t.Helper()
	src, _, err := itProcess(seed).RunStream(itSource(itSchema(t), n), 1)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := stream.Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	return dirty
}

// startITServer serves cfg as a service's unnamed session over loopback
// TCP, with metrics into reg (nil-safe), shut down at cleanup.
func startITServer(t *testing.T, cfg netstream.Config, reg *obs.Registry) (srv *netstream.Server, tcpAddr string) {
	t.Helper()
	if cfg.Schema == nil {
		cfg.Schema = itSchema(t)
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 100 * time.Millisecond
	}
	svc, err := netstream.NewService(netstream.ServiceConfig{Reg: reg})
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
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := svc.Serve(ctx, tcpLn, nil); err != nil {
			t.Logf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Error("server did not shut down")
		}
	})
	return sess.Server(), tcpLn.Addr().String()
}

func itServerConfig(t *testing.T, seed int64, n int) netstream.Config {
	t.Helper()
	schema := itSchema(t)
	return netstream.Config{
		Schema: schema,
		Proc:   itProcess(seed),
		NewSource: func() (stream.Source, error) {
			return itSource(schema, n), nil
		},
		Reorder: 1,
		Buffer:  64,
		Replay:  1 << 16,
	}
}

// gateSource blocks the first Next until the gate opens, so a test can
// subscribe clients before the pipeline produces anything.
type gateSource struct {
	stream.Source
	gate   <-chan struct{}
	opened atomic.Bool
}

func (g *gateSource) Next() (stream.Tuple, error) {
	if !g.opened.Load() {
		<-g.gate
		g.opened.Store(true)
	}
	return g.Source.Next()
}

func sameWireTuples(t *testing.T, label string, got, want []stream.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d tuples, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := netstream.EncodeTuple(got[i]), netstream.EncodeTuple(want[i])
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: tuple %d differs:\ngot  %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestDisconnectSlowThroughThrottledProxy: a subscriber whose network
// path trickles bytes (the proxy throttles the server→client pump, so
// the server sees partial TCP writes once its kernel buffer fills) must
// be cut by the disconnect-slow policy instead of stalling the
// pipeline, while a direct client still drains the full stream from
// the replay ring.
func TestDisconnectSlowThroughThrottledProxy(t *testing.T) {
	const seed, n = 71, 8000
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	cfg := itServerConfig(t, seed, n)
	inner := cfg.NewSource
	cfg.NewSource = func() (stream.Source, error) {
		src, err := inner()
		if err != nil {
			return nil, err
		}
		return &gateSource{Source: src, gate: gate}, nil
	}
	cfg.Policy = netstream.PolicyDisconnectSlow
	cfg.Buffer = 8
	srv, tcpAddr := startITServer(t, cfg, reg)

	proxy, err := NewProxy("127.0.0.1:0", ProxyConfig{
		Target:              tcpAddr,
		Seed:                seed,
		ThrottleBytesPerSec: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Subscribe through the throttled path before opening the gate. The
	// subscription request itself is tiny (client→server traffic is not
	// throttled), so the hello round-trips; only the tuple flood stalls.
	slow, err := netstream.Dial(proxy.Addr(), netstream.ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Stop()
	go func() {
		// Drain whatever trickles through so the proxy itself never
		// backpressures; the bottleneck stays at its throttled pump.
		for {
			if _, err := slow.Next(); err != nil {
				return
			}
		}
	}()
	close(gate)

	select {
	case <-srv.PipelineDone():
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline stalled behind the throttled client under disconnect-slow")
	}
	if err := srv.PipelineErr(); err != nil {
		t.Fatalf("pipeline error: %v", err)
	}
	if got := reg.Snapshot().Gauges["icewafl_net_slow_disconnects_total"]; got == 0 {
		t.Error("expected the throttled client to be disconnected by policy")
	}

	fast, err := netstream.Dial(tcpAddr, netstream.ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Stop()
	tuples, err := stream.Drain(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != n {
		t.Fatalf("fast client got %d tuples, want %d", len(tuples), n)
	}
}

// TestClientResumeAcrossMidFrameKills: the proxy hard-kills every
// connection part-way through a frame; a ClientSource must reconnect
// with from_seq resume and still observe the complete stream with no
// duplicates and no gaps.
func TestClientResumeAcrossMidFrameKills(t *testing.T) {
	const seed, n = 73, 3000
	want := itReference(t, seed, n)

	_, tcpAddr := startITServer(t, itServerConfig(t, seed, n), nil)

	proxy, err := NewProxy("127.0.0.1:0", ProxyConfig{
		Target:         tcpAddr,
		Seed:           seed,
		KillAfterBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cs, err := netstream.Dial(proxy.Addr(), netstream.ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Stop()
	got, err := stream.Drain(cs)
	if err != nil {
		t.Fatalf("drain through killing proxy: %v", err)
	}
	sameWireTuples(t, "dirty-through-kills", got, want)
	if proxy.Kills() == 0 {
		t.Error("proxy never killed a connection; the fault schedule did not engage")
	}
	if cs.Reconnects() == 0 {
		t.Error("client never reconnected; resume path untested")
	}
}

// TestPartialWriteKillDuringSubscribe: a kill that lands inside the
// hello frame itself (budget smaller than the handshake) fails Dial,
// which makes one attempt, and a dial gets through once the path heals.
func TestPartialWriteKillDuringSubscribe(t *testing.T) {
	const seed, n = 79, 200
	want := itReference(t, seed, n)

	_, tcpAddr := startITServer(t, itServerConfig(t, seed, n), nil)

	// The hello frame carries the JSON schema document; 64 bytes is
	// always mid-hello, so the first dial through this proxy fails.
	proxy, err := NewProxy("127.0.0.1:0", ProxyConfig{
		Target:         tcpAddr,
		Seed:           seed,
		KillAfterBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netstream.DialTimeout(proxy.Addr(), netstream.ChannelDirty, 2*time.Second); err == nil {
		t.Fatal("dial through a mid-hello kill should fail")
	}
	if proxy.Kills() == 0 {
		t.Error("expected a kill inside the hello frame")
	}
	proxy.Close()

	// The path heals: a direct dial drains the full run.
	cs, err := netstream.Dial(tcpAddr, netstream.ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Stop()
	got, err := stream.Drain(cs)
	if err != nil {
		t.Fatal(err)
	}
	sameWireTuples(t, "after-heal", got, want)
}
