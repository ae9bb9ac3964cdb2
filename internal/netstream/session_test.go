package netstream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"icewafl/internal/config"
	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

// testSessionSpec is the opaque spec the test Build hook understands.
type testSessionSpec struct {
	Seed    int64  `json:"seed"`
	N       int    `json:"n"`
	Buffer  int    `json:"buffer,omitempty"`
	Policy  string `json:"policy,omitempty"`
	DrainMS int    `json:"drain_ms,omitempty"`
	// Config, when set, is a pollution configuration the hook parses as
	// icewafld's does, so a spec an older build persisted meets today's
	// rejection of a key it no longer knows.
	Config json.RawMessage `json:"config,omitempty"`
}

func specJSON(t *testing.T, spec testSessionSpec) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// testServiceBuild compiles testSessionSpec into a testProcess config —
// the in-package analogue of icewafld's schema+config+csv builder.
func testServiceBuild(t *testing.T) func(json.RawMessage) (Config, error) {
	t.Helper()
	schema := wireSchema(t)
	return func(raw json.RawMessage) (Config, error) {
		var ts testSessionSpec
		if err := json.Unmarshal(raw, &ts); err != nil {
			return Config{}, err
		}
		if len(ts.Config) > 0 {
			if _, err := config.Parse(bytes.NewReader(ts.Config)); err != nil {
				return Config{}, fmt.Errorf("session config: %w", err)
			}
		}
		if ts.N == 0 {
			ts.N = 100
		}
		cfg := Config{
			Schema: schema,
			Proc:   testProcess(ts.Seed),
			NewSource: func() (stream.Source, error) {
				return testSource(schema, ts.N), nil
			},
			Reorder: 1,
			Buffer:  64,
			Replay:  1 << 16,
		}
		if ts.Buffer > 0 {
			cfg.Buffer = ts.Buffer
		}
		if ts.Policy != "" {
			p, err := ParsePolicy(ts.Policy)
			if err != nil {
				return Config{}, err
			}
			cfg.Policy = p
		}
		if ts.DrainMS > 0 {
			cfg.DrainTimeout = time.Duration(ts.DrainMS) * time.Millisecond
		}
		return cfg, nil
	}
}

// startService serves a Service over loopback TCP and HTTP.
func startService(t *testing.T, cfg ServiceConfig) (svc *Service, tcpAddr, baseURL string) {
	t.Helper()
	if cfg.Build == nil {
		cfg.Build = testServiceBuild(t)
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 500 * time.Millisecond
	}
	svc, err := NewService(cfg)
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
			t.Logf("service: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Error("service did not shut down")
		}
	})
	return svc, tcpLn.Addr().String(), "http://" + httpLn.Addr().String()
}

// createSession posts a session over the control plane, returning the
// HTTP status and decoded body.
func createSession(t *testing.T, baseURL, tenant, name string, spec json.RawMessage) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(SessionRequest{Tenant: tenant, Name: name, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("create %s/%s: decode body: %v", tenant, name, err)
	}
	return resp.StatusCode, out
}

// subscribeTCP opens a raw TCP subscription to a namespaced channel and
// returns the connection (caller reads frames).
func subscribeTCP(t *testing.T, addr, channel string, fromSeq uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(SubscribeRequest{Channel: channel, FromSeq: fromSeq})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	return conn
}

// readTCPFrames drains a TCP subscription to its terminal frame,
// returning the decoded tuples and the terminal frame.
func readTCPFrames(t *testing.T, conn net.Conn) (tuples []stream.Tuple, terminal *Frame) {
	t.Helper()
	schema := wireSchema(t)
	deadline := time.Now().Add(20 * time.Second)
	_ = conn.SetReadDeadline(deadline)
	for {
		payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case FrameHello, FrameLog:
		case FrameTuple:
			tp, err := DecodeTuple(f.Tuple, schema)
			if err != nil {
				t.Fatal(err)
			}
			tuples = append(tuples, tp)
		case FrameEOF, FrameError:
			return tuples, f
		}
	}
}

// TestServiceMultiTenantSessions is the tentpole acceptance test: one
// service hosts 2 tenants × 4 concurrent sessions created over REST,
// every session's namespaced dirty channel is byte-identical to the
// in-process reference run, per-tenant counter families appear in
// /metrics, quota violations answer with typed payloads, and deleted
// sessions disappear from the control plane.
func TestServiceMultiTenantSessions(t *testing.T) {
	reg := obs.NewRegistry()
	_, tcpAddr, baseURL := startService(t, ServiceConfig{
		Reg: reg,
		Quotas: map[string]TenantQuota{
			"alpha": {MaxSessions: 4},
			"beta":  {MaxSessions: 4},
		},
	})

	const n = 200
	tenants := []string{"alpha", "beta"}
	for _, tenant := range tenants {
		for i := 0; i < 4; i++ {
			status, body := createSession(t, baseURL, tenant, fmt.Sprintf("s%d", i),
				specJSON(t, testSessionSpec{Seed: 7, N: n}))
			if status != http.StatusCreated {
				t.Fatalf("create %s/s%d: HTTP %d: %v", tenant, i, status, body)
			}
		}
	}

	// The control plane lists all eight, each with namespaced channels.
	resp, err := http.Get(baseURL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sessions []SessionStatus `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Sessions) != 8 {
		t.Fatalf("listed %d sessions, want 8", len(list.Sessions))
	}
	if got := list.Sessions[0].Channels; len(got) != 3 || !strings.HasPrefix(got[0], list.Sessions[0].Tenant+"/") {
		t.Fatalf("session channels not namespaced: %v", got)
	}

	// Every session's dirty channel over TCP matches the in-process
	// reference run byte for byte.
	refDirty, _, _ := referenceRun(t, 7, n, 1)
	for _, tenant := range tenants {
		for i := 0; i < 4; i++ {
			ch := fmt.Sprintf("%s/s%d/%s", tenant, i, ChannelDirty)
			conn := subscribeTCP(t, tcpAddr, ch, 0)
			tuples, terminal := readTCPFrames(t, conn)
			conn.Close()
			if terminal.Type != FrameEOF {
				t.Fatalf("%s: terminal %q: %s", ch, terminal.Type, terminal.Error)
			}
			sameTuples(t, ch, tuples, refDirty)
		}
	}

	// A ninth session for alpha exceeds its quota: typed 429.
	status, body := createSession(t, baseURL, "alpha", "overflow",
		specJSON(t, testSessionSpec{Seed: 7, N: n}))
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota create: HTTP %d: %v", status, body)
	}
	quotaRaw, err := json.Marshal(body["quota"])
	if err != nil {
		t.Fatal(err)
	}
	var qi QuotaInfo
	if err := json.Unmarshal(quotaRaw, &qi); err != nil {
		t.Fatalf("429 body carries no quota payload: %v", body)
	}
	qerr := QuotaFromInfo(&qi)
	if !errors.Is(qerr, ErrQuota) || qerr.Resource != "sessions" || qerr.Tenant != "alpha" || qerr.Limit != 4 {
		t.Fatalf("quota payload = %+v", qerr)
	}

	// /metrics carries the per-tenant families round-trippably.
	resp, err = http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range tenants {
		if snap.TenantFrames[tenant] == 0 || snap.TenantBytes[tenant] == 0 {
			t.Fatalf("tenant %s missing from delivery families: frames=%v bytes=%v",
				tenant, snap.TenantFrames, snap.TenantBytes)
		}
	}
	if snap.TenantQuotaRejections["alpha"] == 0 {
		t.Fatalf("alpha's quota rejection not counted: %v", snap.TenantQuotaRejections)
	}
	if h, ok := snap.Histograms["deliver"]; !ok || h.Count == 0 {
		t.Fatalf("deliver histogram missing or empty: %+v", snap.Histograms)
	}

	// healthz reports every session individually.
	resp, err = http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		State    string                   `json:"state"`
		Sessions map[string]SessionStatus `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.State != "ok" || len(health.Sessions) != 8 {
		t.Fatalf("healthz: state=%s sessions=%d", health.State, len(health.Sessions))
	}

	// DELETE removes the session; the freed slot admits a new one.
	req, _ := http.NewRequest(http.MethodDelete, baseURL+"/v1/sessions/alpha/s0", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Get(baseURL + "/v1/sessions/alpha/s0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get deleted session: HTTP %d, want 404", resp.StatusCode)
	}
	if status, body := createSession(t, baseURL, "alpha", "replacement",
		specJSON(t, testSessionSpec{Seed: 7, N: 10})); status != http.StatusCreated {
		t.Fatalf("create after delete: HTTP %d: %v", status, body)
	}
}

// TestServiceSubscribeDeletedSessionTypedError pins the multi-session
// subscribe contract: a subscription addressed at a deleted (or never
// created) session fails promptly with a typed unknown-channel error
// frame, not a hang.
func TestServiceSubscribeDeletedSessionTypedError(t *testing.T) {
	svc, tcpAddr, baseURL := startService(t, ServiceConfig{})
	if status, body := createSession(t, baseURL, "t1", "gone",
		specJSON(t, testSessionSpec{Seed: 3, N: 20})); status != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %v", status, body)
	}
	if err := svc.Delete("t1", "gone"); err != nil {
		t.Fatalf("delete: %v", err)
	}

	// In-process resolution returns the typed error.
	if _, err := svc.resolve("t1/gone/dirty"); err == nil {
		t.Fatal("resolve after delete succeeded")
	} else {
		var uce *UnknownChannelError
		if !errors.As(err, &uce) || !errors.Is(err, ErrUnknownChannel) {
			t.Fatalf("resolve after delete: %v (want UnknownChannelError)", err)
		}
	}

	// And over the wire: a terminal error frame, promptly.
	conn := subscribeTCP(t, tcpAddr, "t1/gone/dirty", 0)
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("read error frame: %v", err)
	}
	f, err := DecodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameError || !strings.Contains(f.Error, "unknown channel") {
		t.Fatalf("terminal frame = %+v, want unknown-channel error", f)
	}

	// Second deletion reports the typed unknown-session error.
	if err := svc.Delete("t1", "gone"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("double delete: %v, want ErrUnknownSession", err)
	}
}

// TestServiceSubscriberQuotaTypedOnWire pins that a subscriber over the
// tenant's MaxSubscribers ceiling is rejected with a typed quota error
// frame that round-trips to a permanent QuotaError.
func TestServiceSubscriberQuotaTypedOnWire(t *testing.T) {
	_, tcpAddr, baseURL := startService(t, ServiceConfig{
		Quotas: map[string]TenantQuota{"gamma": {MaxSubscribers: 1}},
	})
	if status, body := createSession(t, baseURL, "gamma", "s",
		specJSON(t, testSessionSpec{Seed: 5, N: 60000, Policy: "block", Buffer: 1})); status != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %v", status, body)
	}

	// First subscriber holds the only slot. It reads only the hello: the
	// input is large enough (60k frames ≫ the kernel socket buffers)
	// that its stream cannot complete — and release the slot — before
	// the second subscriber is rejected.
	first := subscribeTCP(t, tcpAddr, "gamma/s/dirty", 0)
	defer first.Close()
	// The slot is taken once the hello frame arrives.
	_ = first.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(first); err != nil {
		t.Fatalf("first subscriber hello: %v", err)
	}

	second := subscribeTCP(t, tcpAddr, "gamma/s/dirty", 0)
	defer second.Close()
	_ = second.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadFrame(second)
	if err != nil {
		t.Fatalf("second subscriber: %v", err)
	}
	f, err := DecodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameError || f.Quota == nil {
		t.Fatalf("second subscriber got %+v, want typed quota error frame", f)
	}
	qerr := QuotaFromInfo(f.Quota)
	if !errors.Is(qerr, ErrQuota) || qerr.Resource != "subscribers" || !qerr.Permanent() {
		t.Fatalf("wire quota error = %+v", qerr)
	}

	// HTTP subscribers get the typed payload as a 429 body.
	resp, err := http.Get(baseURL + "/stream?channel=gamma/s/dirty")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("http subscriber: HTTP %d, want 429", resp.StatusCode)
	}
	var body struct {
		Quota *QuotaInfo `json:"quota"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Quota == nil {
		t.Fatalf("429 body lacks quota payload: %v", err)
	}
}

// TestServiceDeleteBoundedWithWedgedSubscriber is the satellite-3
// regression: DELETE on a session whose block-policy pipeline is wedged
// behind a subscriber that never reads must return within the session's
// drain timeout (the PR6 bounded-drain path), force-closing the stalled
// subscriber, and report drain_expired.
func TestServiceDeleteBoundedWithWedgedSubscriber(t *testing.T) {
	svc, tcpAddr, baseURL := startService(t, ServiceConfig{})
	// Block policy + a subscriber that never reads wedges the publisher
	// once the socket buffers fill. DrainMS bounds the delete.
	if status, body := createSession(t, baseURL, "t", "wedged",
		specJSON(t, testSessionSpec{Seed: 11, N: 60000, Policy: "block", Buffer: 16, DrainMS: 300})); status != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %v", status, body)
	}
	sess, ok := svc.Get("t", "wedged")
	if !ok {
		t.Fatal("session not found after create")
	}

	conn := subscribeTCP(t, tcpAddr, "t/wedged/dirty", 0)
	defer conn.Close()
	// Read only the hello, then stall without consuming tuples.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(conn); err != nil {
		t.Fatalf("hello: %v", err)
	}
	// Wait until the publish cursor genuinely stalls, so DELETE runs
	// against a wedged pipeline rather than one still making progress.
	var last uint64
	stable := 0
	wedgeDeadline := time.Now().Add(30 * time.Second)
	for stable < 3 {
		if time.Now().After(wedgeDeadline) {
			t.Fatalf("pipeline never wedged (seq %d)", last)
		}
		time.Sleep(100 * time.Millisecond)
		cur := sess.Server().Hub().Seq("t/wedged/" + ChannelDirty)
		if cur > 0 && cur == last {
			stable++
		} else {
			stable, last = 0, cur
		}
	}
	if last >= 60000 {
		t.Fatal("pipeline finished instead of wedging on the stuck subscriber")
	}

	start := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, baseURL+"/v1/sessions/t/wedged", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d: %v", resp.StatusCode, out)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("delete of wedged session took %v; bounded drain did not bound", elapsed)
	}
	if expired, _ := out["drain_expired"].(bool); !expired {
		t.Fatalf("delete response = %v, want drain_expired=true", out)
	}
}

// TestHubSubscribeCloseRace is the satellite-2 -race regression:
// Subscribe hammered concurrently with Hub.Close must never hang, leak
// a subscriber, or return an untyped error — each call either succeeds
// (and its subscription terminates with ErrHubClosed) or fails with
// ErrHubClosed immediately.
func TestHubSubscribeCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		reg := obs.NewRegistry()
		hub := NewHubNamed(Channels(), 4, 16, PolicyBlock, reg)
		if err := hub.SetHello(ChannelDirty, &Frame{Type: FrameHello, Channel: ChannelDirty}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 50; j++ {
					sub, err := hub.Subscribe(ChannelDirty, 0)
					if err != nil {
						if !errors.Is(err, ErrHubClosed) {
							t.Errorf("subscribe: %v (want ErrHubClosed)", err)
						}
						return
					}
					// Drain until terminal so queued frames don't pin the
					// subscriber, then detach.
					for {
						_, _, rerr := sub.Recv()
						if rerr != nil {
							if !errors.Is(rerr, ErrHubClosed) {
								t.Errorf("recv: %v", rerr)
							}
							break
						}
					}
					sub.Close()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_ = hub.Publish(ChannelDirty, &Frame{Type: FrameTuple, Channel: ChannelDirty})
			hub.Close()
		}()
		close(start)
		wg.Wait()
		if n := hub.SubscriberCount(); n != 0 {
			t.Fatalf("round %d: %d subscribers leaked", round, n)
		}
	}
}

// TestHubSubscribeTypedErrors pins the typed error contract of
// Subscribe: closed hub → ErrHubClosed, unknown channel →
// UnknownChannelError (errors.As-able, permanent).
func TestHubSubscribeTypedErrors(t *testing.T) {
	hub := NewHubNamed(Channels(), 4, 16, PolicyBlock, nil)
	if _, err := hub.Subscribe("t/missing/dirty", 0); err == nil {
		t.Fatal("subscribe to unknown channel succeeded")
	} else {
		var uce *UnknownChannelError
		if !errors.As(err, &uce) || uce.Channel != "t/missing/dirty" || !uce.Permanent() {
			t.Fatalf("unknown channel error = %v", err)
		}
	}
	hub.Close()
	done := make(chan error, 1)
	go func() {
		_, err := hub.Subscribe(ChannelDirty, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrHubClosed) {
			t.Fatalf("subscribe after close: %v, want ErrHubClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscribe after close hung")
	}
}

// TestSubscriberGaugesUnregisteredOnClose is the gauge-leak regression:
// per-subscriber queue gauges must vanish from the registry when the
// subscription closes, or a long-lived daemon accumulates dead gauges.
func TestSubscriberGaugesUnregisteredOnClose(t *testing.T) {
	reg := obs.NewRegistry()
	hub := NewHubNamed(Channels(), 4, 16, PolicyBlock, reg)
	hub.registerGauges()
	defer hub.Close()
	base := len(reg.Snapshot().Gauges)
	for i := 0; i < 10; i++ {
		sub, err := hub.Subscribe(ChannelDirty, 0)
		if err != nil {
			t.Fatal(err)
		}
		if grown := len(reg.Snapshot().Gauges); grown != base+2 {
			t.Fatalf("iteration %d: %d gauges while subscribed, want %d", i, grown, base+2)
		}
		sub.Close()
		if after := len(reg.Snapshot().Gauges); after != base {
			t.Fatalf("iteration %d: %d gauges after close, want %d (leak)", i, after, base)
		}
	}
}
