package netstream

// The service is the one front door: the unnamed session and named
// sessions share its listeners, its routing and its shutdown.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// tcpFrames subscribes to channel over raw TCP and returns every frame
// through the terminal one as anonymous JSON, so that two sessions'
// streams compare directly.
func tcpFrames(t *testing.T, addr, channel string) []string {
	t.Helper()
	conn := subscribeTCP(t, addr, channel, 0)
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	var frames []string
	for {
		payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("%s: read frame: %v", channel, err)
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, anonymous(t, f))
		if f.Type == FrameEOF || f.Type == FrameError {
			return frames
		}
	}
}

// anonymous renders f as JSON without its channel name.
func anonymous(t *testing.T, f *Frame) string {
	t.Helper()
	f.Channel = ""
	out, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// firstFrame returns the first frame of a TCP subscription to channel.
func firstFrame(t *testing.T, addr, channel string) *Frame {
	t.Helper()
	conn := subscribeTCP(t, addr, channel, 0)
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestOneFrontDoor: one service hosts the unnamed session and a named
// session built from the same Config. Both serve the same frames on
// every channel over TCP and HTTP; a bare channel name reaches only the
// unnamed session and an empty one its dirty channel; the control plane
// refuses to create an unnamed session; /healthz lists both.
func TestOneFrontDoor(t *testing.T) {
	const seed, n = 29, 120
	svc, tcpAddr, baseURL := startService(t, ServiceConfig{})
	unnamed, err := svc.Start(serverConfig(t, seed, n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Start(serverConfig(t, seed, n)); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("second Start: %v, want ErrSessionExists", err)
	}
	if status, body := createSession(t, baseURL, "t", "s", specJSON(t, testSessionSpec{Seed: seed, N: n})); status != http.StatusCreated {
		t.Fatalf("create t/s: HTTP %d: %v", status, body)
	}
	named, _ := svc.Get("t", "s")
	waitPipelineDone(t, unnamed.Server())
	waitPipelineDone(t, named.Server())

	for _, ch := range Channels() {
		bare, ns := tcpFrames(t, tcpAddr, ch), tcpFrames(t, tcpAddr, "t/s/"+ch)
		sameLines(t, "tcp "+ch, bare, ns)
		if len(bare) < 3 {
			t.Fatalf("tcp %s: only %d frames", ch, len(bare))
		}
		var httpBare, httpNS []string
		for _, line := range streamLines(t, baseURL+"/stream?channel="+ch) {
			httpBare = append(httpBare, anonymous(t, mustFrame(t, line)))
		}
		for _, line := range streamLines(t, baseURL+"/stream?channel=t/s/"+ch) {
			httpNS = append(httpNS, anonymous(t, mustFrame(t, line)))
		}
		sameLines(t, "http "+ch, httpBare, httpNS)
		sameLines(t, "tcp vs http "+ch, bare, httpBare)
	}

	// Routing: a bare name is the unnamed session's, an empty channel its
	// dirty; a partial namespace reaches nothing.
	for channel, want := range map[string]string{ChannelDirty: ChannelDirty, "": ChannelDirty, "t/s/" + ChannelLog: "t/s/" + ChannelLog} {
		if f := firstFrame(t, tcpAddr, channel); f.Type != FrameHello || f.Channel != want {
			t.Errorf("subscribe %q: first frame %s on %q, want hello on %q", channel, f.Type, f.Channel, want)
		}
	}
	if f := firstFrame(t, tcpAddr, "s/"+ChannelDirty); f.Type != FrameError {
		t.Errorf("subscribe s/dirty: got %s frame on %q, want unknown-channel error", f.Type, f.Channel)
	}
	lines := streamLines(t, baseURL+"/stream")
	if f := mustFrame(t, lines[0]); f.Type != FrameHello || f.Channel != ChannelDirty {
		t.Errorf("/stream without a channel opens with %s on %q, want hello on dirty", f.Type, f.Channel)
	}

	// The control plane creates named sessions only.
	if status, body := createSession(t, baseURL, "", "", specJSON(t, testSessionSpec{Seed: seed, N: n})); status != http.StatusBadRequest {
		t.Errorf("create with empty tenant and name: HTTP %d (%v), want 400", status, body)
	}
	buildless, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(buildless.HTTPHandler())
	defer ts.Close()
	status, body := createSession(t, ts.URL, "t", "s", specJSON(t, testSessionSpec{Seed: seed, N: n}))
	if status < 400 || status >= 500 {
		t.Errorf("create on a service without Build: HTTP %d (%v), want 4xx", status, body)
	}

	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		State    string                   `json:"state"`
		Sessions map[string]SessionStatus `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.State != "ok" || len(health.Sessions) != 2 || health.Sessions[""].State != "done" || health.Sessions["t/s"].State != "done" {
		t.Fatalf("healthz = %+v, want ok with the unnamed and t/s sessions done", health)
	}
}

// TestServiceServeClosesIdleConnections: a TCP client that connects and
// never subscribes does not hold up shutdown; Serve closes it and
// returns promptly instead of waiting out the subscribe read deadline.
func TestServiceServeClosesIdleConnections(t *testing.T) {
	svc, err := NewService(ServiceConfig{Build: testServiceBuild(t), DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = svc.Serve(ctx, ln, nil)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(100 * time.Millisecond) // let the service accept it

	start := time.Now()
	cancel()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Serve took %v to return with one idle client, want < 1s", took)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("idle client read %v after shutdown, want EOF", err)
	}
}
