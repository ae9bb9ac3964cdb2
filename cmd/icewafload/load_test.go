// Integration test of the load harness against the real session-mode
// daemon: builds icewafld, starts it with per-tenant quotas, and drives
// a scaled-down fleet (8 sessions × 32 subscribers) through the REST
// control plane. The run must finish with zero gap errors, quota
// rejections exactly where quotas are configured, and every subscriber
// of every session byte-identical to a direct in-process run of the
// same pipeline.
package main

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles icewafld into a scratch dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "icewafld")
	cmd := exec.Command("go", "build", "-o", bin, "icewafl/cmd/icewafld")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startSessionDaemon launches icewafld -sessions with the given config
// file on random ports, parses the announced addresses from stderr, and
// returns the HTTP base URL plus a SIGTERM-and-wait shutdown function.
func startSessionDaemon(t *testing.T, configPath string) (baseURL string, shutdown func()) {
	t.Helper()
	bin := buildDaemon(t)
	args := []string{"-sessions", "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}
	if configPath != "" {
		args = append(args, "-config", configPath)
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)

	var httpAddr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening tcp="); i >= 0 {
			fields := strings.Fields(line[i:])
			for _, f := range fields {
				if strings.HasPrefix(f, "http=") {
					httpAddr = strings.TrimPrefix(f, "http=")
				}
			}
			break
		}
	}
	// Drain the rest of stderr so the daemon never blocks on the pipe.
	go func() {
		for sc.Scan() {
		}
		done <- cmd.Wait()
	}()
	if httpAddr == "" {
		_ = cmd.Process.Kill()
		t.Fatal("daemon never announced its HTTP address")
	}
	return "http://" + httpAddr, func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			t.Error("daemon did not exit on SIGTERM")
		}
	}
}

// tenantConfig writes a session-mode config file capping both tenants
// at 4 sessions each.
func tenantConfig(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serve.json")
	doc := `{"serve": {"tenants": [
		{"name": "alpha", "max_sessions": 4},
		{"name": "beta", "max_sessions": 4}
	]}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadHarnessScaledDown(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness integration is not a -short test")
	}
	baseURL, shutdown := startSessionDaemon(t, tenantConfig(t))
	defer shutdown()

	// 10 requested sessions round-robin over 2 tenants capped at 4 each:
	// 8 run, one per tenant is quota-rejected — rejections exactly where
	// configured, none anywhere else.
	const rows = 120
	res, err := Run(Options{
		BaseURL:  baseURL,
		Tenants:  []string{"alpha", "beta"},
		Sessions: 10,
		Subs:     32,
		Rows:     rows,
		Timeout:  3 * time.Minute,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errors {
		t.Errorf("unexpected error: %s", e)
	}
	if len(res.Created) != 8 || res.CreateRejected != 2 {
		t.Fatalf("created %d sessions with %d rejections, want 8 and 2", len(res.Created), res.CreateRejected)
	}
	if res.GapErrors != 0 {
		t.Fatalf("%d gap errors, want 0", res.GapErrors)
	}
	if res.SubsStarted != 8*32 || res.SubQuotaRejected != 0 {
		t.Fatalf("subscribers: started %d (want %d), quota-rejected %d (want 0)",
			res.SubsStarted, 8*32, res.SubQuotaRejected)
	}

	// Byte-identity: every one of the 256 subscriber streams carries the
	// digest of the direct in-process run.
	want, wantFrames, err := directDigest(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Digests) != 1 || res.Digests[want] != 8*32 {
		t.Fatalf("digests = %v, want {%.12s…: %d}", res.Digests, want, 8*32)
	}
	if res.Frames != uint64(8*32*wantFrames) {
		t.Fatalf("delivered %d frames, want %d", res.Frames, 8*32*wantFrames)
	}

	// The daemon's obs histogram produced the latency quantiles.
	if res.DeliverCount == 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("delivery latency not observed: count=%d p50=%v p99=%v", res.DeliverCount, res.P50, res.P99)
	}

	// Per-tenant families: both tenants served frames, and each logged
	// exactly its one configured-session rejection.
	for _, tenant := range []string{"alpha", "beta"} {
		st, ok := res.Tenants[tenant]
		if !ok || st.Frames == 0 || st.Bytes == 0 {
			t.Fatalf("tenant %s missing from /metrics families: %+v", tenant, res.Tenants)
		}
		if st.QuotaRejections != 1 {
			t.Fatalf("tenant %s quota rejections = %d, want exactly 1", tenant, st.QuotaRejections)
		}
	}
}

// TestStreamDirtyGoneIsGap: a subscribe answered 410 Gone (the replay
// window no longer reaches seq 0) counts as a gap error, not a generic
// failure.
func TestStreamDirtyGoneIsGap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "netstream: replay gap", http.StatusGone)
	}))
	defer srv.Close()
	o := streamDirty(context.Background(), srv.Client(), srv.URL, "alpha/s0000/dirty")
	if !o.gap || o.err != nil || o.quota {
		t.Fatalf("410 outcome = %+v, want gap only", o)
	}
}
