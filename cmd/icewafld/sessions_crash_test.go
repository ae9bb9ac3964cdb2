// Kill-and-recover end-to-end test for session mode: a -sessions
// daemon with a -state-dir hosting two tenants' durable sessions is
// SIGKILLed mid-stream and restarted over the same state directory;
// every session of every tenant must come back through Service.Recover
// and serve a stream byte-identical to an uninterrupted run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icewafl/internal/chaos"
	"icewafl/internal/netstream"
	"icewafl/internal/stream"
)

// sessionsProc is a running icewafld -sessions with both listener
// addresses parsed from the announcement line.
type sessionsProc struct {
	*daemonProc
	httpAddr string
}

// launchSessionsDaemon starts bin in session mode on random ports and
// waits for the "sessions mode listening tcp=... http=..." banner.
func launchSessionsDaemon(t *testing.T, bin string, args ...string) *sessionsProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-sessions", "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &sessionsProc{daemonProc: &daemonProc{t: t, cmd: cmd, done: make(chan error, 1)}}
	sc := bufio.NewScanner(stderr)
	var seen []string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening tcp="); i >= 0 {
			for _, f := range strings.Fields(line[i:]) {
				switch {
				case strings.HasPrefix(f, "tcp="):
					d.tcpAddr = strings.TrimPrefix(f, "tcp=")
				case strings.HasPrefix(f, "http="):
					d.httpAddr = strings.TrimPrefix(f, "http=")
				}
			}
			break
		}
		seen = append(seen, line)
	}
	go func() {
		for sc.Scan() {
		}
		d.done <- cmd.Wait()
	}()
	if d.tcpAddr == "" || d.httpAddr == "" {
		_ = cmd.Process.Kill()
		t.Fatalf("sessions daemon never announced its addresses (scan err: %v)\nstderr:\n%s",
			sc.Err(), strings.Join(seen, "\n"))
	}
	t.Cleanup(func() {
		if !d.stopped {
			_ = cmd.Process.Kill()
			<-d.done
		}
	})
	return d
}

// serveOnly writes a -sessions daemon's -config: a document whose serve
// block holds keys, and returns its path.
func serveOnly(t *testing.T, keys string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(path, []byte(`{"serve": {`+keys+`}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// crashSessionSpec renders one POST /v1/sessions body: a minimal
// schema, a seeded two-polluter config, and rows of generated CSV —
// deterministic, so every session of the test produces the same stream
// and one golden covers them all.
func crashSessionSpec(t *testing.T, rows int) json.RawMessage {
	t.Helper()
	var csv strings.Builder
	csv.WriteString("Time,Val,Idx\n")
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csv, "%s,%d.5,%d\n", base.Add(time.Duration(i)*time.Second).Format(time.RFC3339), i%97, i)
	}
	spec := map[string]any{
		"schema": json.RawMessage(`{
			"timestamp": "Time",
			"fields": [
				{"name": "Time", "kind": "time"},
				{"name": "Val", "kind": "float"},
				{"name": "Idx", "kind": "int"}
			]
		}`),
		"config": json.RawMessage(`{
			"seed": 424241,
			"pipelines": [{
				"name": "crash",
				"polluters": [
					{
						"name": "scale Val",
						"error": {"type": "scale_by_factor", "factor": 10},
						"condition": {"type": "random", "p": 0.4},
						"attrs": ["Val"]
					},
					{
						"name": "drop Val",
						"error": {"type": "missing_value"},
						"condition": {"type": "random", "p": 0.05},
						"attrs": ["Val"]
					}
				]
			}]
		}`),
		"csv": csv.String(),
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// createCrashSession posts one session and requires HTTP 201.
func createCrashSession(t *testing.T, httpAddr, tenant, name string, spec json.RawMessage) {
	t.Helper()
	body, err := json.Marshal(netstream.SessionRequest{Tenant: tenant, Name: name, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+httpAddr+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		t.Fatalf("create %s/%s: HTTP %d: %s", tenant, name, resp.StatusCode, out.String())
	}
}

// TestSessionsCrashRecoverySIGKILL: golden run on a memory-only
// sessions daemon → durable daemon with 2 tenants × 3 sessions
// SIGKILLed mid-stream (the observing subscriber reads through a chaos
// proxy) → restart over the same -state-dir → /healthz reports every
// session resumed, and each one's dirty stream drains byte-identical
// to the golden with zero gap errors.
func TestSessionsCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	const rows, readBeforeKill = 12000, 400
	tenants := []string{"alpha", "beta"}
	names := []string{"s0", "s1", "s2"}
	bin := buildDaemon(t)
	stateDir := t.TempDir()
	spec := crashSessionSpec(t, rows)

	// Uninterrupted reference: one memory-only session with the same
	// spec. Every durable session must match this stream exactly.
	ref := launchSessionsDaemon(t, bin)
	createCrashSession(t, ref.httpAddr, "ref", "golden", spec)
	golden := drainChannel(t, ref.tcpAddr, "ref/golden/"+netstream.ChannelDirty)
	ref.terminate()
	if len(golden) != rows {
		t.Fatalf("golden run produced %d dirty tuples, want %d", len(golden), rows)
	}

	// Durable fleet; frequent fsync (the daemon's serve block sets every
	// session's default) keeps every pipeline mid-stream long enough for
	// the kill to land.
	daemonArgs := []string{"-state-dir", stateDir, "-config", serveOnly(t, `"wal_fsync_every": 16`)}
	crash := launchSessionsDaemon(t, bin, daemonArgs...)
	for _, tenant := range tenants {
		for _, name := range names {
			createCrashSession(t, crash.httpAddr, tenant, name, spec)
		}
	}
	// The observing subscriber reads through a fault-injecting chaos
	// proxy (latency + jitter) until the fleet is provably mid-stream,
	// then the daemon dies hard.
	proxy, err := chaos.NewProxy("127.0.0.1:0", chaos.ProxyConfig{
		Target:  crash.tcpAddr,
		Seed:    41,
		Latency: 200 * time.Microsecond,
		Jitter:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := netstream.Dial(proxy.Addr(), "alpha/s0/"+netstream.ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	readN(t, cs, readBeforeKill)
	crash.kill()
	cs.Stop()
	proxy.Close()

	// The kill must land mid-stream for recovery to mean anything.
	sessionLog, err := netstream.OpenWAL(filepath.Join(stateDir, "alpha", "s0", "wal"), netstream.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	durableMax := sessionLog.Channel("alpha/s0/" + netstream.ChannelDirty).Max
	ck, ckErr := sessionLog.Checkpoint()
	sessionLog.Close()
	if durableMax < readBeforeKill {
		t.Fatalf("alpha/s0's log holds dirty frames through seq %d, but the client received %d", durableMax, readBeforeKill)
	}
	if durableMax >= uint64(rows) {
		t.Fatalf("alpha/s0 already finished before SIGKILL (durable max seq %d); enlarge the input", durableMax)
	}
	t.Logf("killed mid-stream: alpha/s0 durable dirty seq %d of %d", durableMax, rows)
	// The spec runs at the default reorder window, which no checkpoint can
	// cover: recovery is the WAL-only deterministic re-run.
	if ck != nil || ckErr != nil {
		t.Fatalf("a reorder-64 session logged a checkpoint (%+v, %v)", ck, ckErr)
	}

	// Restart over the same state dir: Recover runs before the listeners
	// come up, so the announcement implies the fleet is back.
	again := launchSessionsDaemon(t, bin, daemonArgs...)
	resp, err := http.Get("http://" + again.httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		State    string                             `json:"state"`
		Sessions map[string]netstream.SessionStatus `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.State != "ok" || len(health.Sessions) != len(tenants)*len(names) {
		t.Fatalf("healthz after restart: state=%s sessions=%d, want ok/%d", health.State, len(health.Sessions), len(tenants)*len(names))
	}
	for id, st := range health.Sessions {
		if !st.Durable || !st.Resumed {
			t.Fatalf("session %s: durable=%t resumed=%t, want both after restart", id, st.Durable, st.Resumed)
		}
		if st.State == "failed" || st.State == "quarantined" {
			t.Fatalf("session %s recovered into state %q: %s", id, st.State, st.Error)
		}
	}

	// Every session of every tenant drains byte-identical to the golden.
	for _, tenant := range tenants {
		for _, name := range names {
			ch := tenant + "/" + name + "/" + netstream.ChannelDirty
			sameWire(t, ch+" after restart", drainChannel(t, again.tcpAddr, ch), golden)
		}
	}

	// The partially-read subscriber's resume point is also gap-free: the
	// retained log still covers its next sequence.
	rc, err := netstream.DialFrom(again.tcpAddr, "alpha/s0/"+netstream.ChannelDirty, uint64(readBeforeKill)+1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := stream.Drain(rc)
	rc.Stop()
	if err != nil {
		t.Fatal(err)
	}
	sameWire(t, "alpha/s0 resumed tail", rest, golden[readBeforeKill:])
	again.terminate()
}
