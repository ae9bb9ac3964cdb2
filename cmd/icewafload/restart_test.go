// Restart verification for the load harness: a durable session-mode
// daemon is loaded with -keep semantics (sessions survive the run),
// SIGKILLed, restarted over the same state directory, and re-verified
// with -attach semantics — the recovered daemon must serve every
// session byte-identical to the pre-kill run, with zero gap errors.
package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// killableDaemon is a session-mode daemon the test can SIGKILL or
// SIGTERM.
type killableDaemon struct {
	t       *testing.T
	cmd     *exec.Cmd
	done    chan error
	baseURL string
	stopped bool
}

// startKillableSessionDaemon launches icewafld -sessions with extra
// args on random ports and parses the announced HTTP address.
func startKillableSessionDaemon(t *testing.T, bin string, extra ...string) *killableDaemon {
	t.Helper()
	args := append([]string{"-sessions", "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &killableDaemon{t: t, cmd: cmd, done: make(chan error, 1)}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening tcp="); i >= 0 {
			for _, f := range strings.Fields(line[i:]) {
				if strings.HasPrefix(f, "http=") {
					d.baseURL = "http://" + strings.TrimPrefix(f, "http=")
				}
			}
			break
		}
	}
	go func() {
		for sc.Scan() {
		}
		d.done <- cmd.Wait()
	}()
	if d.baseURL == "" {
		_ = cmd.Process.Kill()
		t.Fatal("daemon never announced its HTTP address")
	}
	t.Cleanup(func() {
		if !d.stopped {
			_ = cmd.Process.Kill()
			<-d.done
		}
	})
	return d
}

// kill SIGKILLs the daemon — no drain, no WAL close, no goodbye.
func (d *killableDaemon) kill() {
	d.t.Helper()
	_ = d.cmd.Process.Kill()
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.t.Fatal("daemon did not die after SIGKILL")
	}
	d.stopped = true
}

// terminate SIGTERMs the daemon and requires a clean exit.
func (d *killableDaemon) terminate() {
	d.t.Helper()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		if err != nil {
			d.t.Errorf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		d.t.Fatal("daemon did not exit after SIGTERM")
	}
	d.stopped = true
}

// TestLoadHarnessRestartDigestsMatch: load a durable daemon with
// KeepSessions, SIGKILL it, restart over the same -state-dir, and
// re-run the harness with AttachOnly — both passes must produce the
// single direct-run digest across every subscriber of every session,
// with zero gap errors either side of the kill.
func TestLoadHarnessRestartDigestsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness integration is not a -short test")
	}
	const rows, sessions, subs = 150, 4, 4
	bin := buildDaemon(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	serveCfg := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(serveCfg, []byte(`{"serve": {"wal_fsync_every": 32}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	daemonArgs := []string{"-state-dir", stateDir, "-config", serveCfg}

	first := startKillableSessionDaemon(t, bin, daemonArgs...)
	res1, err := Run(Options{
		BaseURL:      first.baseURL,
		Tenants:      []string{"alpha", "beta"},
		Sessions:     sessions,
		Subs:         subs,
		Rows:         rows,
		Timeout:      3 * time.Minute,
		KeepSessions: true,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res1.Errors {
		t.Errorf("pre-kill error: %s", e)
	}
	want, _, err := directDigest(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Created) != sessions || res1.GapErrors != 0 {
		t.Fatalf("pre-kill: created=%d gaps=%d, want %d and 0", len(res1.Created), res1.GapErrors, sessions)
	}
	if len(res1.Digests) != 1 || res1.Digests[want] != sessions*subs {
		t.Fatalf("pre-kill digests = %v, want {%.12s…: %d}", res1.Digests, want, sessions*subs)
	}
	// KeepSessions left the durable state behind for the restart.
	if _, err := os.Stat(filepath.Join(stateDir, "alpha")); err != nil {
		t.Fatalf("state dir not populated before kill: %v", err)
	}
	first.kill()

	second := startKillableSessionDaemon(t, bin, daemonArgs...)
	defer second.terminate()
	res2, err := Run(Options{
		BaseURL:    second.baseURL,
		Tenants:    []string{"alpha", "beta"},
		Subs:       subs,
		Rows:       rows,
		Timeout:    3 * time.Minute,
		AttachOnly: true,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res2.Errors {
		t.Errorf("post-restart error: %s", e)
	}
	// The restarted daemon recovered every session and serves the exact
	// pre-kill streams.
	if len(res2.Created) != sessions {
		t.Fatalf("attached to %d recovered sessions, want %d: %v", len(res2.Created), sessions, res2.Created)
	}
	for i := range res1.Created {
		if res1.Created[i] != res2.Created[i] {
			t.Fatalf("recovered session list %v != created list %v", res2.Created, res1.Created)
		}
	}
	if res2.GapErrors != 0 {
		t.Fatalf("%d gap errors after restart, want 0", res2.GapErrors)
	}
	if len(res2.Digests) != 1 || res2.Digests[want] != sessions*subs {
		t.Fatalf("post-restart digests = %v, want {%.12s…: %d}", res2.Digests, want, sessions*subs)
	}
}
