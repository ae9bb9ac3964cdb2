// Kill-and-recover end-to-end tests: the real icewafld binary is
// SIGKILLed mid-stream and restarted over the same -state-dir (WAL and
// checkpoint); a client resuming at its last acked sequence must observe
// a stream byte-identical to an uninterrupted run — directly, and
// through a fault-injecting chaos proxy.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"icewafl/internal/chaos"
	"icewafl/internal/netstream"
	"icewafl/internal/stream"
)

// daemonProc is a running icewafld with handles for both shutdown modes.
type daemonProc struct {
	t       *testing.T
	cmd     *exec.Cmd
	done    chan error
	tcpAddr string
	stopped bool
}

// launchDaemon starts bin with args plus a random TCP listener and no
// HTTP endpoint, waiting for the address announcement.
func launchDaemon(t *testing.T, bin string, args ...string) *daemonProc {
	t.Helper()
	cmd := exec.Command(bin, append(args, "-listen", "127.0.0.1:0", "-http", "off")...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemonProc{t: t, cmd: cmd, done: make(chan error, 1)}
	sc := bufio.NewScanner(stderr)
	var seen []string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening tcp="); i >= 0 {
			fields := strings.Fields(line[i:])
			if len(fields) >= 2 {
				d.tcpAddr = strings.TrimPrefix(fields[1], "tcp=")
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
	if d.tcpAddr == "" {
		_ = cmd.Process.Kill()
		t.Fatalf("daemon never announced its address (scan err: %v)\nstderr:\n%s",
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

// kill SIGKILLs the daemon — the crash under test.
func (d *daemonProc) kill() {
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
func (d *daemonProc) terminate() {
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

// writeBigCSV generates a deterministic wearable CSV large enough that
// a kill shortly after the run starts always lands mid-stream.
func writeBigCSV(t *testing.T, path string, rows int) {
	t.Helper()
	var b strings.Builder
	b.WriteString("Time,BPM,Steps,Distance,CaloriesBurned,ActiveMinutes\n")
	base := time.Date(2016, 2, 26, 0, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		ts := base.Add(time.Duration(i) * 15 * time.Minute)
		bpm := 55 + (i*7)%80 // crosses the BPM>100 pollution branch
		steps := (i * 13) % 400
		dist := float64(steps) * 0.0007
		cal := 19.0 + float64(i%50)*0.37
		active := (i / 4) % 15
		fmt.Fprintf(&b, "%s,%d,%d,%.4f,%.3f,%d\n",
			ts.Format(time.RFC3339), bpm, steps, dist, cal, active)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// crashArgs returns the shared flag set for a run over the generated
// input. Its serve block runs at reorder 1, the checkpointable shape;
// withWAL adds -state-dir <dir>/state, which makes the run durable.
func crashArgs(t *testing.T, in string, dir string, withWAL bool) []string {
	ex := filepath.Join("..", "..", "examples", "cli")
	args := []string{
		"-schema", filepath.Join(ex, "schema.json"),
		"-config", withServe(t, `"replay": 65536, "reorder": 1, "checkpoint_every": 64, "wal_fsync_every": 16`),
		"-in", in,
	}
	if withWAL {
		args = append(args, "-state-dir", filepath.Join(dir, "state"))
	}
	return args
}

// readN pulls exactly n tuples from src.
func readN(t *testing.T, src stream.Source, n int) []stream.Tuple {
	t.Helper()
	out := make([]stream.Tuple, 0, n)
	for len(out) < n {
		tp, err := src.Next()
		if err != nil {
			t.Fatalf("read tuple %d: %v", len(out)+1, err)
		}
		out = append(out, tp)
	}
	return out
}

// sameWire fails unless got and want are byte-identical on the wire.
func sameWire(t *testing.T, label string, got, want []stream.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d tuples, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, _ := json.Marshal(netstream.EncodeTuple(got[i]))
		w, _ := json.Marshal(netstream.EncodeTuple(want[i]))
		if string(g) != string(w) {
			t.Fatalf("%s: tuple %d differs:\ngot  %s\nwant %s", label, i, g, w)
		}
	}
}

// TestDaemonCrashRecoverySIGKILL: golden run → durable run killed with
// SIGKILL mid-stream → restart on the same state dir, resuming from its
// checkpoint →
// a client resuming at its last acked sequence observes the exact
// golden stream, and a fresh full drain of the clean channel matches
// the uninterrupted run too.
func TestDaemonCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	const rows, readBeforeKill = 12000, 500
	bin := buildDaemon(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "big.csv")
	writeBigCSV(t, in, rows)

	// Uninterrupted reference run (no WAL).
	ref := launchDaemon(t, bin, crashArgs(t, in, dir, false)...)
	golden := drainChannel(t, ref.tcpAddr, netstream.ChannelDirty)
	goldenClean := drainChannel(t, ref.tcpAddr, netstream.ChannelClean)
	ref.terminate()
	if len(golden) != rows {
		t.Fatalf("golden run produced %d dirty tuples, want %d", len(golden), rows)
	}

	// Durable run, SIGKILLed after the client acked readBeforeKill
	// tuples.
	crash := launchDaemon(t, bin, crashArgs(t, in, dir, true)...)
	cs, err := netstream.Dial(crash.tcpAddr, netstream.ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	first := readN(t, cs, readBeforeKill)
	crash.kill()
	cs.Stop()

	// The crash must land mid-stream for the resume to mean anything:
	// the durable dirty log ends short of the full run.
	sessionLog, err := netstream.OpenWAL(filepath.Join(dir, "state", "wal"), netstream.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	durableMax := sessionLog.Channel(netstream.ChannelDirty).Max
	ck, ckErr := sessionLog.Checkpoint()
	sessionLog.Close()
	if durableMax < readBeforeKill {
		t.Fatalf("the log holds dirty frames through seq %d, but the client received %d", durableMax, readBeforeKill)
	}
	if durableMax >= uint64(rows) {
		t.Fatalf("pipeline already finished before SIGKILL (durable max seq %d); enlarge the input", durableMax)
	}
	t.Logf("killed mid-stream: durable dirty seq %d of %d", durableMax, rows)
	// At reorder 1 the run checkpoints, so the restart resumes there.
	if ck == nil || ckErr != nil {
		t.Fatalf("no checkpoint in the session log after the kill: %v", ckErr)
	}

	// Restart over the same state dir; resume at the last acked
	// sequence.
	again := launchDaemon(t, bin, crashArgs(t, in, dir, true)...)
	rc, err := netstream.DialFrom(again.tcpAddr, netstream.ChannelDirty, uint64(readBeforeKill)+1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Stop()
	rest, err := stream.Drain(rc)
	if err != nil {
		t.Fatal(err)
	}
	sameWire(t, "resumed dirty stream", append(first, rest...), golden)

	// A fresh subscriber drains the complete clean channel from the
	// durable log — no duplicated and no missing sequences across the
	// crash.
	sameWire(t, "clean stream after restart", drainChannel(t, again.tcpAddr, netstream.ChannelClean), goldenClean)
	again.terminate()
}

// TestDaemonCrashRecoveryChaosProxy is the same kill-and-recover flow
// with every client byte crossing a chaos proxy that adds latency,
// jitter, and mid-frame connection kills; clients, reconnecting on their
// own, must still assemble the exact golden stream.
func TestDaemonCrashRecoveryChaosProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	const rows, readBeforeKill = 12000, 400
	bin := buildDaemon(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "big.csv")
	writeBigCSV(t, in, rows)

	ref := launchDaemon(t, bin, crashArgs(t, in, dir, false)...)
	golden := drainChannel(t, ref.tcpAddr, netstream.ChannelDirty)
	ref.terminate()

	newProxy := func(target string) *chaos.Proxy {
		p, err := chaos.NewProxy("127.0.0.1:0", chaos.ProxyConfig{
			Target:         target,
			Seed:           97,
			Latency:        200 * time.Microsecond,
			Jitter:         time.Millisecond,
			KillAfterBytes: 32 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// dialVia retries past kills that land inside the hello frame.
	dialVia := func(addr string, fromSeq uint64) *netstream.ClientSource {
		var last error
		for attempt := 0; attempt < 10; attempt++ {
			cs, err := netstream.DialFrom(addr, netstream.ChannelDirty, fromSeq, 5*time.Second)
			if err == nil {
				return cs
			}
			last = err
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("dial through chaos proxy: %v", last)
		return nil
	}

	crash := launchDaemon(t, bin, crashArgs(t, in, dir, true)...)
	proxy := newProxy(crash.tcpAddr)
	cs := dialVia(proxy.Addr(), 0)
	first := readN(t, cs, readBeforeKill)
	crash.kill()
	cs.Stop()
	kills := proxy.Kills()
	proxy.Close()

	again := launchDaemon(t, bin, crashArgs(t, in, dir, true)...)
	proxy2 := newProxy(again.tcpAddr)
	defer proxy2.Close()
	rc := dialVia(proxy2.Addr(), uint64(readBeforeKill)+1)
	defer rc.Stop()
	rest, err := stream.Drain(rc)
	if err != nil {
		t.Fatal(err)
	}
	sameWire(t, "resumed dirty stream via chaos proxy", append(first, rest...), golden)
	if kills+proxy2.Kills() == 0 {
		t.Error("chaos proxy never killed a connection; fault schedule did not engage")
	}
	again.terminate()
	t.Logf("chaos: %d kills during crash phase, %d during resume", kills, proxy2.Kills())
}
