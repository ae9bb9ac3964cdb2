// End-to-end test of the networked service: builds the real icewafld
// binary, serves the examples/cli wearable scenario, and checks that
// concurrent network clients receive exactly the artifacts the
// single-process CLI writes — the dirty stream byte-identical to
// cmd/icewafl's committed golden, the clean stream identical to the
// input, and the pollution log identical to the log golden.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/csvio"
	"icewafl/internal/netstream"
	"icewafl/internal/schemafile"
	"icewafl/internal/stream"
)

// buildDaemon compiles icewafld into a scratch dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "icewafld")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches icewafld over the examples/cli scenario on random
// ports and returns the bound TCP and HTTP addresses plus a shutdown
// function that SIGTERMs the process and waits for a clean exit.
func startDaemon(t *testing.T, extra ...string) (tcpAddr, httpAddr string, shutdown func()) {
	t.Helper()
	bin := buildDaemon(t)
	ex := filepath.Join("..", "..", "examples", "cli")
	args := append([]string{
		"-schema", filepath.Join(ex, "schema.json"),
		"-config", filepath.Join(ex, "pollution.json"),
		"-in", filepath.Join(ex, "clean.csv"),
		"-listen", "127.0.0.1:0",
		"-http", "127.0.0.1:0",
	}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)

	// The daemon announces its bound addresses on stderr; everything
	// after is drained so the process never blocks on the pipe.
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening tcp="); i >= 0 {
			fields := strings.Fields(line[i:])
			if len(fields) < 3 {
				continue
			}
			tcpAddr = strings.TrimPrefix(fields[1], "tcp=")
			httpAddr = strings.TrimPrefix(fields[2], "http=")
			break
		}
	}
	go func() {
		for sc.Scan() {
		}
		done <- cmd.Wait()
	}()
	if tcpAddr == "" || httpAddr == "" {
		_ = cmd.Process.Kill()
		t.Fatalf("daemon never announced its addresses (scan err: %v)", sc.Err())
	}

	var once sync.Once
	shutdown = func() {
		once.Do(func() {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("daemon exited non-zero after SIGTERM: %v", err)
				}
			case <-time.After(30 * time.Second):
				_ = cmd.Process.Kill()
				t.Error("daemon did not exit after SIGTERM")
			}
		})
	}
	t.Cleanup(shutdown)
	return tcpAddr, httpAddr, shutdown
}

// drainChannel subscribes a ClientSource and drains the whole channel.
func drainChannel(t *testing.T, addr, channel string) []stream.Tuple {
	t.Helper()
	src, err := netstream.Dial(addr, channel)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Stop()
	tuples, err := stream.Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	return tuples
}

// renderCSV writes tuples exactly as the CLI does.
func renderCSV(t *testing.T, schema *stream.Schema, tuples []stream.Tuple) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := csvio.WriteAll(&buf, schema, tuples); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDaemonServesGoldenPipeline is the tentpole acceptance test:
// icewafld serves the examples/cli pipeline to concurrent clients whose
// received streams are byte-identical to the in-process CLI goldens.
func TestDaemonServesGoldenPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	tcpAddr, httpAddr, shutdown := startDaemon(t)
	ex := filepath.Join("..", "..", "examples", "cli")
	schema, err := schemafile.Load(filepath.Join(ex, "schema.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Two concurrent dirty-channel clients plus one clean-channel client.
	var wg sync.WaitGroup
	dirty := make([][]stream.Tuple, 2)
	for i := range dirty {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dirty[i] = drainChannel(t, tcpAddr, netstream.ChannelDirty)
		}(i)
	}
	var clean []stream.Tuple
	wg.Add(1)
	go func() {
		defer wg.Done()
		clean = drainChannel(t, tcpAddr, netstream.ChannelClean)
	}()
	wg.Wait()

	// Dirty stream: byte-identical to the committed CLI golden, for both
	// clients.
	golden, err := os.ReadFile(filepath.Join("..", "icewafl", "testdata", "dirty.csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range dirty {
		if got := renderCSV(t, schema, dirty[i]); !bytes.Equal(got, golden) {
			t.Errorf("client %d: dirty stream differs from cmd/icewafl golden (%d vs %d bytes)", i, len(got), len(golden))
		}
	}

	// Clean stream: the prepared input, byte-identical to the source CSV.
	inBytes, err := os.ReadFile(filepath.Join(ex, "clean.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCSV(t, schema, clean); !bytes.Equal(got, inBytes) {
		t.Errorf("clean stream differs from the input CSV (%d vs %d bytes)", len(got), len(inBytes))
	}

	// Log channel: entries identical to the CLI's pollution log golden.
	entries := readLog(t, tcpAddr)
	var logBuf bytes.Buffer
	l := &core.Log{Entries: entries}
	if err := l.WriteJSON(&logBuf); err != nil {
		t.Fatal(err)
	}
	logGolden, err := os.ReadFile(filepath.Join("..", "icewafl", "testdata", "log.jsonl.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logBuf.Bytes(), logGolden) {
		t.Errorf("pollution log differs from cmd/icewafl golden (%d vs %d bytes)", logBuf.Len(), len(logGolden))
	}

	// Health endpoint reports the completed run.
	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Sessions map[string]netstream.SessionStatus `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	health := body.Sessions[""]
	if health.State != "done" {
		t.Errorf("health state = %q, want done", health.State)
	}
	if want := uint64(len(dirty[0]) + 1); health.DirtySeq != want {
		t.Errorf("health dirty_seq = %d, want %d (tuples + eof)", health.DirtySeq, want)
	}

	// Graceful shutdown: SIGTERM exits zero.
	shutdown()
}

// readLog drains the log channel over raw TCP.
func readLog(t *testing.T, addr string) []core.Entry {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, _ := json.Marshal(netstream.SubscribeRequest{Channel: netstream.ChannelLog})
	if err := netstream.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var entries []core.Entry
	for {
		_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		payload, err := netstream.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		f, err := netstream.DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case netstream.FrameHello:
		case netstream.FrameLog:
			entries = append(entries, *f.Entry)
		case netstream.FrameEOF:
			return entries
		default:
			t.Fatalf("unexpected frame %q on log channel", f.Type)
		}
	}
}

// TestDaemonLinger: with -linger the daemon exits on its own after the
// pipeline completes, which the CI harness relies on.
func TestDaemonLinger(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	ex := filepath.Join("..", "..", "examples", "cli")
	cmd := exec.Command(bin,
		"-schema", filepath.Join(ex, "schema.json"),
		"-config", filepath.Join(ex, "pollution.json"),
		"-in", filepath.Join(ex, "clean.csv"),
		"-listen", "127.0.0.1:0",
		"-http", "off",
		"-linger", "100ms",
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("icewafld -linger: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "pipeline done") {
		t.Errorf("missing completion log:\n%s", out)
	}
}

// TestDaemonUsageErrors: invalid invocations exit with usage status 2.
func TestDaemonUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	ex := filepath.Join("..", "..", "examples", "cli")
	base := []string{
		"-schema", filepath.Join(ex, "schema.json"),
		"-config", filepath.Join(ex, "pollution.json"),
		"-in", filepath.Join(ex, "clean.csv"),
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing required", nil, "required"},
		{"bad policy", append(base, "-policy", "bogus"), "unknown backpressure policy"},
		{"negative buffer", append(base, "-buffer", "-1"), "-buffer must be positive"},
		{"both listeners off", append(base, "-listen", "off", "-http", "off"), "both listeners disabled"},
		{"checkpoint without wal", append(base, "-checkpoint", "ck.json"), "-checkpoint requires -wal"},
		{"negative wal segment", append(base, "-wal-segment-bytes", "-1"), "-wal-segment-bytes must be positive"},
		{"negative restart budget", append(base, "-restart-budget", "-1"), "-restart-budget must be positive"},
		{"negative checkpoint every", append(base, "-checkpoint-every", "-1"), "-checkpoint-every must be positive"},
		// The shape rules are core.StreamSpec's; the daemon surfaces them.
		{"invalid shape", append(base, "-wal", "w", "-checkpoint", "ck.json", "-shards", "4", "-shard-key", "BPM"), "core: checkpointing is incompatible with shards > 1"},
		// Session mode takes each pipeline from its spec, not from flags.
		{"pipeline flags with sessions", []string{"-sessions", "-http", "off", "-in", "x.csv", "-wal", "w"}, "-in -wal do not apply to -sessions mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected non-zero exit, got %v\n%s", err, out)
			}
			if ee.ExitCode() != 2 {
				t.Errorf("exit code = %d, want 2\n%s", ee.ExitCode(), out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("diagnostic missing %q:\n%s", tc.want, out)
			}
		})
	}
}
