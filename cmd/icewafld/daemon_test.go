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
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"icewafl/internal/config"
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

// withServe writes examples/cli/pollution.json with serve as its serve
// block and returns the copy's path.
func withServe(t *testing.T, serve string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "cli", "pollution.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["serve"] = json.RawMessage("{" + serve + "}")
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pollution.json")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDaemonUsageErrors: invalid invocations exit with usage status 2.
// An engine knob is set in the -config serve block, so its range checks
// are config.Normalize's; the daemon reports them as usage errors.
func TestDaemonUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	ex := filepath.Join("..", "..", "examples", "cli")
	run := func(cfg string, extra ...string) []string {
		return append([]string{
			"-schema", filepath.Join(ex, "schema.json"),
			"-config", cfg,
			"-in", filepath.Join(ex, "clean.csv"),
		}, extra...)
	}
	base := run(filepath.Join(ex, "pollution.json"))
	serve := func(block string) []string { return run(withServe(t, block)) }
	// A state dir an older build's -wal wrote: channel logs at the top;
	// and one an older -state-dir wrote: one log per channel under wal/.
	oldState, perChannel := t.TempDir(), t.TempDir()
	for _, ch := range netstream.Channels() {
		if err := os.Mkdir(filepath.Join(oldState, ch), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(perChannel, "wal", ch), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing required", nil, "required"},
		{"bad policy", serve(`"policy": "bogus"`), "serve.policy \"bogus\""},
		{"negative buffer", serve(`"buffer": -1`), "serve.buffer must be positive"},
		{"both listeners off", append(base, "-listen", "off", "-http", "off"), "both listeners disabled"},
		{"negative wal segment", serve(`"wal_segment_bytes": -1`), "serve.wal_segment_bytes must be positive"},
		{"negative restart budget", serve(`"restart_budget": -1`), "serve.restart_budget must be positive"},
		{"negative checkpoint every", serve(`"checkpoint_every": -1`), "serve.checkpoint_every must be positive"},
		// The shape rules are core.StreamSpec's; the daemon surfaces them.
		{"invalid shape", serve(`"shards": 4, "shard_key": "Nope"`), `core: shard key attribute "Nope" not in schema`},
		// Session mode takes each pipeline from its spec, not from flags.
		{"pipeline flags with sessions", []string{"-sessions", "-http", "off", "-schema", "s.json", "-in", "x.csv"}, "-in -schema do not apply to -sessions mode"},
		{"archive without state dir", []string{"-sessions", "-archive-deleted"}, "-archive-deleted requires -state-dir"},
		{"old wal layout", append(base, "-state-dir", oldState),
			fmt.Sprintf("%s holds %s; finish that run with the build that wrote it", oldState, filepath.Join(oldState, netstream.ChannelDirty))},
		{"per-channel state dir", append(base, "-state-dir", perChannel),
			fmt.Sprintf("%s holds %s; finish that run with the build that wrote it", perChannel, filepath.Join(perChannel, "wal", netstream.ChannelDirty))},
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

// TestDaemonFlagSurface pins the command line: deployment only. -h lists
// exactly these flags, none of them spells a serve key, and every flag
// that used to restate one (or spell the old -wal/-checkpoint layout)
// is now undefined.
func TestDaemonFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(out), -1) {
		got = append(got, m[1])
	}
	want := []string{"archive-deleted", "config", "http", "in", "linger", "listen", "schema", "sessions", "state-dir", "trace-sample"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-h lists %v, want %v\n%s", got, want, out)
	}
	rt := reflect.TypeOf(config.ServeSpec{})
	for i := 0; i < rt.NumField(); i++ {
		key, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if flag := strings.ReplaceAll(key, "_", "-"); slices.Contains(got, flag) {
			t.Errorf("-%s restates the serve key %q", flag, key)
		}
	}
	for _, flag := range []string{
		"policy", "buffer", "replay", "reorder", "shards", "shard-key", "drain-timeout",
		"wal-segment-bytes", "wal-retain-bytes", "wal-retain-age", "wal-fsync-every",
		"checkpoint-every", "supervise", "restart-budget", "restart-window", "restart-backoff",
		"wal", "checkpoint",
	} {
		out, err := exec.Command(bin, "-"+flag).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -"+flag) {
			t.Errorf("-%s: err = %v, want exit 2 and an undefined-flag diagnostic\n%s", flag, err, out)
		}
	}
}
