// End-to-end golden-file test of the CLI: builds the real binary, runs
// it over the examples/cli wearable scenario, and compares the polluted
// CSV, the pollution log, and the metrics snapshots byte-for-byte
// against committed goldens. The whole engine is seeded, the metrics
// snapshot carries no timestamps, and map-valued families are exported
// in sorted order, so every artifact is reproducible to the byte.
//
// Regenerate the goldens after an intentional behaviour change with:
//
//	go test ./cmd/icewafl -run TestCLIGolden -update
package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"icewafl/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// buildCLI compiles the icewafl binary into a scratch dir once per test
// run.
func buildCLI(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "icewafl")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCLI executes the built binary and fails the test on a non-zero
// exit.
func runCLI(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("icewafl %v: %v\n%s", args, err, out)
	}
}

// checkGolden compares a produced file against testdata/<name>, or
// rewrites the golden under -update.
func checkGolden(t *testing.T, gotPath, name string) {
	t.Helper()
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatalf("read output %s: %v", gotPath, err)
	}
	goldenPath := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to create it): %v", goldenPath, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden %s: got %d bytes, want %d bytes\n"+
			"inspect with: diff %s %s\nor regenerate with: go test ./cmd/icewafl -run TestCLIGolden -update",
			gotPath, goldenPath, len(got), len(want), goldenPath, gotPath)
	}
}

// TestCLIGolden runs the examples/cli wearable scenario end to end in
// batch mode and checks every artifact — polluted CSV, pollution log,
// JSON metrics — against the goldens, then re-runs in streaming mode
// with Prometheus metrics and asserts the polluted stream is
// byte-identical across execution modes.
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildCLI(t)
	ex := filepath.Join("..", "..", "examples", "cli")
	tmp := t.TempDir()

	// Batch mode: CSV + log + JSON metrics.
	dirty := filepath.Join(tmp, "dirty.csv")
	logOut := filepath.Join(tmp, "log.jsonl")
	metrics := filepath.Join(tmp, "metrics.json")
	runCLI(t, bin,
		"-schema", filepath.Join(ex, "schema.json"),
		"-config", filepath.Join(ex, "pollution.json"),
		"-in", filepath.Join(ex, "clean.csv"),
		"-out", dirty,
		"-log", logOut,
		"-metrics", metrics,
	)
	checkGolden(t, dirty, "dirty.csv.golden")
	checkGolden(t, logOut, "log.jsonl.golden")
	checkGolden(t, metrics, "metrics.json.golden")

	// Streaming mode: same config, Prometheus exposition. The pollution
	// log is written and released every 7 tuples — some 150 slices that
	// must concatenate to the batch run's log.
	streamDirty := filepath.Join(tmp, "dirty-stream.csv")
	streamLog := filepath.Join(tmp, "log-stream.jsonl")
	streamProm := filepath.Join(tmp, "metrics.prom")
	runCLI(t, bin,
		"-schema", filepath.Join(ex, "schema.json"),
		"-config", filepath.Join(ex, "pollution.json"),
		"-in", filepath.Join(ex, "clean.csv"),
		"-out", streamDirty,
		"-log", streamLog,
		"-stream", "-checkpoint-interval", "7",
		"-metrics", streamProm,
		"-metrics-format", "prom",
	)
	checkGolden(t, streamProm, "metrics.prom.golden")
	checkGolden(t, streamLog, "log.jsonl.golden")

	// The streaming engine must emit the exact bytes of the batch run.
	batchBytes, err := os.ReadFile(dirty)
	if err != nil {
		t.Fatal(err)
	}
	streamBytes, err := os.ReadFile(streamDirty)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batchBytes, streamBytes) {
		t.Errorf("streaming output (%d bytes) differs from batch output (%d bytes)",
			len(streamBytes), len(batchBytes))
	}
}

// TestCLIKillAndResume SIGKILLs a checkpointed -stream run mid-input and
// resumes it from its checkpoint file: output and pollution log must be
// byte-identical to an uninterrupted run. The victim reads stdin, which
// the test feeds only the first 600 lines, so it is certainly mid-run
// (blocked on input, past several checkpoints) when it dies.
func TestCLIKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildCLI(t)
	ex := filepath.Join("..", "..", "examples", "cli")
	tmp := t.TempDir()
	args := func(in, tag string) []string {
		return []string{
			"-schema", filepath.Join(ex, "schema.json"),
			"-config", filepath.Join(ex, "pollution.json"),
			"-in", in,
			"-out", filepath.Join(tmp, tag+".csv"),
			"-log", filepath.Join(tmp, tag+".jsonl"),
			"-stream", "-reorder", "1",
			"-checkpoint", filepath.Join(tmp, tag+".ckpt"), "-checkpoint-interval", "50",
		}
	}
	input := filepath.Join(ex, "clean.csv")
	runCLI(t, bin, args(input, "ref")...)

	data, err := os.ReadFile(input)
	if err != nil {
		t.Fatal(err)
	}
	head := bytes.Join(bytes.SplitAfter(data, []byte("\n"))[:600], nil)
	victim := exec.Command(bin, args("-", "cut")...)
	stdin, err := victim.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := stdin.Write(head); err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(tmp, "cut.ckpt")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if c, err := core.ReadCheckpoint(ckptPath); err == nil && c.TuplesIn >= 500 {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			t.Fatal("victim wrote no checkpoint past 500 tuples")
		}
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	runCLI(t, bin, append(args(input, "cut"), "-resume")...)
	for _, ext := range []string{".csv", ".jsonl"} {
		want, err := os.ReadFile(filepath.Join(tmp, "ref"+ext))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(tmp, "cut"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("resumed %s (%d bytes) differs from the uninterrupted run's (%d bytes)", ext, len(got), len(want))
		}
	}
}
