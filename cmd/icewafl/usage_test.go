// Flag-validation tests: bad invocations must exit with the
// conventional usage status (2), print a one-line diagnostic naming the
// offending flag, and show the flag usage — before any output file is
// created.
package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIFlagValidation exercises every rejected flag range and
// combination against the real binary.
func TestCLIFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildCLI(t)
	ex := filepath.Join("..", "..", "examples", "cli")
	base := []string{
		"-schema", filepath.Join(ex, "schema.json"),
		"-config", filepath.Join(ex, "pollution.json"),
		"-in", filepath.Join(ex, "clean.csv"),
		"-out", filepath.Join(t.TempDir(), "dirty.csv"),
	}

	cases := []struct {
		name string
		args []string
		want string // substring of the diagnostic
	}{
		{"missing required", nil, "-schema, -config, -in and -out are required"},
		{"resume without checkpoint", append(base, "-stream", "-resume"), "-resume requires -checkpoint"},
		{"checkpoint without stream", append(base, "-checkpoint", "x.ckpt"), "-checkpoint require -stream"},
		{"trace-sample without metrics", append(base, "-trace-sample", "8"), "-trace-sample requires -metrics"},
		{"trace-sample out of range", append(base, "-trace-sample", "4294967296", "-metrics", "m.json"), "-trace-sample must be at most"},
		{"negative metrics-interval", append(base, "-metrics", "m.json", "-metrics-interval", "-1s"), "-metrics-interval must be non-negative"},
		{"metrics-interval without metrics", append(base, "-metrics-interval", "1s"), "-metrics-interval requires -metrics"},
		{"reorder below one", append(base, "-stream", "-reorder", "0"), "-reorder must be at least 1"},
		{"negative checkpoint-interval", append(base, "-stream", "-checkpoint", "x.ckpt", "-checkpoint-interval", "-5"), "-checkpoint-interval must be non-negative"},
		{"stream with clean-out", append(base, "-stream", "-clean-out", "clean.csv"), "-stream cannot materialise"},
		{"shards below one", append(base, "-stream", "-shards", "0"), "-shards must be at least 1"},
		{"shards without stream", append(base, "-shards", "4", "-shard-key", "sensor"), "-shards and -checkpoint require -stream"},
		// Which execution shapes are valid is core.StreamSpec's rulebook
		// (see its shape-matrix test); the CLI only has to surface the
		// verdict as a usage error before any file is opened.
		{"invalid shape", append(base, "-stream", "-reorder", "1", "-checkpoint", "x.ckpt", "-shards", "4", "-shard-key", "sensor"), "core: checkpointing is incompatible with shards > 1"},
		{"checkpoint with the default reorder window", append(base, "-stream", "-checkpoint", "x.ckpt"), "core: checkpointing is incompatible with a reorder window of 64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected non-zero exit, got err=%v\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("exit code = %d, want 2 (usage)\n%s", code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("diagnostic missing %q:\n%s", tc.want, out)
			}
			if !strings.Contains(string(out), "Usage") && !strings.Contains(string(out), "-schema string") {
				t.Errorf("usage text not printed:\n%s", out)
			}
		})
	}
}
