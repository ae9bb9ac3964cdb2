// Flag-validation tests: bad invocations must exit with the
// conventional usage status (2), print a one-line diagnostic naming the
// offending flag or serve key, and show the flag usage — before any
// output file is created.
package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"icewafl/internal/config"
)

// TestCLIFlagValidation exercises every rejected flag range and
// combination, and every rejected serve shape, against the real binary.
func TestCLIFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildCLI(t)
	ex := filepath.Join("..", "..", "examples", "cli")
	dirty := filepath.Join(t.TempDir(), "dirty.csv")
	// with returns the base invocation under a config whose serve block
	// is serve ("" = the example config unchanged).
	with := func(serve string) []string {
		cfg := filepath.Join(ex, "pollution.json")
		if serve != "" {
			cfg = configWith(t, cfg, "serve", serve)
		}
		return []string{
			"-schema", filepath.Join(ex, "schema.json"),
			"-config", cfg,
			"-in", filepath.Join(ex, "clean.csv"),
			"-out", dirty,
		}
	}
	base := with("")

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
		{"reorder below one", append(with(`{"reorder": -1}`), "-stream"), "serve.reorder must be positive"},
		{"negative checkpoint_every", append(with(`{"checkpoint_every": -5}`), "-stream", "-checkpoint", "x.ckpt"), "serve.checkpoint_every must be positive"},
		{"stream with clean-out", append(base, "-stream", "-clean-out", "clean.csv"), "-stream cannot materialise"},
		{"shards below one", append(with(`{"shards": -1}`), "-stream"), "serve.shards must be positive"},
		{"shards without stream", with(`{"shards": 4, "shard_key": "BPM"}`), "serve.shards > 1 and -checkpoint require -stream"},
		{"shard key not in schema", append(with(`{"shards": 4, "shard_key": "sensor"}`), "-stream"), `core: shard key attribute "sensor" not in schema`},
		// Which execution shapes are valid is core.StreamSpec's rulebook
		// (see its shape-matrix test); the CLI only has to surface the
		// verdict as a usage error before any file is opened.
		{"invalid shape", append(with(`{"reorder": 1, "shards": 4, "shard_key": "BPM"}`), "-stream", "-checkpoint", "x.ckpt"), "core: checkpointing is incompatible with shards > 1"},
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
			if _, err := os.Stat(dirty); err == nil {
				t.Errorf("-out %s was created before the usage error", dirty)
			}
		})
	}
}

// TestCLIFlagSurface pins the command line: files and deployment only.
// -h lists exactly these flags; the four that restated the serve
// block's shape are undefined; no flag spells a serve key; and the old
// third spelling of the checkpoint cadence, fault_policy's
// checkpoint_interval, is an unknown key.
func TestCLIFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildCLI(t)
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(out), -1) {
		got = append(got, m[1])
	}
	want := []string{"checkpoint", "clean-out", "config", "dead-letters", "in", "log", "meta", "metrics",
		"metrics-format", "metrics-interval", "out", "report", "resume", "schema", "stream", "trace-sample"}
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
	for _, flag := range []string{"reorder", "shards", "shard-key", "checkpoint-interval"} {
		out, err := exec.Command(bin, "-"+flag).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -"+flag) {
			t.Errorf("-%s: err = %v, want exit 2 and an undefined-flag diagnostic\n%s", flag, err, out)
		}
	}

	ex := filepath.Join("..", "..", "examples", "cli")
	out, err := exec.Command(bin,
		"-schema", filepath.Join(ex, "schema.json"),
		"-config", configWith(t, filepath.Join(ex, "pollution.json"), "fault_policy", `{"checkpoint_interval": 5000}`),
		"-in", filepath.Join(ex, "clean.csv"),
		"-out", filepath.Join(t.TempDir(), "dirty.csv"),
		"-stream",
	).CombinedOutput()
	if err == nil || !strings.Contains(string(out), `unknown field "checkpoint_interval"`) {
		t.Errorf("fault_policy.checkpoint_interval: err = %v, want a parse error naming the key\n%s", err, out)
	}
}
