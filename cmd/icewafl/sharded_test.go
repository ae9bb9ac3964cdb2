// End-to-end test of the sharded streaming shape: the real binary run
// with serve.shards N must produce byte-identical polluted CSV and
// pollution log to the sequential run.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeShardedScenario materialises a keyed pollution scenario in dir:
// a schema with a sensor key attribute, a keyed polluter whose per-key
// RNG makes the output deterministic regardless of sharding, and a CSV
// input interleaving several sensors.
func writeShardedScenario(t *testing.T, dir string, rows int) (schema, config, input string) {
	t.Helper()
	schema = filepath.Join(dir, "schema.json")
	config = filepath.Join(dir, "pollution.json")
	input = filepath.Join(dir, "clean.csv")

	writeFile(t, schema, `{
	  "timestamp": "Time",
	  "fields": [
	    {"name": "Time", "kind": "time"},
	    {"name": "sensor", "kind": "string"},
	    {"name": "v", "kind": "float"}
	  ]
	}`)
	writeFile(t, config, `{
	  "seed": 42,
	  "pipelines": [{"name": "keyed", "polluters": [{
	    "name": "per-sensor noise",
	    "type": "keyed",
	    "key_attr": "sensor",
	    "template": {
	      "name": "scale",
	      "error": {"type": "scale_by_factor", "factor": 10},
	      "condition": {"type": "random", "p": 0.5},
	      "attrs": ["v"]
	    }
	  }]}]
	}`)

	var b strings.Builder
	b.WriteString("Time,sensor,v\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "2024-01-01T00:%02d:%02dZ,s%d,%d.5\n", i/60, i%60, i%7, i)
	}
	writeFile(t, input, b.String())
	return schema, config, input
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runShardedCLI executes one streaming run and returns the produced
// polluted CSV and pollution log bytes.
func runShardedCLI(t *testing.T, bin, schema, config, input string) (csv, plog string) {
	t.Helper()
	tmp := t.TempDir()
	out := filepath.Join(tmp, "dirty.csv")
	logOut := filepath.Join(tmp, "log.jsonl")
	runCLI(t, bin, "-schema", schema, "-config", config, "-in", input,
		"-out", out, "-log", logOut, "-stream")
	csvB, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	logB, err := os.ReadFile(logOut)
	if err != nil {
		t.Fatal(err)
	}
	return string(csvB), string(logB)
}

// TestCLISharded runs the same keyed scenario sequentially and sharded
// through the real binary and asserts byte-identical output and log.
func TestCLISharded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildCLI(t)
	schema, config, input := writeShardedScenario(t, t.TempDir(), 240)

	seqCSV, seqLog := runShardedCLI(t, bin, schema, config, input)
	if !strings.Contains(seqLog, "scale_by_factor") {
		t.Fatalf("scenario injected no errors; log:\n%.400s", seqLog)
	}

	for _, shards := range []int{2, 4, 8} {
		sharded := configWith(t, config, "serve", fmt.Sprintf(`{"shards": %d, "shard_key": "sensor"}`, shards))
		csv, plog := runShardedCLI(t, bin, schema, sharded, input)
		if csv != seqCSV {
			t.Errorf("shards=%d CSV differs from sequential run", shards)
		}
		if plog != seqLog {
			t.Errorf("shards=%d log differs from sequential run", shards)
		}
	}

}

// TestCLISpellingsAcrossShapes feeds input in spellings Writer does not
// write (1.50, +5, 007, 1e3, .5, +00:00, .500Z, a leading space),
// quoted numeric cells and strings across lines through the sequential
// -stream run, whose recycled rows copy their unchanged canonical cells,
// and through batch mode and serve.shards 2, which format every cell:
// the polluted CSV and the log must be the same bytes in every shape,
// with and without -meta.
func TestCLISpellingsAcrossShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	schema, config, _ := writeShardedScenario(t, dir, 0)
	input := filepath.Join(dir, "spelled.csv")
	values := []string{"1.5", "1.50", "+5", "007", "1e3", ".5", "-0.0", `"54.8"`, "2", "-0.4", "1015.5"}
	sensors := []string{"s0", "s1", " s2", `"s,3"`, "\"s\n4\"", "s5", `\.`}
	var b strings.Builder
	b.WriteString("Time,sensor,v\n")
	for i := 0; i < 240; i++ {
		ts := fmt.Sprintf("2024-01-01T00:%02d:%02d", i/60, i%60)
		switch i % 5 {
		case 1:
			ts += "+00:00"
		case 2:
			ts += ".500Z"
		case 3:
			ts = fmt.Sprintf(`"%sZ"`, ts)
		default:
			ts += "Z"
		}
		fmt.Fprintf(&b, "%s,%s,%s\n", ts, sensors[i%len(sensors)], values[i%len(values)])
	}
	writeFile(t, input, b.String())
	sharded := configWith(t, config, "serve", `{"shards": 2, "shard_key": "sensor"}`)

	for _, meta := range []bool{false, true} {
		run := func(config string, stream bool) (string, string) {
			t.Helper()
			tmp := t.TempDir()
			out, logOut := filepath.Join(tmp, "dirty.csv"), filepath.Join(tmp, "log.jsonl")
			args := []string{"-schema", schema, "-config", config, "-in", input, "-out", out, "-log", logOut}
			if stream {
				args = append(args, "-stream")
			}
			if meta {
				args = append(args, "-meta")
			}
			runCLI(t, bin, args...)
			csvB, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			logB, err := os.ReadFile(logOut)
			if err != nil {
				t.Fatal(err)
			}
			return string(csvB), string(logB)
		}
		seqCSV, seqLog := run(config, true)
		if !strings.Contains(seqLog, "scale_by_factor") || !strings.Contains(seqCSV, "\"s\n4\"") {
			t.Fatalf("meta=%v: the run polluted nothing or lost the multi-line cell:\n%.400s", meta, seqCSV)
		}
		for name, shape := range map[string]struct {
			config string
			stream bool
		}{"batch": {config, false}, "shards=2": {sharded, true}} {
			csv, plog := run(shape.config, shape.stream)
			if csv != seqCSV {
				t.Errorf("meta=%v: %s CSV differs from the sequential -stream run", meta, name)
			}
			if plog != seqLog {
				t.Errorf("meta=%v: %s log differs from the sequential -stream run", meta, name)
			}
		}
	}
}
