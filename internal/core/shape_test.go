package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"icewafl/internal/csvio"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// shapeMatrix is the literal table of the execution-shape rulebook
// (DESIGN.md "Execution shapes" mirrors it): every combination of
// reorder {1, 8} × shards {1, 3} × columnar × checkpoint with the
// verdict StreamSpec.Validate must reach — "" accepts, anything else is
// a substring of the rejection naming the broken rule. The fifth rule
// (shards > 1 needs a key that is in the schema) has its own rows in
// TestShapeMatrix, since it does not depend on the other knobs.
var shapeMatrix = []struct {
	reorder, shards      int
	columnar, checkpoint bool
	reject               string
}{
	{1, 1, false, false, ""},
	{1, 1, false, true, ""},
	{1, 1, true, false, ""},
	{1, 1, true, true, "checkpointing is incompatible with columnar execution"},
	{1, 3, false, false, ""},
	{1, 3, false, true, "checkpointing is incompatible with shards > 1"},
	{1, 3, true, false, "columnar execution is incompatible with shards > 1"},
	{1, 3, true, true, "columnar execution is incompatible with shards > 1"},
	{8, 1, false, false, ""},
	{8, 1, false, true, "checkpointing is incompatible with a reorder window of 8"},
	{8, 1, true, false, ""},
	{8, 1, true, true, "checkpointing is incompatible with columnar execution"},
	{8, 3, false, false, ""},
	{8, 3, false, true, "checkpointing is incompatible with shards > 1"},
	{8, 3, true, false, "columnar execution is incompatible with shards > 1"},
	{8, 3, true, true, "columnar execution is incompatible with shards > 1"},
}

// copyCSV drains src into buf as CSV, tuple by tuple (sharded runs emit
// loans); header is off for the continuation of a resumed run.
func copyCSV(t *testing.T, buf *bytes.Buffer, src stream.Source, header bool) {
	t.Helper()
	w := csvio.NewWriter(buf, src.Schema())
	if !header {
		w.OmitHeader()
	}
	if _, err := stream.Copy(w, src); err != nil {
		t.Fatal(err)
	}
}

// headSource emits the first n tuples of its source.
type headSource struct {
	stream.Source
	n int
}

func (h *headSource) Next() (stream.Tuple, error) {
	if h.n <= 0 {
		return stream.Tuple{}, io.EOF
	}
	h.n--
	return h.Source.Next()
}

// shapeDigest drains a run and returns sha256(dirty CSV ‖ log JSONL).
func shapeDigest(t *testing.T, src stream.Source, log *Log) [sha256.Size]byte {
	t.Helper()
	var buf bytes.Buffer
	copyCSV(t, &buf, src, true)
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// failFastFactory is the oracle pipeline's fail-fast twin: keyed noise and
// delay, with a panic injected on tuple 301 and no quarantine.
func failFastFactory(seed int64) *Pipeline {
	return NewPipeline(NewKeyedPolluter("keyed", "sensor", func(key string) Polluter {
		return &panicEvery{mod: 301, inner: NewComposite("per-key", nil,
			NewStandard("noise",
				&GaussianNoise{Stddev: Const(1.5), Rand: rng.Derive(seed, "noise/"+key)},
				NewRandomConst(0.35, rng.Derive(seed, "noise-cond/"+key)), "v"),
			NewStandard("delay",
				DelayTuple{Delay: 45 * time.Minute},
				NewRandomConst(0.05, rng.Derive(seed, "delay/"+key)), "v"))}
	}))
}

// failDigest drains a run that must end in a fatal error and returns
// sha256(dirty CSV delivered before it ‖ log JSONL) with the error
// message, after checking that the error is sticky.
func failDigest(t *testing.T, src stream.Source, log *Log) ([sha256.Size]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	_, err := stream.Copy(csvio.NewWriter(&buf, src.Schema()), src)
	if err == nil {
		t.Fatal("run ended without an error")
	}
	if _, again := src.Next(); again == nil || again.Error() != err.Error() {
		t.Fatalf("error is not sticky: %v, then %v", err, again)
	}
	if werr := log.WriteJSON(&buf); werr != nil {
		t.Fatal(werr)
	}
	return sha256.Sum256(buf.Bytes()), err.Error()
}

// pipelineRules checks the pipeline-count rules on one accepted shape:
// Stream refuses a missing or nil pipeline with an error, never a panic,
// and only the plain tuple-wise shape runs m = 2 sub-streams.
func pipelineRules(t *testing.T, spec StreamSpec, src func() stream.Source, pipe func(int) *Pipeline) {
	m2 := "exactly one pipeline"
	if spec.Shards <= 1 && !spec.Columnar && !spec.Checkpoint {
		m2 = ""
	}
	for _, tc := range []struct {
		name   string
		pipes  []*Pipeline
		reject string
	}{
		{"m=0", nil, "at least one pipeline"},
		{"nil", []*Pipeline{nil}, "pipeline 0 is nil"},
		{"m=2/nil", []*Pipeline{pipe(0), nil}, "pipeline 1 is nil"},
		{"m=2", []*Pipeline{pipe(0), pipe(1)}, m2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := (&Process{Pipelines: tc.pipes}).Stream(src(), spec)
			if tc.reject != "" {
				if err == nil || !strings.Contains(err.Error(), tc.reject) {
					t.Fatalf("Stream = %v, want rejection naming %q", err, tc.reject)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			out, err := stream.Drain(run.Source)
			if err != nil {
				t.Fatal(err)
			}
			// Full overlap through two identical pipelines: each sub-stream
			// delivers the same tuples.
			perSub := [2]int{}
			for _, tp := range out {
				perSub[tp.SubStream]++
			}
			if perSub[0] == 0 || perSub[0] != perSub[1] {
				t.Fatalf("m = 2 delivered %v tuples per sub-stream", perSub)
			}
		})
	}
}

// TestShapeMatrix is the systematic form of the byte-identity contract:
// Validate rejects exactly the combinations the five rules name, every
// accepted shape — plus a resume at the midpoint for the checkpointable
// ones — yields the bytes of the RunStream reference, and every accepted
// shape obeys the pipeline-count rules.
func TestShapeMatrix(t *testing.T) {
	const n, keys, seed = 900, 7, 77
	schema := shardedTestSchema()
	newProc := func() *Process {
		return &Process{Pipelines: []*Pipeline{keyedStickyTemporalFactory(seed)(0)}}
	}
	failProc := func() *Process { return &Process{Pipelines: []*Pipeline{failFastFactory(seed)}} }
	const failMsg = "core: pollute tuple 301: panic: injected fault on tuple 301"
	reference := map[int][sha256.Size]byte{}
	failReference := map[int][sha256.Size]byte{}
	for _, reorder := range []int{1, 8} {
		src, log, err := newProc().RunStream(shardedTestSource(schema, n, keys), reorder)
		if err != nil {
			t.Fatal(err)
		}
		reference[reorder] = shapeDigest(t, src, log)
		if src, log, err = failProc().RunStream(shardedTestSource(schema, n, keys), reorder); err != nil {
			t.Fatal(err)
		}
		var msg string
		if failReference[reorder], msg = failDigest(t, src, log); msg != failMsg {
			t.Fatalf("reorder %d: fail-fast error %q, want %q", reorder, msg, failMsg)
		}
	}
	if reference[1] == reference[8] || failReference[1] == failReference[8] {
		t.Fatal("the reorder window does not change the reference; the workload cannot tell shapes apart")
	}

	seen := map[string]bool{}
	for _, row := range shapeMatrix {
		spec := StreamSpec{Reorder: row.reorder, Shards: row.shards, ShardKey: "sensor", Columnar: row.columnar, Checkpoint: row.checkpoint}
		name := fmt.Sprintf("reorder=%d/shards=%d/columnar=%t/checkpoint=%t", row.reorder, row.shards, row.columnar, row.checkpoint)
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			err := spec.Validate(schema)
			if row.reject != "" {
				if err == nil || !strings.Contains(err.Error(), row.reject) {
					t.Fatalf("Validate = %v, want rejection naming %q", err, row.reject)
				}
				if _, serr := newProc().Stream(shardedTestSource(schema, n, keys), spec); serr == nil {
					t.Fatal("Stream started a shape Validate rejects")
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate rejected an accepted shape: %v", err)
			}
			pipelineRules(t, spec, func() stream.Source { return shardedTestSource(schema, n, keys) }, keyedStickyTemporalFactory(seed))
			if !row.checkpoint {
				with := spec
				with.Checkpoint = true
				if got, want := spec.Checkpointable(), with.Validate(schema) == nil; got != want {
					t.Errorf("Checkpointable() = %t, but adding Checkpoint validates = %t", got, want)
				}
			}
			run, err := newProc().Stream(shardedTestSource(schema, n, keys), spec)
			if err != nil {
				t.Fatal(err)
			}
			if (run.Checkpointer != nil) != row.checkpoint {
				t.Errorf("Checkpointer set = %t, want %t", run.Checkpointer != nil, row.checkpoint)
			}
			if shapeDigest(t, run.Source, run.Log) != reference[row.reorder] {
				t.Errorf("digest differs from the RunStream reference")
			}
			// Fail fast: the same delivered bytes, log and sticky error.
			fail, err := failProc().Stream(shardedTestSource(schema, n, keys), spec)
			if err != nil {
				t.Fatal(err)
			}
			if got, msg := failDigest(t, fail.Source, fail.Log); got != failReference[row.reorder] || msg != failMsg {
				t.Errorf("fail-fast run: error %q, digest equal to the RunStream reference %t", msg, got == failReference[row.reorder])
			}
			if !row.checkpoint {
				return
			}

			// Resume at the midpoint: a fresh process continues from the
			// snapshot; head ‖ tail must be the reference bytes.
			head, err := newProc().Stream(shardedTestSource(schema, n, keys), spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			copyCSV(t, &buf, &headSource{Source: head.Source, n: n / 2}, true)
			ckpt, err := head.Checkpointer.Capture()
			if err != nil {
				t.Fatal(err)
			}
			spec.Resume = ckpt
			tail, err := newProc().Stream(shardedTestSource(schema, n, keys), spec)
			if err != nil {
				t.Fatal(err)
			}
			copyCSV(t, &buf, tail.Source, false)
			for _, l := range []*Log{head.Log, tail.Log} {
				if err := l.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
			}
			if sha256.Sum256(buf.Bytes()) != reference[row.reorder] {
				t.Errorf("resumed digest differs from the RunStream reference")
			}
		})
	}
	if len(seen) != 16 {
		t.Fatalf("shape matrix names %d distinct combinations, want all 16", len(seen))
	}

	// Rule five: shards > 1 needs a key, and the key must be an attribute
	// (checked only when a schema is given).
	for _, tc := range []struct {
		key    string
		schema *stream.Schema
		reject string
	}{
		{"", schema, "requires a shard key"},
		{"", nil, "requires a shard key"},
		{"nope", schema, `shard key attribute "nope" not in schema`},
		{"nope", nil, ""},
		{"sensor", schema, ""},
	} {
		err := StreamSpec{Shards: 3, ShardKey: tc.key}.Validate(tc.schema)
		if tc.reject == "" && err != nil || tc.reject != "" && (err == nil || !strings.Contains(err.Error(), tc.reject)) {
			t.Errorf("key %q (schema given: %t): Validate = %v, want %q", tc.key, tc.schema != nil, err, tc.reject)
		}
	}
	if err := (StreamSpec{Shards: 1}).Validate(schema); err != nil {
		t.Errorf("sequential shape needs no key: %v", err)
	}
}
