package core

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// Adversarial coverage of the batch handoff and sequence merge: key
// skew (every tuple on one shard), empty input, one-tuple batches, a
// source that blocks until its last tuple came out, and the arena
// clone path.

// runShardedWith runs a keyed pipeline factory with an explicit
// shardConfig and returns the rendered output and log. Shards <= 1 is
// the sequential reference, RunStream.
func runShardedWith(t *testing.T, factory func(int) *Pipeline, n, keys, reorder int, cfg shardConfig) (string, string) {
	t.Helper()
	schema := shardedTestSchema()
	cfg.KeyAttr = "sensor"
	proc := &Process{Pipelines: []*Pipeline{factory(0)}}
	var (
		out stream.Source
		log *Log
		err error
	)
	if cfg.Shards <= 1 {
		out, log, err = proc.RunStream(shardedTestSource(schema, n, keys), reorder)
	} else {
		out, log, err = proc.runStreamSharded(shardedTestSource(schema, n, keys), reorder, cfg)
	}
	if err != nil {
		t.Fatalf("shards=%d: %v", cfg.Shards, err)
	}
	tuples, err := drainLoaned(out)
	if err != nil {
		t.Fatalf("shards=%d drain: %v", cfg.Shards, err)
	}
	return renderTuples(tuples), renderLog(log)
}

// runShardedCfg runs the keyed oracle pipeline with an explicit
// shardConfig and returns the rendered output and log.
func runShardedCfg(t *testing.T, seed int64, n, keys int, reorder int, cfg shardConfig) (string, string) {
	t.Helper()
	return runShardedWith(t, keyedStickyTemporalFactory(seed), n, keys, reorder, cfg)
}

// TestShardedKeySkew routes every tuple to a single shard (one key):
// all but one worker idle, and the merge must still be byte-identical
// — the degenerate curve point of the scaling work.
func TestShardedKeySkew(t *testing.T) {
	const n, keys = 1200, 1
	seed := int64(17)
	wantOut, wantLog := runShardedCfg(t, seed, n, keys, 1, shardConfig{Shards: 1})
	if wantOut == "" {
		t.Fatal("sequential run produced nothing")
	}
	for _, shards := range []int{2, 8} {
		gotOut, gotLog := runShardedCfg(t, seed, n, keys, 1, shardConfig{Shards: shards})
		if gotOut != wantOut {
			t.Errorf("shards=%d: skewed output differs from sequential", shards)
		}
		if gotLog != wantLog {
			t.Errorf("shards=%d: skewed log differs from sequential", shards)
		}
	}
}

// TestShardedEmptyInput drives the merge with zero tuples: the feeder
// closes the rings before any batch exists and the merger must report
// EOF, not stall.
func TestShardedEmptyInput(t *testing.T) {
	for _, shards := range []int{2, 8} {
		gotOut, gotLog := runShardedCfg(t, 5, 0, 3, 1, shardConfig{Shards: shards})
		if gotOut != "" {
			t.Errorf("shards=%d: empty input produced output %q", shards, gotOut)
		}
		if strings.Contains(gotLog, "tuple_id") {
			t.Errorf("shards=%d: empty input produced log entries", shards)
		}
	}
}

// TestShardedSingleTupleBatches forces BatchSize=1 — every handoff is
// one tuple, maximising ring traffic and merge interleaving — and
// still demands byte-identical output, log and dead letters.
func TestShardedSingleTupleBatches(t *testing.T) {
	const n, keys = 700, 5
	seed := int64(23)
	wantOut, wantLog := runShardedCfg(t, seed, n, keys, 1, shardConfig{Shards: 1})
	for _, shards := range []int{2, 4, 8} {
		cfg := shardConfig{Shards: shards, BatchSize: 1, Buffer: 2}
		gotOut, gotLog := runShardedCfg(t, seed, n, keys, 1, cfg)
		if gotOut != wantOut {
			t.Errorf("shards=%d batch=1: output differs from sequential", shards)
		}
		if gotLog != wantLog {
			t.Errorf("shards=%d batch=1: log differs from sequential", shards)
		}
	}
}

// lockstepSource is a live source that never runs ahead of its
// consumer: it hands over tuple k only once tuple k-1 has come out of
// the polluted stream (a token on out), and gives up after 5s.
type lockstepSource struct {
	stream.Source
	i   int
	out chan struct{}
}

func (l *lockstepSource) Next() (stream.Tuple, error) {
	if l.i > 0 {
		select {
		case <-l.out:
		case <-time.After(5 * time.Second):
			return stream.Tuple{}, fmt.Errorf("tuple %d still held back after 5s", l.i-1)
		}
	}
	l.i++
	return l.Source.Next()
}

// TestShardedDeliversBeforeBatchFills drives the runner the way a live
// pipe does: the source blocks until the tuple it last handed over has
// been emitted, so a runner that holds tuples back until a batch fills
// never gets the next one.
func TestShardedDeliversBeforeBatchFills(t *testing.T) {
	const n, keys = 300, 16
	schema := shardedTestSchema()
	factory := func(int) *Pipeline {
		return NewPipeline(NewKeyedPolluter("keyed", "sensor", func(key string) Polluter {
			return NewStandard("noise",
				&GaussianNoise{Stddev: Const(1), Rand: rng.Derive(4, "noise/"+key)},
				NewRandomConst(0.5, rng.Derive(4, "cond/"+key)), "v")
		}))
	}
	for _, shards := range []int{2, 4} {
		src := &lockstepSource{Source: shardedTestSource(schema, n, keys), out: make(chan struct{}, 1)}
		proc := &Process{Pipelines: []*Pipeline{factory(0)}, DisableLog: true}
		out, _, err := proc.runStreamSharded(src, 1, shardConfig{KeyAttr: "sensor", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			tu, err := out.Next()
			if err != nil {
				t.Fatalf("shards=%d: tuple %d: %v", shards, k, err)
			}
			if tu.ID != uint64(k+1) {
				t.Fatalf("shards=%d: tuple %d has ID %d", shards, k, tu.ID)
			}
			src.out <- struct{}{}
		}
		if _, err := out.Next(); err != io.EOF {
			t.Fatalf("shards=%d: after the last tuple: %v, want EOF", shards, err)
		}
	}
}

// TestShardedArenaByteIdentical runs the arena clone path against the
// plain sequential output, with and without a reorder window.
func TestShardedArenaByteIdentical(t *testing.T) {
	const n, keys = 1100, 9
	seed := int64(8)
	for _, reorder := range []int{1, 32} {
		wantOut, wantLog := runShardedCfg(t, seed, n, keys, reorder, shardConfig{Shards: 1})
		for _, shards := range []int{2, 8} {
			cfg := shardConfig{Shards: shards}
			gotOut, gotLog := runShardedCfg(t, seed, n, keys, reorder, cfg)
			if gotOut != wantOut {
				t.Errorf("arena shards=%d reorder=%d: output differs from sequential", shards, reorder)
			}
			if gotLog != wantLog {
				t.Errorf("arena shards=%d reorder=%d: log differs from sequential", shards, reorder)
			}
		}
	}
}

// keyedHeavyDelayFactory delays a sizeable fraction of tuples by far
// more than any reorder window under test (3h on a 1-minute cadence
// displaces a tuple ~180 positions), so delayed tuples dwell in a
// downstream bounded reorder buffer for arbitrarily many emissions —
// no fixed emission-count margin covers them.
func keyedHeavyDelayFactory(seed int64) func(int) *Pipeline {
	perKey := func(key string) Polluter {
		return NewComposite("per-key", nil,
			NewStandard("noise",
				&GaussianNoise{Stddev: Const(2), Rand: rng.Derive(seed, "noise/"+key)},
				NewRandomConst(0.4, rng.Derive(seed, "noise-cond/"+key)), "v"),
			NewStandard("delay",
				DelayTuple{Delay: 3 * time.Hour},
				NewRandomConst(0.15, rng.Derive(seed, "delay/"+key)), "v"),
		)
	}
	return func(int) *Pipeline {
		return NewPipeline(NewKeyedPolluter("keyed", "sensor", perKey))
	}
}

// TestShardedArenaReorderHeavyDelay is the strict-mode variant of the
// arena use-after-recycle regression: a heavily delayed tuple sits in
// the reorder buffer while far more emissions than any fixed margin
// stream past it, so with a reorder window in place retired arena
// batches must fall to the GC instead of recycling. Output must stay
// byte-identical to the sequential run; under -race the old recycling
// also surfaces as a worker-write/consumer-read race.
func TestShardedArenaReorderHeavyDelay(t *testing.T) {
	const n, keys, window = 1200, 7, 32
	factory := keyedHeavyDelayFactory(61)
	wantOut, wantLog := runShardedWith(t, factory, n, keys, window, shardConfig{Shards: 1})
	if wantOut == "" {
		t.Fatal("sequential run produced nothing")
	}
	for _, shards := range []int{2, 8} {
		cfg := shardConfig{Shards: shards, BatchSize: 16}
		gotOut, gotLog := runShardedWith(t, factory, n, keys, window, cfg)
		if gotOut != wantOut {
			t.Errorf("shards=%d: heavy-delay arena output differs from sequential", shards)
		}
		if gotLog != wantLog {
			t.Errorf("shards=%d: heavy-delay arena log differs from sequential", shards)
		}
	}
}

// TestShardedArenaPreservesSource verifies the arena contract: the
// source's tuples are cloned before pollution, so a shared slice
// survives the run unmodified (the reason the benchmark can drop its
// defensive per-tuple Clone stage).
func TestShardedArenaPreservesSource(t *testing.T) {
	schema := shardedTestSchema()
	base := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	const n = 400
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.NewTuple(schema, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Minute)),
			stream.Str(fmt.Sprintf("sensor-%02d", i%7)),
			stream.Float(float64(i)),
		})
	}
	factory := keyedStickyTemporalFactory(31)
	proc := &Process{Pipelines: []*Pipeline{factory(0)}, DisableLog: true}
	out, _, err := proc.runStreamSharded(stream.NewSliceSource(schema, tuples), 1,
		shardConfig{KeyAttr: "sensor", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Copy(stream.DiscardSink{}, out); err != nil {
		t.Fatal(err)
	}
	for i := range tuples {
		if v, _ := tuples[i].At(2).AsFloat(); v != float64(i) {
			t.Fatalf("source tuple %d mutated: v = %v, want %v", i, v, float64(i))
		}
		if tuples[i].Dropped || tuples[i].Quarantined {
			t.Fatalf("source tuple %d metadata mutated", i)
		}
	}
}

// TestShardedCleanTap verifies the sharded runner feeds CleanTap with
// every prepared tuple (it used to be silently dropped in sharded
// mode, breaking icewafld's clean channel at shards > 1).
func TestShardedCleanTap(t *testing.T) {
	const n, keys = 300, 4
	schema := shardedTestSchema()
	factory := keyedStickyTemporalFactory(12)
	var clean []stream.Tuple
	proc := &Process{
		Pipelines: []*Pipeline{factory(0)},
		CleanTap:  func(t stream.Tuple) { clean = append(clean, t.Clone()) },
	}
	out, _, err := proc.runStreamSharded(shardedTestSource(schema, n, keys), 1,
		shardConfig{KeyAttr: "sensor", Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Drain(out); err != nil {
		t.Fatal(err)
	}
	if len(clean) != n {
		t.Fatalf("CleanTap saw %d tuples, want %d", len(clean), n)
	}
	for i, tu := range clean {
		if v, _ := tu.At(2).AsFloat(); v != float64(i%97)/3 {
			t.Fatalf("CleanTap tuple %d polluted: v = %v", i, v)
		}
	}
}

// TestShardedFailFastDeterministicPrefix verifies that a fatal
// pipeline error in fail-fast mode truncates the sharded output at
// exactly the failing tuple's position, regardless of shard count: the
// first panic hits tuple ID 97 (sequence 96), so every run must emit
// exactly the 96 preceding tuples and then the same sticky error.
// (TestShapeMatrix compares every shape's fail-fast run with the
// sequential one.)
func TestShardedFailFastDeterministicPrefix(t *testing.T) {
	schema := shardedTestSchema()
	factory := func(int) *Pipeline {
		perKey := func(key string) Polluter {
			return &panicEvery{mod: 97, inner: NewStandard("noop", DelayTuple{}, Never{}, "v")}
		}
		return NewPipeline(NewKeyedPolluter("keyed", "sensor", perKey))
	}
	run := func(shards int) (string, string) {
		proc := &Process{Pipelines: []*Pipeline{factory(0)}, DisableLog: true}
		out, _, err := proc.runStreamSharded(shardedTestSource(schema, 500, 6), 1,
			shardConfig{KeyAttr: "sensor", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var got []stream.Tuple
		var ferr error
		for {
			tu, err := out.Next()
			if err != nil {
				ferr = err
				break
			}
			got = append(got, tu.Clone())
		}
		if ferr == io.EOF || !strings.Contains(ferr.Error(), "injected fault on tuple 97") {
			t.Fatalf("shards=%d: fatal error = %v, want injected fault on tuple 97", shards, ferr)
		}
		if len(got) != 96 {
			t.Fatalf("shards=%d: emitted %d tuples before the error, want 96", shards, len(got))
		}
		return renderTuples(got), ferr.Error()
	}
	wantOut, wantErr := run(2)
	for _, shards := range []int{4, 8} {
		gotOut, gotErr := run(shards)
		if gotOut != wantOut {
			t.Errorf("shards=%d: fail-fast prefix differs from shards=2", shards)
		}
		if gotErr != wantErr {
			t.Errorf("shards=%d: error %q, want %q", shards, gotErr, wantErr)
		}
	}
}
