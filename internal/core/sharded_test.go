package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// shardedTestSchema is a keyed sensor stream: timestamp, sensor key,
// float measurement.
func shardedTestSchema() *stream.Schema {
	return stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "sensor", Kind: stream.KindString},
		stream.Field{Name: "v", Kind: stream.KindFloat},
	)
}

// shardedTestSource generates n tuples round-robining over keys sensors.
func shardedTestSource(schema *stream.Schema, n, keys int) stream.Source {
	base := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	return stream.NewGeneratorSource(schema, n, func(i int) stream.Tuple {
		return stream.NewTuple(schema, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Minute)),
			stream.Str(fmt.Sprintf("sensor-%02d", i%keys)),
			stream.Float(float64(i%97) / 3),
		})
	})
}

// keyedStickyTemporalFactory builds the pipeline of the determinism
// oracle: keyed + sticky + temporal. Every per-key instance derives all
// of its randomness from (seed, key), which is the precondition for the
// byte-identical sharding guarantee.
func keyedStickyTemporalFactory(seed int64) func(shard int) *Pipeline {
	perKey := func(key string) Polluter {
		return NewComposite("per-key", nil,
			NewStandard("noise",
				&GaussianNoise{Stddev: Const(1.5), Rand: rng.Derive(seed, "noise/"+key)},
				NewRandomConst(0.35, rng.Derive(seed, "noise-cond/"+key)), "v"),
			NewStandard("freeze",
				NewFrozenValue(),
				NewSticky(NewRandomConst(0.05, rng.Derive(seed, "sticky/"+key)), 2*time.Hour), "v"),
			NewStandard("delay",
				DelayTuple{Delay: 45 * time.Minute},
				NewRandomConst(0.03, rng.Derive(seed, "delay/"+key)), "v"),
			NewStandard("drop",
				DropTuple{},
				NewRandomConst(0.01, rng.Derive(seed, "drop/"+key)), "v"),
		)
	}
	return func(int) *Pipeline {
		return NewPipeline(NewKeyedPolluter("keyed", "sensor", perKey))
	}
}

// renderTuples serialises a polluted stream losslessly — metadata and
// values — so runs can be compared byte for byte.
func renderTuples(ts []stream.Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%d|%d|%d|%d|%v|%v|", t.ID, t.SubStream,
			t.EventTime.UnixNano(), t.Arrival.UnixNano(), t.Dropped, t.Quarantined)
		for i := 0; i < t.Len(); i++ {
			b.WriteString(t.At(i).String())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func renderLog(l *Log) string {
	if l == nil {
		return "<nil>"
	}
	var b bytes.Buffer
	if err := l.WriteJSON(&b); err != nil {
		return "error: " + err.Error()
	}
	return b.String()
}

// drainLoaned collects src like stream.Drain but clones every tuple:
// the sharded runner emits loans backed by recycled arena blocks.
func drainLoaned(src stream.Source) ([]stream.Tuple, error) {
	var out []stream.Tuple
	for {
		t, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t.Clone())
	}
}

// runSharded executes the keyed pipeline with the given shard count
// (1 = RunStream, the sequential reference) and returns the rendered
// output and log.
func runSharded(t *testing.T, seed int64, n, keys, shards, reorder int) (string, string) {
	t.Helper()
	return runShardedWith(t, keyedStickyTemporalFactory(seed), n, keys, reorder, shardConfig{Shards: shards})
}

// TestShardDeterminism is the property test of the sharding guarantee:
// sequential vs 2/4/8-shard runs of a keyed+sticky+temporal pipeline
// produce byte-identical output and pollution logs, for several seeds
// and with and without a reorder window. CI runs it under -race.
func TestShardDeterminism(t *testing.T) {
	const n, keys = 1500, 13
	for _, seed := range []int64{1, 42, 20220601} {
		for _, reorder := range []int{1, 64} {
			wantOut, wantLog := runSharded(t, seed, n, keys, 1, reorder)
			if wantOut == "" || wantLog == "" {
				t.Fatalf("seed %d: sequential run produced nothing", seed)
			}
			for _, shards := range []int{2, 4, 8} {
				gotOut, gotLog := runSharded(t, seed, n, keys, shards, reorder)
				if gotOut != wantOut {
					t.Errorf("seed %d reorder %d: %d-shard output differs from sequential", seed, reorder, shards)
				}
				if gotLog != wantLog {
					t.Errorf("seed %d reorder %d: %d-shard log differs from sequential", seed, reorder, shards)
				}
			}
		}
	}
}

// TestShardedAutoKeyedFactory verifies that a pipeline consisting only
// of KeyedPolluters shards automatically, without an explicit factory.
func TestShardedAutoKeyedFactory(t *testing.T) {
	const n, keys = 600, 7
	seed := int64(7)
	wantOut, wantLog := runSharded(t, seed, n, keys, 1, 1)

	schema := shardedTestSchema()
	proc := &Process{Pipelines: []*Pipeline{keyedStickyTemporalFactory(seed)(0)}}
	out, log, err := proc.runStreamSharded(shardedTestSource(schema, n, keys), 1,
		shardConfig{KeyAttr: "sensor", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := drainLoaned(out)
	if err != nil {
		t.Fatal(err)
	}
	if renderTuples(tuples) != wantOut || renderLog(log) != wantLog {
		t.Fatal("auto-sharded keyed pipeline diverged from sequential run")
	}
}

// TestShardedRejectsBadConfig covers the configuration error paths.
func TestShardedRejectsBadConfig(t *testing.T) {
	schema := shardedTestSchema()
	factory := keyedStickyTemporalFactory(1)
	nonKeyed := NewPipeline(NewStandard("noise",
		&GaussianNoise{Stddev: Const(1), Rand: rng.Derive(1, "n")},
		NewRandomConst(0.5, rng.Derive(1, "c")), "v"))

	proc := &Process{Pipelines: []*Pipeline{nonKeyed}}
	if _, _, err := proc.runStreamSharded(shardedTestSource(schema, 10, 2), 1,
		shardConfig{KeyAttr: "sensor", Shards: 2}); err == nil {
		t.Fatal("non-keyed pipeline without factory must be rejected")
	}
	proc = &Process{Pipelines: []*Pipeline{factory(0)}}
	if _, _, err := proc.runStreamSharded(shardedTestSource(schema, 10, 2), 1,
		shardConfig{Shards: 2}); err == nil {
		t.Fatal("missing KeyAttr must be rejected")
	}
	if _, _, err := proc.runStreamSharded(shardedTestSource(schema, 10, 2), 1,
		shardConfig{KeyAttr: "nope", Shards: 2}); err == nil {
		t.Fatal("unknown KeyAttr must be rejected")
	}
}

// TestShardedStopReleasesGoroutines verifies that every way a sharded
// run ends — Stop, a fail-fast pipeline panic, a source error —
// returns the feeder and the workers, leaving the goroutine count at
// its baseline.
func TestShardedStopReleasesGoroutines(t *testing.T) {
	schema := shardedTestSchema()
	open := func(factory func(int) *Pipeline, src stream.Source) stream.Source {
		proc := &Process{Pipelines: []*Pipeline{factory(0)}}
		out, _, err := proc.runStreamSharded(src, 1, shardConfig{KeyAttr: "sensor", Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	released := func(what string, before int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want the baseline %d", what, runtime.NumGoroutine(), before)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	before := runtime.NumGoroutine()
	out := open(keyedStickyTemporalFactory(3), shardedTestSource(schema, 5000, 11))
	for i := 0; i < 10; i++ {
		if _, err := out.Next(); err != nil {
			t.Fatal(err)
		}
	}
	out.(interface{ Stop() }).Stop()
	if _, err := out.Next(); err != stream.ErrStopped {
		t.Fatalf("Next after Stop = %v, want ErrStopped", err)
	}
	released("after Stop", before)

	panics := func(int) *Pipeline {
		return NewPipeline(NewKeyedPolluter("keyed", "sensor", func(string) Polluter {
			return &panicEvery{mod: 300, inner: NewStandard("noop", DelayTuple{}, Never{}, "v")}
		}))
	}
	if _, err := stream.Drain(open(panics, shardedTestSource(schema, 5000, 11))); err == nil {
		t.Fatal("panicking pipeline drained without error")
	}
	released("after a pipeline panic", before)

	srcErr := errors.New("source broke")
	broken := &failingSource{Source: shardedTestSource(schema, 5000, 11), at: 700, err: srcErr}
	if _, err := stream.Drain(open(keyedStickyTemporalFactory(3), broken)); !errors.Is(err, srcErr) {
		t.Fatalf("drain = %v, want %v", err, srcErr)
	}
	released("after a source error", before)
}

// failingSource returns err in place of its at-th tuple.
type failingSource struct {
	stream.Source
	at, n int
	err   error
}

func (f *failingSource) Next() (stream.Tuple, error) {
	if f.n == f.at {
		return stream.Tuple{}, f.err
	}
	f.n++
	return f.Source.Next()
}

// panicEvery is a per-key polluter that panics on a deterministic subset
// of tuples — the fault-injection pipeline of the runner-equivalence
// regression test.
type panicEvery struct {
	inner Polluter
	mod   uint64
}

func (p *panicEvery) Name() string { return "panic-every" }

func (p *panicEvery) Pollute(t *stream.Tuple, tau time.Time, log *Log) {
	p.inner.Pollute(t, tau, log)
	if t.ID%p.mod == 0 {
		panic(fmt.Sprintf("injected fault on tuple %d", t.ID))
	}
}

// TestRunnerLogEquivalence is the regression test for the unified
// rollback path: the sequential, checkpointed and sharded runners
// must produce identical polluted output, identical pollution logs
// (with the poisoned tuples' partial entries rolled back), and
// identical dead-letter queues.
func TestRunnerLogEquivalence(t *testing.T) {
	const n, keys = 900, 9
	seed := int64(99)
	schema := shardedTestSchema()
	factory := func(int) *Pipeline {
		perKey := func(key string) Polluter {
			return &panicEvery{
				mod: 41,
				inner: NewStandard("noise",
					&GaussianNoise{Stddev: Const(2), Rand: rng.Derive(seed, "noise/"+key)},
					NewRandomConst(0.5, rng.Derive(seed, "cond/"+key)), "v"),
			}
		}
		return NewPipeline(NewKeyedPolluter("keyed", "sensor", perKey))
	}

	type runOut struct {
		tuples  string
		log     string
		letters []stream.DeadLetter
	}
	run := func(kind string) runOut {
		dlq := stream.NewDeadLetterQueue()
		proc := &Process{
			Pipelines: []*Pipeline{factory(0)},
			Fault:     FaultPolicy{Quarantine: true, DLQ: dlq},
		}
		src := shardedTestSource(schema, n, keys)
		var (
			out stream.Source
			log *Log
			err error
		)
		switch kind {
		case "stream":
			out, log, err = proc.RunStream(src, 1)
		case "checkpointed":
			out, log, _, err = checkpointed(proc, src, nil)
		case "sharded":
			out, log, err = proc.runStreamSharded(src, 1,
				shardConfig{KeyAttr: "sensor", Shards: 3})
		default:
			t.Fatalf("unknown runner %q", kind)
		}
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		tuples, err := drainLoaned(out)
		if err != nil {
			t.Fatalf("%s drain: %v", kind, err)
		}
		return runOut{tuples: renderTuples(tuples), log: renderLog(log), letters: dlq.Letters()}
	}

	want := run("stream")
	if len(want.letters) == 0 {
		t.Fatal("fault pipeline quarantined nothing; test is vacuous")
	}
	if strings.Contains(want.log, "injected fault") {
		t.Fatal("rolled-back entries leaked into the log")
	}
	for _, kind := range []string{"checkpointed", "sharded"} {
		got := run(kind)
		if got.tuples != want.tuples {
			t.Errorf("%s output differs from RunStream", kind)
		}
		if got.log != want.log {
			t.Errorf("%s log differs from RunStream", kind)
		}
		if len(got.letters) != len(want.letters) {
			t.Fatalf("%s quarantined %d tuples, RunStream %d", kind, len(got.letters), len(want.letters))
		}
		for i := range got.letters {
			a, b := got.letters[i], want.letters[i]
			if a.TupleID != b.TupleID || a.Stage != b.Stage || a.Cause != b.Cause {
				t.Errorf("%s dead letter %d differs: %+v vs %+v", kind, i, a, b)
			}
		}
	}
}

// TestShardedFailFastOnPanic verifies that without quarantine a
// panicking pipeline surfaces as a fatal stream error (not a process
// crash) and stops the run promptly.
func TestShardedFailFastOnPanic(t *testing.T) {
	schema := shardedTestSchema()
	factory := func(int) *Pipeline {
		perKey := func(key string) Polluter {
			return &panicEvery{mod: 10, inner: NewStandard("noop", DelayTuple{}, Never{}, "v")}
		}
		return NewPipeline(NewKeyedPolluter("keyed", "sensor", perKey))
	}
	proc := &Process{Pipelines: []*Pipeline{factory(0)}}
	out, _, err := proc.runStreamSharded(shardedTestSource(schema, 200, 4), 1,
		shardConfig{KeyAttr: "sensor", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = stream.Drain(out)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("drain = %v, want injected-fault error", err)
	}
	// The error must be sticky.
	if _, err2 := out.Next(); err2 == nil {
		t.Fatal("error was not sticky")
	}
}
