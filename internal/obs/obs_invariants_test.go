// Metamorphic test harness for the observability layer: instead of
// asserting exact counter values, these tests assert conservation laws
// and execution-mode equivalences that must hold for ANY seed and any
// pipeline shape. A violation means the instrumentation double-counts,
// under-counts, or fails to unwind on fault rollback.
package obs_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/obs"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// invSchema is the keyed schema shared by the invariant tests.
func invSchema() *stream.Schema {
	return stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "sensor", Kind: stream.KindString},
		stream.Field{Name: "v", Kind: stream.KindFloat},
	)
}

// invSource generates n keyed tuples deterministically.
func invSource(s *stream.Schema, n, sensors int) stream.Source {
	base := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	return stream.NewGeneratorSource(s, n, func(i int) stream.Tuple {
		return stream.NewTuple(s, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Second)),
			stream.Str(fmt.Sprintf("s%02d", i%sensors)),
			stream.Float(float64(i)),
		})
	})
}

// poisonSource reports each tuple of its source as a tuple-level
// failure (a malformed row) with probability rate; the draws are
// seeded, so a failing seed reproduces exactly.
type poisonSource struct {
	stream.Source
	rate   float64
	rand   *rng.Stream
	offset uint64
}

func (p *poisonSource) Next() (stream.Tuple, error) {
	t, err := p.Source.Next()
	if err != nil {
		return t, err
	}
	off := p.offset
	p.offset++
	if p.rand.Bernoulli(p.rate) {
		return stream.Tuple{}, &stream.TupleError{Tuple: t, Offset: off, Stage: "chaos", Err: errors.New("injected malformed row")}
	}
	return t, nil
}

// panicky is a polluter that panics on every tuple whose ID is a
// multiple of `every` — the adversarial input for the quarantine
// rollback path. It records a log entry BEFORE panicking, so the test
// also proves that Log.Truncate unwinds the entry counters exactly.
type panicky struct{ every uint64 }

func (p *panicky) Name() string { return "panicky" }

func (p *panicky) Pollute(t *stream.Tuple, tau time.Time, log *core.Log) {
	if t.ID%p.every == 0 {
		if log != nil {
			log.Record(core.Entry{TupleID: t.ID, EventTime: tau, Polluter: "panicky", Error: "about_to_panic"})
		}
		panic("panicky: injected pollution failure")
	}
}

// invPipeline builds noise + rare drop polluters, all seed-derived.
func invPipeline(seed int64, extra ...core.Polluter) *core.Pipeline {
	pols := []core.Polluter{
		core.NewStandard("noise",
			&core.GaussianNoise{Stddev: core.Const(2), Rand: rng.Derive(seed, "noise")},
			core.NewRandomConst(0.5, rng.Derive(seed, "noise-cond")), "v"),
		core.NewStandard("drop", core.DropTuple{},
			core.NewRandomConst(0.03, rng.Derive(seed, "drop-cond")), "v"),
	}
	return core.NewPipeline(append(pols, extra...)...)
}

// counterVec reads the counters the invariants quantify over.
func counterVec(reg *obs.Registry) map[obs.CounterID]uint64 {
	ids := []obs.CounterID{
		obs.CSourceRows, obs.CSourceErrors, obs.CTuplesIn, obs.CTuplesOut,
		obs.CTuplesDropped, obs.CDeadLetters, obs.CLogEntries,
		obs.CCondHits, obs.CCondMisses,
	}
	out := make(map[obs.CounterID]uint64, len(ids))
	for _, id := range ids {
		out[id] = reg.Counter(id)
	}
	return out
}

// assertLogLaws checks sum(polluted_by) == log_entries_total ==
// log.Len() — the law that survives fault rollback only because
// Log.Record and Log.Truncate keep the registry in lockstep.
func assertLogLaws(t *testing.T, reg *obs.Registry, log *core.Log) {
	t.Helper()
	var sum uint64
	for name, n := range reg.PollutedCounts() {
		if name == "" {
			t.Errorf("polluted_by has an empty polluter name")
		}
		sum += n
	}
	entries := reg.Counter(obs.CLogEntries)
	if sum != entries {
		t.Errorf("sum(polluted_by) = %d, log_entries_total = %d; want equal", sum, entries)
	}
	if log != nil && entries != uint64(log.Len()) {
		t.Errorf("log_entries_total = %d, log.Len() = %d; want equal", entries, log.Len())
	}
}

// TestObsConservationLaws runs a hostile workload — malformed source
// rows, drop errors, and a polluter that panics mid-log-entry — under
// quarantine, for several seeds, and asserts the flow-conservation laws
// every snapshot must satisfy:
//
//	source_rows == tuples_out + tuples_dropped + dead_letters_total
//	tuples_in   == tuples_out + tuples_dropped + (dead_letters_total - source_errors)
//	sum(polluted_by) == log_entries_total == log.Len()
func TestObsConservationLaws(t *testing.T) {
	schema := invSchema()
	const n = 3000
	for _, seed := range []int64{1, 7, 20160226} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reg := obs.NewRegistry()
			proc := &core.Process{
				Pipelines: []*core.Pipeline{invPipeline(seed, &panicky{every: 101})},
				FirstID:   1,
				Fault:     core.FaultPolicy{Quarantine: true},
				Obs:       reg,
			}
			src := &poisonSource{Source: invSource(schema, n, 16), rate: 0.04, rand: rng.Derive(seed, "stream/chaos")}
			out, log, err := proc.RunStream(src, 1)
			if err != nil {
				t.Fatal(err)
			}
			emitted, err := stream.Drain(out)
			if err != nil {
				t.Fatal(err)
			}

			c := counterVec(reg)
			if c[obs.CSourceRows] != n {
				t.Errorf("source_rows = %d, want %d (every generated row must be counted)", c[obs.CSourceRows], n)
			}
			if c[obs.CTuplesOut] != uint64(len(emitted)) {
				t.Errorf("tuples_out = %d, drained %d", c[obs.CTuplesOut], len(emitted))
			}
			if c[obs.CSourceErrors] == 0 || c[obs.CDeadLetters] <= c[obs.CSourceErrors] || c[obs.CTuplesDropped] == 0 {
				t.Fatalf("workload not hostile enough: %+v (chaos/panic/drop rates too low)", c)
			}
			if got, want := c[obs.CSourceRows], c[obs.CTuplesOut]+c[obs.CTuplesDropped]+c[obs.CDeadLetters]; got != want {
				t.Errorf("conservation violated: source_rows %d != out %d + dropped %d + dead %d",
					got, c[obs.CTuplesOut], c[obs.CTuplesDropped], c[obs.CDeadLetters])
			}
			pollutionDead := c[obs.CDeadLetters] - c[obs.CSourceErrors]
			if got, want := c[obs.CTuplesIn], c[obs.CTuplesOut]+c[obs.CTuplesDropped]+pollutionDead; got != want {
				t.Errorf("conservation violated: tuples_in %d != out %d + dropped %d + pollution-dead %d",
					got, c[obs.CTuplesOut], c[obs.CTuplesDropped], pollutionDead)
			}
			// Exactly two gated polluters (noise, drop) precede the
			// ungated panicky one, so every tuple entering the pipeline
			// is gate-evaluated exactly twice — even the ones later
			// quarantined (gate counts are observations, not effects,
			// and are deliberately NOT unwound by rollback).
			if hitsMisses := c[obs.CCondHits] + c[obs.CCondMisses]; hitsMisses != 2*c[obs.CTuplesIn] {
				t.Errorf("condition evals = %d, want exactly 2 * tuples_in = %d", hitsMisses, 2*c[obs.CTuplesIn])
			}
			assertLogLaws(t, reg, log)
			// The panicky polluter records an entry before every panic;
			// rollback must have removed ALL of them from both the log
			// and the counters.
			if got := reg.PollutedCounts()["panicky"]; got != 0 {
				t.Errorf("polluted_by[panicky] = %d, want 0 (rollback must unwind the pre-panic entry)", got)
			}
			log.All()(func(_ int, e *core.Entry) bool {
				if e.Polluter == "panicky" {
					t.Fatalf("log retains a rolled-back entry: %+v", *e)
				}
				return true
			})
		})
	}
}

// keyedPipeline builds a pipeline of keyed polluters whose state and
// randomness derive from the key, so sharded execution is equivalent to
// sequential execution at every shard count.
func keyedPipeline(seed int64) *core.Pipeline {
	return core.NewPipeline(core.NewKeyedPolluter("noise", "sensor", func(key string) core.Polluter {
		return core.NewStandard("noise",
			&core.GaussianNoise{Stddev: core.Const(1), Rand: rng.Derive(seed, "n/"+key)},
			core.NewRandomConst(0.4, rng.Derive(seed, "c/"+key)), "v")
	}), core.NewKeyedPolluter("spike", "sensor", func(key string) core.Polluter {
		return core.NewStandard("spike",
			&core.UniformMultNoise{Lo: core.Const(5), Hi: core.Const(10), Rand: rng.Derive(seed, "s/"+key)},
			core.NewRandomConst(0.05, rng.Derive(seed, "sc/"+key)), "v")
	}))
}

// TestObsSequentialVsShardedCounters asserts the parallelism
// metamorphic relation: running the same keyed workload sequentially
// and sharded over 2, 4 and 8 workers must produce identical counter
// totals — the sharded data path may reorder work, but it must neither
// double-count (scratch log AND merged log) nor lose updates.
func TestObsSequentialVsShardedCounters(t *testing.T) {
	schema := invSchema()
	const n, sensors, seed = 4000, 32, 99

	runSeq := func() (map[obs.CounterID]uint64, map[string]uint64) {
		reg := obs.NewRegistry()
		proc := &core.Process{
			Pipelines: []*core.Pipeline{keyedPipeline(seed)},
			FirstID:   1,
			Obs:       reg,
		}
		out, log, err := proc.RunStream(invSource(schema, n, sensors), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stream.Drain(out); err != nil {
			t.Fatal(err)
		}
		assertLogLaws(t, reg, log)
		return counterVec(reg), reg.PollutedCounts()
	}

	wantCounters, wantPolluted := runSeq()
	if wantCounters[obs.CTuplesIn] != n || wantCounters[obs.CTuplesOut] != n {
		t.Fatalf("sequential run lost tuples: %+v", wantCounters)
	}

	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg := obs.NewRegistry()
			proc := &core.Process{
				Pipelines: []*core.Pipeline{keyedPipeline(seed)},
				FirstID:   1,
				Obs:       reg,
			}
			run, err := proc.Stream(invSource(schema, n, sensors), core.StreamSpec{Shards: shards, ShardKey: "sensor"})
			if err != nil {
				t.Fatal(err)
			}
			out, log := run.Source, run.Log
			if _, err := stream.Drain(out); err != nil {
				t.Fatal(err)
			}
			got := counterVec(reg)
			for id, want := range wantCounters {
				if got[id] != want {
					t.Errorf("%s = %d sharded, %d sequential", obs.CounterName(id), got[id], want)
				}
			}
			gotPolluted := reg.PollutedCounts()
			if len(gotPolluted) != len(wantPolluted) {
				t.Errorf("polluted_by families: %v sharded vs %v sequential", gotPolluted, wantPolluted)
			}
			for name, want := range wantPolluted {
				if gotPolluted[name] != want {
					t.Errorf("polluted_by[%s] = %d sharded, %d sequential", name, gotPolluted[name], want)
				}
			}
			assertLogLaws(t, reg, log)
			if shards > 1 {
				counts := reg.ShardCounts()
				if len(counts) != shards {
					t.Fatalf("ShardCounts len = %d, want %d", len(counts), shards)
				}
				var sum uint64
				for _, c := range counts {
					sum += c
				}
				if sum != got[obs.CTuplesIn] {
					t.Errorf("sum(shard_tuples) = %d, tuples_in = %d; want equal", sum, got[obs.CTuplesIn])
				}
			}
		})
	}
}

// stickyPipeline builds a stateful pipeline (sticky + Markov
// conditions) for the checkpoint metamorphic test — the interesting
// case, because resuming restores condition state mid-stream.
func stickyPipeline(seed int64) *core.Pipeline {
	return core.NewPipeline(
		core.NewStandard("noise",
			&core.GaussianNoise{Stddev: core.Const(3), Rand: rng.Derive(seed, "noise")},
			core.NewRandomConst(0.4, rng.Derive(seed, "noise-cond")), "v"),
		core.NewStandard("freeze",
			core.NewFrozenValue(),
			core.NewSticky(core.NewRandomConst(0.05, rng.Derive(seed, "freeze-cond")), 30*time.Second), "v"),
		core.NewStandard("burst", core.MissingValue{},
			core.NewMarkovCondition(0.08, 0.4, rng.Derive(seed, "markov")), "v"),
	)
}

// drainN pulls exactly k tuples from src.
func drainN(t *testing.T, src stream.Source, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatalf("tuple %d/%d: %v", i, k, err)
		}
	}
}

// TestObsCheckpointHalvesSum asserts the fault-tolerance metamorphic
// relation: killing a run after k tuples and resuming from the
// checkpoint must yield two metric snapshots that SUM to the snapshot
// of an uninterrupted run — observability must be exactly divisible at
// the checkpoint boundary, with no replayed or lost counts.
func TestObsCheckpointHalvesSum(t *testing.T) {
	schema := invSchema()
	const n, seed = 400, 4321

	mkProc := func(reg *obs.Registry) *core.Process {
		return &core.Process{
			Pipelines: []*core.Pipeline{stickyPipeline(seed)},
			FirstID:   1,
			Obs:       reg,
		}
	}

	// Reference: uninterrupted run.
	refReg := obs.NewRegistry()
	refRun, err := mkProc(refReg).Stream(invSource(schema, n, 4), core.StreamSpec{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	refSrc, refLog := refRun.Source, refRun.Log
	if _, err := stream.Drain(refSrc); err != nil {
		t.Fatal(err)
	}
	assertLogLaws(t, refReg, refLog)
	ref := counterVec(refReg)

	for _, kill := range []int{1, 150, 399} {
		kill := kill
		t.Run(fmt.Sprintf("kill-at-%d", kill), func(t *testing.T) {
			// First half: run until "killed" after kill emitted tuples.
			regA := obs.NewRegistry()
			runA, err := mkProc(regA).Stream(invSource(schema, n, 4), core.StreamSpec{Checkpoint: true})
			if err != nil {
				t.Fatal(err)
			}
			srcA, logA, ckA := runA.Source, runA.Log, runA.Checkpointer
			drainN(t, srcA, kill)
			ckpt, err := ckA.Capture()
			if err != nil {
				t.Fatal(err)
			}
			assertLogLaws(t, regA, logA)
			if regA.Counter(obs.CCheckpointWrites) != 1 {
				t.Errorf("checkpoint_writes = %d after one Capture, want 1", regA.Counter(obs.CCheckpointWrites))
			}

			// Second half: a fresh process and registry resume.
			regB := obs.NewRegistry()
			runB, err := mkProc(regB).Stream(invSource(schema, n, 4), core.StreamSpec{Resume: ckpt})
			if err != nil {
				t.Fatal(err)
			}
			srcB, logB := runB.Source, runB.Log
			if _, err := stream.Drain(srcB); err != nil {
				t.Fatal(err)
			}
			assertLogLaws(t, regB, logB)

			a, b := counterVec(regA), counterVec(regB)
			for id, want := range ref {
				if got := a[id] + b[id]; got != want {
					t.Errorf("%s: %d (killed) + %d (resumed) = %d, uninterrupted %d",
						obs.CounterName(id), a[id], b[id], got, want)
				}
			}
			refPolluted := refReg.PollutedCounts()
			pa, pb := regA.PollutedCounts(), regB.PollutedCounts()
			for name, want := range refPolluted {
				if got := pa[name] + pb[name]; got != want {
					t.Errorf("polluted_by[%s]: %d + %d != %d", name, pa[name], pb[name], want)
				}
			}
		})
	}
}
