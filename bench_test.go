// Package icewafl's repository-level benchmarks measure the design
// alternatives called out in DESIGN.md §5 and the consumers of a
// polluted stream; the paper's tables are cmd/paper's, pinned by
// TestExperimentGoldens.
//
// Run with: go test -bench=. -benchmem
package icewafl

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"icewafl/internal/anomaly"
	"icewafl/internal/core"
	"icewafl/internal/dataset"
	"icewafl/internal/dq"
	"icewafl/internal/experiments"
	"icewafl/internal/obs"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// --- Ablation benchmarks (DESIGN.md §5) ---

func benchStream(n int) (*stream.Schema, []stream.Tuple) {
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
	)
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.NewTuple(schema, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Second)),
			stream.Float(float64(i)),
		})
	}
	return schema, tuples
}

func noisePipe(seed int64) *core.Pipeline {
	return core.NewPipeline(core.NewStandard("noise",
		&core.GaussianNoise{Stddev: core.Const(1), Rand: rng.Derive(seed, "n")},
		core.NewRandomConst(0.3, rng.Derive(seed, "c")), "v"))
}

// cloneBlock deep-copies tuples into one contiguous value block — two
// allocations however many tuples — so a runner that pollutes in place
// starts every run from pristine input without a per-tuple clone.
func cloneBlock(tuples []stream.Tuple) []stream.Tuple {
	if len(tuples) == 0 {
		return nil
	}
	w := tuples[0].Len()
	block := make([]stream.Value, len(tuples)*w)
	out := slices.Clone(tuples)
	for i := range out {
		out[i].CloneValuesInto(block[i*w : (i+1)*w : (i+1)*w])
	}
	return out
}

// TestObsHotPathAllocFree asserts the observability overhead contract:
// the tuple-wise hot path performs only per-run setup allocations
// (process, runner, source chain, the input block — a small constant),
// never per-tuple ones, and attaching a live registry adds none at all.
func TestObsHotPathAllocFree(t *testing.T) {
	schema, tuples := benchStream(1000)
	run := func(reg *obs.Registry) func() {
		seed := int64(0)
		return func() {
			seed++
			proc := core.NewProcess(noisePipe(seed))
			proc.DisableLog = true
			proc.Obs = reg
			out, _, err := proc.RunStream(stream.NewSliceSource(schema, cloneBlock(tuples)), 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := stream.Copy(stream.DiscardSink{}, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	nilAllocs := testing.AllocsPerRun(10, run(nil))
	reg := obs.NewRegistry()
	run(reg)() // warm the registry's lazy structures
	onAllocs := testing.AllocsPerRun(10, run(reg))
	// 1000 tuples flow per run; a per-tuple alloc would cost >=1000.
	// The setup constant is ~20; leave headroom.
	const setupCeiling = 64
	t.Logf("allocs/run: %v nil registry, %v live registry", nilAllocs, onAllocs)
	if nilAllocs > setupCeiling {
		t.Fatalf("nil-registry hot path allocates %v/run, want <= %d (per-tuple allocation crept in)", nilAllocs, setupCeiling)
	}
	// An enabled registry pays O(1) wrapper allocations at run setup
	// (the observed-source adapter, the DLQ gauge closure) but must stay
	// allocation-free per tuple: the counters are preallocated padded
	// cells and the sampler is pure arithmetic.
	const wrapperBudget = 8
	if onAllocs > nilAllocs+wrapperBudget {
		t.Fatalf("enabled registry allocates %v/run vs %v/run with nil registry; per-tuple instrumentation must be alloc-free", onAllocs, nilAllocs)
	}
}

// benchKeyedStream builds a stream with a string key attribute cycling
// over `sensors` distinct keys, for the sharded keyed benchmarks.
func benchKeyedStream(n, sensors int) (*stream.Schema, []stream.Tuple) {
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "sensor", Kind: stream.KindString},
		stream.Field{Name: "v", Kind: stream.KindFloat},
	)
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.NewTuple(schema, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Second)),
			stream.Str(fmt.Sprintf("sensor-%02d", i%sensors)),
			stream.Float(float64(i)),
		})
	}
	return schema, tuples
}

// keyedBenchPipeline is a keyed noise pipeline whose per-key state and
// randomness derive from the key, so sharded runs are byte-identical to
// sequential ones at every shard count.
func keyedBenchPipeline(seed int64) *core.Pipeline {
	return core.NewPipeline(core.NewKeyedPolluter("noise", "sensor", func(key string) core.Polluter {
		return core.NewStandard("noise",
			&core.GaussianNoise{Stddev: core.Const(1), Rand: rng.Derive(seed, "n/"+key)},
			core.NewRandomConst(0.3, rng.Derive(seed, "c/"+key)), "v")
	}))
}

// BenchmarkShardedKeyed measures the hash-sharded keyed execution path
// at increasing shard counts. Output is identical at every degree; only
// wall-clock changes. The sharded runner clones each tuple into
// recycled per-shard value blocks, so the shared tuple slice needs no
// defensive Clone stage and the steady state allocates nothing per
// tuple; shards=1 is the sequential engine, which pollutes in place, so
// that anchor point runs over a block clone of the input. Ungated: no
// BENCHMARK.json workload is sharded yet.
func BenchmarkShardedKeyed(b *testing.B) {
	schema, tuples := benchKeyedStream(20000, 64)
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				proc := core.NewProcess(keyedBenchPipeline(1))
				proc.DisableLog = true
				in := tuples
				if shards == 1 {
					in = cloneBlock(tuples)
				}
				run, err := proc.Stream(stream.NewSliceSource(schema, in), core.StreamSpec{Shards: shards, ShardKey: "sensor"})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := stream.Copy(stream.DiscardSink{}, run.Source); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(20000)
		})
	}
}

// BenchmarkMergeSort measures Algorithm 1's sort-at-merge (step 3) over
// m sub-streams.
func BenchmarkMergeSort(b *testing.B) {
	schema, tuples := benchStream(40000)
	prepared, err := stream.Drain(stream.NewPrepare(stream.NewSliceSource(schema, tuples), 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subs := make([]stream.Source, 4)
		for s := range subs {
			var part []stream.Tuple
			for j := s; j < len(prepared); j += 4 {
				part = append(part, prepared[j])
			}
			subs[s] = stream.NewSliceSource(schema, part)
		}
		if _, err := stream.SortMerge(subs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeKWay measures the k-way streaming merge alternative over
// the same pre-sorted sub-streams.
func BenchmarkMergeKWay(b *testing.B) {
	schema, tuples := benchStream(40000)
	prepared, err := stream.Drain(stream.NewPrepare(stream.NewSliceSource(schema, tuples), 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subs := make([]stream.Source, 4)
		for s := range subs {
			var part []stream.Tuple
			for j := s; j < len(prepared); j += 4 {
				part = append(part, prepared[j])
			}
			subs[s] = stream.NewSliceSource(schema, part)
		}
		m, err := stream.NewKWayMerge(subs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stream.Copy(stream.DiscardSink{}, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubStreamsSequential pollutes 4 round-robin sub-streams.
func BenchmarkSubStreamsSequential(b *testing.B) {
	schema, tuples := benchStream(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc := &core.Process{
			Pipelines: []*core.Pipeline{
				noisePipe(1), noisePipe(2), noisePipe(3), noisePipe(4),
			},
			Route: stream.RouteRoundRobin(),
		}
		if _, err := proc.Run(stream.NewSliceSource(schema, tuples)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConditionOrdering shows the value of short-circuit condition
// ordering inside And: cheap-first vs expensive-first.
func BenchmarkConditionOrdering(b *testing.B) {
	schema, tuples := benchStream(20000)
	expensive := core.AttrPredicate{Attr: "v", Desc: "expensive", Fn: func(v stream.Value) bool {
		f, _ := v.AsFloat()
		s := 0.0
		for k := 0; k < 50; k++ {
			s += f / float64(k+1)
		}
		return s > 1e18 // never true
	}}
	cheap := core.Never{}
	run := func(b *testing.B, cond core.Condition) {
		for i := 0; i < b.N; i++ {
			pipe := core.NewPipeline(core.NewStandard("p", core.MissingValue{}, cond, "v"))
			proc := core.NewProcess(pipe)
			proc.KeepClean = false
			if _, err := proc.Run(stream.NewSliceSource(schema, tuples)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cheap-first", func(b *testing.B) { run(b, core.And{cheap, expensive}) })
	b.Run("expensive-first", func(b *testing.B) { run(b, core.And{expensive, cheap}) })
}

// BenchmarkPolluterThroughput reports raw pollution throughput
// (tuples/op) for a representative three-polluter pipeline.
func BenchmarkPolluterThroughput(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			schema, tuples := benchStream(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipe := core.NewPipeline(
					core.NewStandard("noise",
						&core.GaussianNoise{Stddev: core.Const(1), Rand: rng.Derive(int64(i), "a")},
						core.NewRandomConst(0.2, rng.Derive(int64(i), "b")), "v"),
					core.NewStandard("scale", &core.ScaleByFactor{Factor: core.Const(1.1)},
						core.TimeOfDay{FromHour: 0, ToHour: 12}, "v"),
					core.NewStandard("drop", core.DropTuple{},
						core.NewRandomConst(0.001, rng.Derive(int64(i), "d")), "v"),
				)
				proc := core.NewProcess(pipe)
				proc.KeepClean = false
				proc.DisableLog = true
				if _, err := proc.Run(stream.NewSliceSource(schema, tuples)); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(size))
		})
	}
}

// BenchmarkDatasetGeneration measures the synthetic generators.
func BenchmarkDatasetGeneration(b *testing.B) {
	b.Run("wearable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataset.Wearable(int64(i))
		}
	})
	b.Run("airquality-1year", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataset.AirQuality(dataset.RegionGucheng, int64(i), dataset.AirQualityOptions{Tuples: 8760})
		}
	})
}

// BenchmarkSuiteValidation measures the DQ engine's validation
// throughput: the paper's software-update suite over the wearable
// stream.
func BenchmarkSuiteValidation(b *testing.B) {
	proc := experiments.SoftwareUpdateProcess(experiments.DefaultDataSeed)
	res, err := proc.Run(experiments.WearableSource(experiments.DefaultDataSeed))
	if err != nil {
		b.Fatal(err)
	}
	suite := experiments.SoftwareUpdateSuite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := suite.Validate(res.Polluted)
		if len(results) != 4 {
			b.Fatal("wrong result count")
		}
	}
	b.SetBytes(int64(len(res.Polluted)))
}

// dqWindowedInput builds the shared input for the windowed-DQ pair: the
// software-update suite over the polluted wearable stream, validated in
// overlapping sliding windows (8h wide, 1h slide: every tuple belongs to
// 8 windows).
func dqWindowedInput(b *testing.B) (*dq.Suite, []stream.Tuple) {
	b.Helper()
	proc := experiments.SoftwareUpdateProcess(experiments.DefaultDataSeed)
	res, err := proc.Run(experiments.WearableSource(experiments.DefaultDataSeed))
	if err != nil {
		b.Fatal(err)
	}
	return experiments.SoftwareUpdateSuite(), res.Polluted
}

// BenchmarkDQIncremental measures the streaming monitor's sliding-window
// validation: each tuple is observed exactly once into its pane and
// windows close by merging pane partials — the per-tuple cost is
// independent of the window width.
func BenchmarkDQIncremental(b *testing.B) {
	suite, polluted := dqWindowedInput(b)
	schema := polluted[0].Schema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := dq.NewSlidingMonitor(suite, 8*time.Hour, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		windows := 0
		err = m.Run(stream.NewSliceSource(schema, polluted), func(dq.WindowResult) error {
			windows++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if windows == 0 {
			b.Fatal("no windows closed")
		}
	}
	b.SetBytes(int64(len(polluted)))
}

// BenchmarkDQBatchRevalidate measures the pre-monitor model the
// incremental engine replaces: buffer every sliding window and re-run
// the batch Check over its tuples, re-scanning each tuple once per
// overlapping window.
func BenchmarkDQBatchRevalidate(b *testing.B) {
	suite, polluted := dqWindowedInput(b)
	schema := polluted[0].Schema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wins, err := stream.SlidingWindows(stream.NewSliceSource(schema, polluted), 8*time.Hour, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		if len(wins) == 0 {
			b.Fatal("no windows")
		}
		for _, w := range wins {
			if res := suite.Validate(w.Tuples); len(res) == 0 {
				b.Fatal("no results")
			}
		}
	}
	b.SetBytes(int64(len(polluted)))
}

// BenchmarkAnomalyDetection measures online detector throughput over the
// air-quality stream.
func BenchmarkAnomalyDetection(b *testing.B) {
	data := dataset.AirQuality(dataset.RegionGucheng, 1, dataset.AirQualityOptions{Tuples: 8760})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := anomaly.Ensemble{Members: []anomaly.Detector{
			anomaly.NewRollingZScore("NO2", 72, 4),
			anomaly.NewRateOfChange("NO2", 25),
			anomaly.NewFrozenRun("NO2", 3),
		}}
		anomaly.Run(det, data)
	}
	b.SetBytes(8760)
}
