package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

func procSchema() *stream.Schema {
	return stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
	)
}

func procSource(s *stream.Schema, n int) stream.Source {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	return stream.NewGeneratorSource(s, n, func(i int) stream.Tuple {
		return stream.NewTuple(s, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Hour)),
			stream.Float(float64(i)),
		})
	})
}

func TestStandardPolluterConditionGating(t *testing.T) {
	s := procSchema()
	p := NewStandard("null-v", MissingValue{},
		Compare{"v", OpGe, stream.Float(5)}, "v")
	proc := NewProcess(NewPipeline(p))
	res, err := proc.Run(procSource(s, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clean) != 10 || len(res.Polluted) != 10 {
		t.Fatalf("sizes: clean %d polluted %d", len(res.Clean), len(res.Polluted))
	}
	nulls := 0
	for _, tp := range res.Polluted {
		if tp.MustGet("v").IsNull() {
			nulls++
		}
	}
	if nulls != 5 {
		t.Fatalf("polluted %d tuples, want 5", nulls)
	}
	if res.Log.Len() != 5 {
		t.Fatalf("log has %d entries, want 5", res.Log.Len())
	}
	// Clean stream untouched.
	for i, tp := range res.Clean {
		if !tp.MustGet("v").Equal(stream.Float(float64(i))) {
			t.Fatalf("clean stream mutated at %d", i)
		}
	}
}

func TestPipelineAppliesInOrder(t *testing.T) {
	s := procSchema()
	pipe := NewPipeline(
		NewStandard("scale", &ScaleByFactor{Factor: Const(2)}, nil, "v"),
		NewStandard("offset", Offset{Delta: Const(1)}, nil, "v"),
	)
	res, err := NewProcess(pipe).Run(procSource(s, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range res.Polluted {
		want := float64(i)*2 + 1
		if got := tp.MustGet("v").MustFloat(); got != want {
			t.Fatalf("tuple %d: got %g want %g", i, got, want)
		}
	}
}

func TestCompositeSequenceSharedCondition(t *testing.T) {
	s := procSchema()
	// Children fire only when the parent's condition holds.
	comp := NewComposite("update",
		Compare{"v", OpGe, stream.Float(8)},
		NewStandard("a", Offset{Delta: Const(100)}, nil, "v"),
		NewStandard("b", &ScaleByFactor{Factor: Const(2)}, nil, "v"),
	)
	res, err := NewProcess(NewPipeline(comp)).Run(procSource(s, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range res.Polluted {
		want := float64(i)
		if i >= 8 {
			want = (want + 100) * 2
		}
		if got := tp.MustGet("v").MustFloat(); got != want {
			t.Fatalf("tuple %d: got %g want %g", i, got, want)
		}
	}
	byPolluter := res.Log.CountByPolluter()
	if byPolluter["a"] != 2 || byPolluter["b"] != 2 {
		t.Fatalf("log counts: %v", byPolluter)
	}
}

func TestCompositeChoiceIsMutuallyExclusive(t *testing.T) {
	s := procSchema()
	choice := NewChoice("either", nil, rng.New(7),
		NewStandard("plus", Offset{Delta: Const(1000)}, nil, "v"),
		NewStandard("minus", Offset{Delta: Const(-1000)}, nil, "v"),
	)
	res, err := NewProcess(NewPipeline(choice)).Run(procSource(s, 200))
	if err != nil {
		t.Fatal(err)
	}
	plus, minus := 0, 0
	for i, tp := range res.Polluted {
		switch tp.MustGet("v").MustFloat() {
		case float64(i) + 1000:
			plus++
		case float64(i) - 1000:
			minus++
		default:
			t.Fatalf("tuple %d hit both or neither child: %v", i, tp)
		}
	}
	if plus+minus != 200 || plus < 60 || minus < 60 {
		t.Fatalf("choice split %d/%d", plus, minus)
	}
}

func TestCompositeWeighted(t *testing.T) {
	s := procSchema()
	comp := &Composite{
		PolluterName: "weighted",
		Cond:         Always{},
		Mode:         ModeWeighted,
		Weights:      []float64{0.9, 0.1},
		Rand:         rng.New(8),
		Children: []Polluter{
			NewStandard("often", Offset{Delta: Const(1000)}, nil, "v"),
			NewStandard("rarely", Offset{Delta: Const(-1000)}, nil, "v"),
		},
	}
	res, err := NewProcess(NewPipeline(comp)).Run(procSource(s, 1000))
	if err != nil {
		t.Fatal(err)
	}
	often := 0
	for i, tp := range res.Polluted {
		if tp.MustGet("v").MustFloat() == float64(i)+1000 {
			often++
		}
	}
	if often < 850 || often > 950 {
		t.Fatalf("weighted selection picked 'often' %d/1000", often)
	}
}

func TestNestedComposite(t *testing.T) {
	// Mirrors the Figure 5 shape: composite gating a composite.
	s := procSchema()
	inner := NewComposite("bpm-fix",
		Compare{"v", OpGt, stream.Float(7)},
		NewStandard("zero", SetConstant{Value: stream.Float(0)}, nil, "v"),
	)
	outer := NewComposite("update",
		Compare{"v", OpGe, stream.Float(5)},
		NewStandard("offset", Offset{Delta: Const(0.5)}, nil, "v"),
		inner,
	)
	res, err := NewProcess(NewPipeline(outer)).Run(procSource(s, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range res.Polluted {
		v := tp.MustGet("v").MustFloat()
		switch {
		case i < 5 && v != float64(i):
			t.Fatalf("tuple %d polluted outside gate: %g", i, v)
		case i >= 5 && i+0 < 8 && v != float64(i)+0.5:
			// offset applies, inner gate (v>7 after offset: 5.5,6.5,7.5…)
			// for i=7, v=7.5 > 7 → zeroed; handled below.
			if i != 7 {
				t.Fatalf("tuple %d: %g", i, v)
			}
		case i >= 8 && v != 0:
			t.Fatalf("tuple %d should be zeroed, got %g", i, v)
		}
	}
}

func TestProcessMultiplePipelinesOverlap(t *testing.T) {
	s := procSchema()
	p1 := NewPipeline(NewStandard("a", Offset{Delta: Const(100)}, nil, "v"))
	p2 := NewPipeline(NewStandard("b", Offset{Delta: Const(-100)}, nil, "v"))
	proc := &Process{
		Pipelines: []*Pipeline{p1, p2},
		Route:     stream.RouteAll,
		KeepClean: true,
	}
	res, err := proc.Run(procSource(s, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Full overlap: every input tuple appears once per sub-stream.
	if len(res.Polluted) != 8 {
		t.Fatalf("polluted size %d, want 8", len(res.Polluted))
	}
	perSub := map[int]int{}
	for _, tp := range res.Polluted {
		perSub[tp.SubStream]++
	}
	if perSub[0] != 4 || perSub[1] != 4 {
		t.Fatalf("per-substream counts: %v", perSub)
	}
	// Same ID appears in both sub-streams — the "fuzzy duplicates" of
	// §2.2.2.
	seen := map[uint64]int{}
	for _, tp := range res.Polluted {
		seen[tp.ID]++
	}
	for id, n := range seen {
		if n != 2 {
			t.Fatalf("tuple %d appears %d times", id, n)
		}
	}
}

func TestProcessRoundRobinPartition(t *testing.T) {
	s := procSchema()
	p1 := NewPipeline(NewStandard("a", Offset{Delta: Const(1000)}, nil, "v"))
	p2 := NewPipeline() // empty pipeline: pass-through
	proc := &Process{
		Pipelines: []*Pipeline{p1, p2},
		Route:     stream.RouteRoundRobin(),
		KeepClean: true,
	}
	res, err := proc.Run(procSource(s, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Polluted) != 10 {
		t.Fatalf("partitioned size %d", len(res.Polluted))
	}
	polluted := 0
	for _, tp := range res.Polluted {
		if tp.MustGet("v").MustFloat() >= 1000 {
			polluted++
		}
	}
	if polluted != 5 {
		t.Fatalf("polluted %d, want 5", polluted)
	}
}

func TestProcessParallelMatchesSequential(t *testing.T) {
	s := procSchema()
	build := func(parallel bool) *Result {
		mk := func(name string, seed int64) *Pipeline {
			return NewPipeline(NewStandard(name,
				&GaussianNoise{Stddev: Const(1), Rand: rng.Derive(seed, name)},
				NewRandomConst(0.5, rng.Derive(seed, name+"-cond")), "v"))
		}
		proc := &Process{
			Pipelines: []*Pipeline{mk("p0", 42), mk("p1", 42)},
			Route:     stream.RouteRoundRobin(),
			Parallel:  parallel,
			KeepClean: true,
		}
		res, err := proc.Run(procSource(s, 200))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := build(false)
	par := build(true)
	if len(seq.Polluted) != len(par.Polluted) {
		t.Fatalf("sizes differ: %d vs %d", len(seq.Polluted), len(par.Polluted))
	}
	for i := range seq.Polluted {
		if !seq.Polluted[i].Equal(par.Polluted[i]) {
			t.Fatalf("tuple %d differs between sequential and parallel", i)
		}
	}
	if seq.Log.Len() != par.Log.Len() {
		t.Fatalf("log sizes differ: %d vs %d", seq.Log.Len(), par.Log.Len())
	}
}

func TestProcessDeterministicAcrossRuns(t *testing.T) {
	s := procSchema()
	run := func() *Result {
		pipe := NewPipeline(NewStandard("noise",
			&GaussianNoise{Stddev: Const(2), Rand: rng.Derive(123, "noise")},
			NewRandomConst(0.3, rng.Derive(123, "cond")), "v"))
		res, err := NewProcess(pipe).Run(procSource(s, 500))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Polluted {
		if !a.Polluted[i].Equal(b.Polluted[i]) {
			t.Fatalf("same seed diverged at tuple %d", i)
		}
	}
}

func TestProcessDroppedTuples(t *testing.T) {
	s := procSchema()
	pipe := NewPipeline(NewStandard("drop", DropTuple{},
		Compare{"v", OpLt, stream.Float(3)}, "v"))
	res, err := NewProcess(pipe).Run(procSource(s, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedTuples != 3 {
		t.Fatalf("dropped %d, want 3", res.DroppedTuples)
	}
	if len(res.Polluted) != 7 {
		t.Fatalf("polluted size %d, want 7", len(res.Polluted))
	}
	if res.Log.Len() != 3 {
		t.Fatalf("drops must stay in the log, got %d entries", res.Log.Len())
	}
}

func TestProcessDelayReordersOutput(t *testing.T) {
	s := procSchema()
	pipe := NewPipeline(NewStandard("delay", DelayTuple{Delay: 150 * time.Minute},
		Compare{"v", OpEq, stream.Float(2)}, "v"))
	res, err := NewProcess(pipe).Run(procSource(s, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Tuple 2 is delayed 2.5h: arrival 04:30, lands between tuples 4 and 5.
	var order []float64
	for _, tp := range res.Polluted {
		order = append(order, tp.MustGet("v").MustFloat())
	}
	want := []float64{0, 1, 3, 4, 2, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestProcessErrors(t *testing.T) {
	s := procSchema()
	if _, err := (&Process{}).Run(procSource(s, 1)); err == nil {
		t.Error("no pipelines accepted")
	}
	if _, err := (&Process{Pipelines: []*Pipeline{nil}}).Run(procSource(s, 1)); err == nil {
		t.Error("nil pipeline accepted")
	}
}

func TestRunStreamMatchesBatch(t *testing.T) {
	s := procSchema()
	mkPipe := func() *Pipeline {
		return NewPipeline(NewStandard("noise",
			&GaussianNoise{Stddev: Const(1), Rand: rng.Derive(5, "n")},
			NewRandomConst(0.5, rng.Derive(5, "c")), "v"))
	}
	batch, err := NewProcess(mkPipe()).Run(procSource(s, 100))
	if err != nil {
		t.Fatal(err)
	}
	proc := NewProcess(mkPipe())
	out, log, err := proc.RunStream(procSource(s, 100), 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := stream.Drain(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch.Polluted) {
		t.Fatalf("sizes differ: %d vs %d", len(streamed), len(batch.Polluted))
	}
	for i := range streamed {
		if !streamed[i].Equal(batch.Polluted[i]) {
			t.Fatalf("tuple %d differs between streaming and batch", i)
		}
	}
	if log.Len() != batch.Log.Len() {
		t.Fatalf("logs differ: %d vs %d", log.Len(), batch.Log.Len())
	}
}

func TestLogQueriesAndSerialisation(t *testing.T) {
	l := NewLog()
	base := time.Date(2020, 1, 1, 5, 0, 0, 0, time.UTC)
	l.Record(Entry{TupleID: 1, EventTime: base, Polluter: "a", Error: "missing_value", Attrs: []string{"x"}})
	l.Record(Entry{TupleID: 1, EventTime: base, Polluter: "b", Error: "offset"})
	l.Record(Entry{TupleID: 2, EventTime: base.Add(time.Hour), Polluter: "a", Error: "missing_value"})
	if l.Len() != 3 {
		t.Fatal("len")
	}
	if n := len(l.PollutedTuples()); n != 2 {
		t.Fatalf("polluted tuples %d", n)
	}
	if c := l.CountByPolluter(); c["a"] != 2 || c["b"] != 1 {
		t.Fatalf("by polluter %v", c)
	}
	if c := l.CountByError(); c["missing_value"] != 2 {
		t.Fatalf("by error %v", c)
	}
	hours := l.CountByHour()
	if hours[5] != 2 || hours[6] != 1 {
		t.Fatalf("by hour %v", hours)
	}
	if got := l.ForTuple(1); len(got) != 2 || got[0].Polluter != "a" {
		t.Fatalf("for tuple %v", got)
	}

	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 || back.Entries[0].Polluter != "a" {
		t.Fatalf("round trip: %+v", back.Entries)
	}

	// Release drops the entries but keeps counting them; a rollback after
	// it only unwinds what was recorded since.
	l.Release()
	l.Record(Entry{TupleID: 3, EventTime: base, Polluter: "a", Error: "offset"})
	if l.Len() != 1 || l.Total() != 4 {
		t.Fatalf("after release: len %d total %d", l.Len(), l.Total())
	}
	l.Truncate(0)
	if l.Len() != 0 || l.Total() != 3 {
		t.Fatalf("after rollback: len %d total %d", l.Len(), l.Total())
	}
}

func TestNilLogIsSafe(t *testing.T) {
	s := procSchema()
	p := NewStandard("x", MissingValue{}, nil, "v")
	tp, _ := stream.Drain(stream.NewPrepare(procSource(s, 1), 1))
	p.Pollute(&tp[0], tp[0].EventTime, nil) // must not panic
	if !tp[0].MustGet("v").IsNull() {
		t.Fatal("pollution skipped with nil log")
	}
}

// TestRunStreamSubStreamsMatchBatch pins the m > 1 streaming runner to
// batch Run: the same tuples with the same sub-stream ids, the same log
// entry by entry (tuple, polluter, sub-stream), and — with a polluter
// that panics in sub-stream 1 only — the same dead letters.
func TestRunStreamSubStreamsMatchBatch(t *testing.T) {
	s := procSchema()
	for _, tc := range []struct {
		name  string
		route stream.RouteFunc
		fault FaultPolicy
		mk    func() []*Pipeline
	}{
		{"round_robin", stream.RouteRoundRobin(), FaultPolicy{}, func() []*Pipeline {
			return []*Pipeline{
				NewPipeline(NewStandard("a",
					&GaussianNoise{Stddev: Const(1), Rand: rng.Derive(11, "a")},
					NewRandomConst(0.5, rng.Derive(11, "ac")), "v")),
				NewPipeline(NewStandard("b", Offset{Delta: Const(100)}, nil, "v")),
			}
		}},
		{"quarantine", stream.RouteAll, FaultPolicy{Quarantine: true}, func() []*Pipeline {
			return []*Pipeline{
				NewPipeline(NewStandard("a",
					&GaussianNoise{Stddev: Const(1), Rand: rng.Derive(12, "a")},
					NewRandomConst(0.5, rng.Derive(12, "ac")), "v")),
				// "b" logs before "boom" panics, so a quarantined tuple's
				// entry must be rolled back.
				NewPipeline(
					NewStandard("b", Offset{Delta: Const(100)}, nil, "v"),
					NewStandard("boom", panicOn{threshold: 250}, Always{}, "v")),
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batchProc := &Process{Pipelines: tc.mk(), Route: tc.route, Fault: tc.fault}
			batch, err := batchProc.Run(procSource(s, 200))
			if err != nil {
				t.Fatal(err)
			}
			fault := tc.fault
			fault.DLQ = stream.NewDeadLetterQueue()
			streamProc := &Process{Pipelines: tc.mk(), Route: tc.route, Fault: fault}
			out, log, err := streamProc.RunStream(procSource(s, 200), 1)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := stream.Drain(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(streamed) != len(batch.Polluted) {
				t.Fatalf("sizes: %d vs %d", len(streamed), len(batch.Polluted))
			}
			for i := range streamed {
				if !streamed[i].Equal(batch.Polluted[i]) {
					t.Fatalf("tuple %d differs: %v vs %v", i, streamed[i], batch.Polluted[i])
				}
				if streamed[i].SubStream != batch.Polluted[i].SubStream {
					t.Fatalf("tuple %d substream differs", i)
				}
			}

			// Batch Run merges the sub-stream logs one after the other; the
			// streaming log interleaves them, in order within each.
			entries := append([]Entry(nil), log.Entries...)
			sort.SliceStable(entries, func(i, j int) bool { return entries[i].SubStream < entries[j].SubStream })
			if len(entries) != len(batch.Log.Entries) {
				t.Fatalf("log sizes: %d vs %d", len(entries), len(batch.Log.Entries))
			}
			subs := map[int]int{}
			for i, e := range entries {
				want := batch.Log.Entries[i]
				if e.TupleID != want.TupleID || e.Polluter != want.Polluter || e.SubStream != want.SubStream {
					t.Fatalf("log entry %d: streamed {%d %s sub %d}, batch {%d %s sub %d}",
						i, e.TupleID, e.Polluter, e.SubStream, want.TupleID, want.Polluter, want.SubStream)
				}
				subs[e.SubStream]++
			}
			if subs[0] == 0 || subs[1] == 0 {
				t.Fatalf("log entries per sub-stream %v: both must be exercised", subs)
			}

			letters := fault.DLQ.Letters()
			if tc.fault.Quarantine && len(letters) == 0 {
				t.Fatal("no tuple was quarantined")
			}
			if fmt.Sprintf("%+v", letters) != fmt.Sprintf("%+v", batch.Quarantined) {
				t.Fatalf("dead letters differ\nstreamed: %+v\nbatch:    %+v", letters, batch.Quarantined)
			}
		})
	}
}

func TestRunStreamSubStreamsWithOverlapAndDelay(t *testing.T) {
	s := procSchema()
	pipes := []*Pipeline{
		NewPipeline(NewStandard("delay", DelayTuple{Delay: 2 * time.Hour},
			Compare{"v", OpEq, stream.Float(3)}, "v")),
		NewPipeline(), // pass-through copy
	}
	proc := &Process{Pipelines: pipes, Route: stream.RouteAll}
	out, _, err := proc.RunStream(procSource(s, 10), 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.Drain(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 { // full overlap duplicates every tuple
		t.Fatalf("%d tuples", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Arrival.Before(got[i-1].Arrival) {
			t.Fatalf("merged stream out of order at %d", i)
		}
	}
}

func TestRunStreamNoPipelines(t *testing.T) {
	proc := &Process{}
	if _, _, err := proc.RunStream(procSource(procSchema(), 1), 1); err == nil {
		t.Fatal("empty process accepted")
	}
}

func TestValidateAttrs(t *testing.T) {
	s := procSchema()
	good := NewProcess(NewPipeline(
		NewStandard("a", MissingValue{}, nil, "v"),
		NewComposite("c", nil,
			NewStandard("b", Offset{Delta: Const(1)}, nil, "v"),
		),
	))
	if err := good.ValidateAttrs(s); err != nil {
		t.Fatalf("valid process rejected: %v", err)
	}

	bad := NewProcess(NewPipeline(
		NewStandard("a", MissingValue{}, nil, "typo1"),
		NewComposite("c", nil,
			NewStandard("b", Offset{Delta: Const(1)}, nil, "typo2", "v"),
		),
		NewKeyedPolluter("k", "typo3", func(string) Polluter {
			return NewStandard("inner", MissingValue{}, nil, "typo4")
		}),
	))
	err := bad.ValidateAttrs(s)
	if err == nil {
		t.Fatal("invalid process accepted")
	}
	for _, want := range []string{"typo1", "typo2", "typo3", "typo4"} {
		if !contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	if contains(err.Error(), "\"v\"") {
		t.Errorf("valid attribute reported missing: %v", err)
	}
}
