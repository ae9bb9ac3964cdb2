package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// panicOn is an error function that panics on a numeric value over
// threshold: the fault the quarantine tests inject.
type panicOn struct {
	threshold float64
}

func (e panicOn) Apply(t *stream.Tuple, attrs []string, _ time.Time) {
	for _, a := range attrs {
		if v, ok := t.Get(a); ok {
			if f, isNum := v.AsFloat(); isNum && f > e.threshold {
				panic(fmt.Sprintf("value %g over threshold", f))
			}
		}
	}
}

func (panicOn) Kind() string { return "panic_on" }

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
	perSub := map[int32]int{}
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

// TestRunStreamMatchesBatch pins batch Run — the streaming reference
// drained — by value: a noise polluter gated at p = 0.5 changes exactly
// the tuples the log names, D is the untouched input, and without delays
// D^p keeps the input order.
func TestRunStreamMatchesBatch(t *testing.T) {
	s := procSchema()
	res, err := NewProcess(NewPipeline(NewStandard("noise",
		&GaussianNoise{Stddev: Const(1), Rand: rng.Derive(5, "n")},
		NewRandomConst(0.5, rng.Derive(5, "c")), "v"))).Run(procSource(s, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Polluted) != 100 || len(res.Clean) != 100 {
		t.Fatalf("sizes: polluted %d clean %d", len(res.Polluted), len(res.Clean))
	}
	logged := res.Log.PollutedTuples()
	if len(logged) != res.Log.Len() || len(logged) < 30 || len(logged) > 70 {
		t.Fatalf("%d log entries over %d tuples, want one per polluted tuple at p = 0.5", res.Log.Len(), len(logged))
	}
	for i, tp := range res.Polluted {
		if tp.ID != uint64(i+1) {
			t.Fatalf("position %d holds tuple %d", i, tp.ID)
		}
		if !res.Clean[i].MustGet("v").Equal(stream.Float(float64(i))) {
			t.Fatalf("clean tuple %d changed", i)
		}
		if changed := tp.MustGet("v").MustFloat() != float64(i); changed != logged[tp.ID] {
			t.Fatalf("tuple %d: value changed %t, logged %t", tp.ID, changed, logged[tp.ID])
		}
	}
}

// TestRunNeverMutatesInput runs one process twice over the same slice:
// both runs must agree and the slice must come out as it went in, for
// one and two sub-streams, with and without D.
func TestRunNeverMutatesInput(t *testing.T) {
	s := procSchema()
	render := func(res *Result) string {
		return fmt.Sprintf("%v|%v|%+v|%d", res.Polluted, res.Clean, entriesOf(res.Log), res.DroppedTuples)
	}
	for _, m := range []int{1, 2} {
		for _, keep := range []bool{false, true} {
			t.Run(fmt.Sprintf("m=%d/keep_clean=%t", m, keep), func(t *testing.T) {
				in, err := stream.Drain(procSource(s, 50))
				if err != nil {
					t.Fatal(err)
				}
				want := make([]stream.Tuple, len(in))
				for i := range in {
					want[i] = in[i].Clone()
				}
				pipes := make([]*Pipeline, m)
				for i := range pipes {
					pipes[i] = NewPipeline(NewStandard("noise",
						&GaussianNoise{Stddev: Const(1), Rand: rng.Derive(int64(i), "n")}, nil, "v"))
				}
				proc := &Process{Pipelines: pipes, KeepClean: keep}
				var runs []string
				for range 2 {
					res, err := proc.Run(stream.NewSliceSource(s, in))
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Polluted) != m*len(in) || (len(res.Clean) == len(in)) != keep {
						t.Fatalf("sizes: polluted %d clean %d", len(res.Polluted), len(res.Clean))
					}
					runs = append(runs, render(res))
				}
				for i := range in {
					if !in[i].Equal(want[i]) {
						t.Fatalf("input tuple %d mutated: %v, was %v", i, in[i], want[i])
					}
				}
				if runs[0] != runs[1] {
					t.Fatal("the second run over the same slice differs from the first")
				}
			})
		}
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

	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 || back.At(0).Polluter != "a" {
		t.Fatalf("round trip: %+v", entriesOf(back))
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

// TestRunStreamSubStreamsMatchBatch pins batch Run with m = 2 sub-streams
// by value: each tuple carries its sub-stream's pollution and id, and the
// log comes out in stream order, each entry tagged with its sub-stream.
// With a polluter that panics in sub-stream 1 only, the dead letters are
// exactly that sub-stream's failing tuples, rolled back out of the log.
func TestRunStreamSubStreamsMatchBatch(t *testing.T) {
	s := procSchema()
	const n = 200
	noise := func(seed int64) Polluter {
		return NewStandard("a", &GaussianNoise{Stddev: Const(1), Rand: rng.Derive(seed, "a")},
			NewRandomConst(0.5, rng.Derive(seed, "ac")), "v")
	}
	inStreamOrder := func(t *testing.T, log *Log) {
		t.Helper()
		subs := map[int]int{}
		for i, e := range entriesOf(log) {
			if i > 0 && e.TupleID < log.At(i-1).TupleID {
				t.Fatalf("log entry %d (tuple %d) follows tuple %d: not in stream order", i, e.TupleID, log.At(i-1).TupleID)
			}
			subs[e.SubStream]++
		}
		if subs[0] == 0 || subs[1] == 0 {
			t.Fatalf("log entries per sub-stream %v: both must be exercised", subs)
		}
	}

	t.Run("round_robin", func(t *testing.T) {
		proc := &Process{Route: stream.RouteRoundRobin(), Pipelines: []*Pipeline{
			NewPipeline(noise(11)),
			NewPipeline(NewStandard("b", Offset{Delta: Const(100)}, nil, "v")),
		}}
		res, err := proc.Run(procSource(s, n))
		if err != nil {
			t.Fatal(err)
		}
		inStreamOrder(t, res.Log)
		logged := map[int]map[uint64]bool{0: {}, 1: {}}
		for _, e := range entriesOf(res.Log) {
			if want := []string{"a", "b"}[e.SubStream]; e.Polluter != want {
				t.Fatalf("sub-stream %d logged polluter %q, want %q", e.SubStream, e.Polluter, want)
			}
			logged[e.SubStream][e.TupleID] = true
		}
		if len(res.Polluted) != n || len(logged[1]) != n/2 {
			t.Fatalf("%d tuples, %d logged in sub-stream 1", len(res.Polluted), len(logged[1]))
		}
		for i, tp := range res.Polluted {
			sub, orig := i%2, float64(i)
			if tp.ID != uint64(i+1) || tp.SubStream != int32(sub) {
				t.Fatalf("position %d holds tuple %d of sub-stream %d", i, tp.ID, tp.SubStream)
			}
			v := tp.MustGet("v").MustFloat()
			if sub == 1 && (v != orig+100 || !logged[1][tp.ID]) || sub == 0 && (v != orig) != logged[0][tp.ID] {
				t.Fatalf("tuple %d of sub-stream %d: v = %g from %g, logged %t", tp.ID, sub, v, orig, logged[sub][tp.ID])
			}
		}
	})

	t.Run("quarantine", func(t *testing.T) {
		proc := &Process{Route: stream.RouteAll, Fault: FaultPolicy{Quarantine: true}, Pipelines: []*Pipeline{
			NewPipeline(noise(12)),
			// "b" logs before "boom" panics, so a quarantined tuple's
			// entry must be rolled back.
			NewPipeline(
				NewStandard("b", Offset{Delta: Const(100)}, nil, "v"),
				NewStandard("boom", panicOn{threshold: 250}, Always{}, "v")),
		}}
		res, err := proc.Run(procSource(s, n))
		if err != nil {
			t.Fatal(err)
		}
		inStreamOrder(t, res.Log)
		// Sub-stream 1 fails exactly where v + 100 > 250.
		failing := map[uint64]bool{}
		for i := 0; i < n; i++ {
			if float64(i)+100 > 250 {
				failing[uint64(i+1)] = true
			}
		}
		letters := map[uint64]bool{}
		for _, d := range res.Quarantined {
			if !failing[d.TupleID] || letters[d.TupleID] {
				t.Fatalf("unexpected dead letter %+v", d)
			}
			letters[d.TupleID] = true
		}
		if len(letters) != len(failing) {
			t.Fatalf("%d dead letters, want %d", len(letters), len(failing))
		}
		for _, e := range entriesOf(res.Log) {
			if e.SubStream == 1 && failing[e.TupleID] {
				t.Fatalf("log keeps entry %+v of a quarantined tuple", e)
			}
		}
		for _, tp := range res.Polluted {
			if tp.SubStream == 1 && failing[tp.ID] {
				t.Fatalf("quarantined tuple %d delivered", tp.ID)
			}
		}
		if got := len(res.Polluted) + res.DroppedTuples + len(res.Quarantined); got != 2*n {
			t.Fatalf("polluted %d + dropped %d + quarantined %d = %d, want %d",
				len(res.Polluted), res.DroppedTuples, len(res.Quarantined), got, 2*n)
		}
	})
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

// TestStreamOrderKeyMatchesBatch: on input not sorted by event time, a
// delayed tuple can tie the arrival of a tuple with a smaller ID. The
// reorder window (m = 1) and the k-way merge (m = 2, the two tuples in
// different sub-streams) must then order them as batch Run's sort does,
// by event time before ID.
func TestStreamOrderKeyMatchesBatch(t *testing.T) {
	s := procSchema()
	base := time.Date(2020, 1, 1, 10, 0, 0, 0, time.UTC)
	// Tuple 2 is an hour older than tuple 1; delayed by an hour, it
	// arrives with it.
	input := func() stream.Source {
		return stream.NewSliceSource(s, []stream.Tuple{
			stream.NewTuple(s, []stream.Value{stream.Time(base), stream.Float(0)}),
			stream.NewTuple(s, []stream.Value{stream.Time(base.Add(-time.Hour)), stream.Float(1)}),
			stream.NewTuple(s, []stream.Value{stream.Time(base.Add(time.Hour)), stream.Float(2)}),
		})
	}
	delay := func() *Pipeline {
		return NewPipeline(NewStandard("delay", DelayTuple{Delay: time.Hour}, Compare{"v", OpEq, stream.Float(1)}, "v"))
	}
	for _, tc := range []struct {
		name string
		proc func() *Process
	}{
		{"m=1", func() *Process { return &Process{Pipelines: []*Pipeline{delay()}} }},
		{"m=2", func() *Process {
			return &Process{Pipelines: []*Pipeline{delay(), delay()}, Route: stream.RouteRoundRobin()}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.proc().Run(input())
			if err != nil {
				t.Fatal(err)
			}
			if res.Polluted[0].ID != 2 {
				t.Fatalf("batch order starts with tuple %d, want the delayed tuple 2", res.Polluted[0].ID)
			}
			out, _, err := tc.proc().RunStream(input(), 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := stream.Drain(out)
			if err != nil {
				t.Fatal(err)
			}
			if renderTuples(got) != renderTuples(res.Polluted) {
				t.Fatalf("RunStream order:\n%s\nbatch Run order:\n%s", renderTuples(got), renderTuples(res.Polluted))
			}
		})
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
		// Conditions name attributes too: a misspelled one never fires.
		NewStandard("cond", MissingValue{}, And{
			Compare{Attr: "typo5", Op: OpGt, Value: stream.Float(0)},
			Not{Inner: AttrPredicate{Attr: "typo6", Fn: func(stream.Value) bool { return true }}},
		}, "v"),
	))
	err := bad.ValidateAttrs(s)
	if err == nil {
		t.Fatal("invalid process accepted")
	}
	for _, want := range []string{"typo1", "typo2", "typo3", "typo4", "typo5", "typo6"} {
		if !contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	if contains(err.Error(), "\"v\"") {
		t.Errorf("valid attribute reported missing: %v", err)
	}
}
