package core

import (
	"math"
	"testing"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

var condSchema = stream.MustSchema("ts",
	stream.Field{Name: "ts", Kind: stream.KindTime},
	stream.Field{Name: "bpm", Kind: stream.KindFloat},
	stream.Field{Name: "label", Kind: stream.KindString},
)

func condTuple(ts time.Time, bpm float64, label string) stream.Tuple {
	t := stream.NewTuple(condSchema, []stream.Value{
		stream.Time(ts), stream.Float(bpm), stream.Str(label),
	})
	t.EventTime = ts
	t.Arrival = ts
	return t
}

func TestAlwaysNever(t *testing.T) {
	tp := condTuple(time.Now(), 1, "x")
	if !(Always{}).Eval(tp, tp.EventTime) {
		t.Error("Always false")
	}
	if (Never{}).Eval(tp, tp.EventTime) {
		t.Error("Never true")
	}
	if (Always{}).Describe() != "always" || (Never{}).Describe() != "never" {
		t.Error("describe mismatch")
	}
}

func TestRandomConditionFrequency(t *testing.T) {
	c := NewRandomConst(0.25, rng.New(1))
	tp := condTuple(time.Now(), 1, "x")
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if c.Eval(tp, tp.EventTime) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.25) > 0.01 {
		t.Fatalf("Random(0.25) fired at %g", f)
	}
}

func TestRandomConditionTimeDependent(t *testing.T) {
	// Probability 1 before noon, 0 after.
	p := func(tau time.Time) float64 {
		if tau.Hour() < 12 {
			return 1
		}
		return 0
	}
	c := NewRandom(p, rng.New(2))
	am := condTuple(time.Date(2020, 1, 1, 9, 0, 0, 0, time.UTC), 1, "x")
	pm := condTuple(time.Date(2020, 1, 1, 15, 0, 0, 0, time.UTC), 1, "x")
	for i := 0; i < 100; i++ {
		if !c.Eval(am, am.EventTime) {
			t.Fatal("temporal probability 1 did not fire")
		}
		if c.Eval(pm, pm.EventTime) {
			t.Fatal("temporal probability 0 fired")
		}
	}
}

func TestCompareOps(t *testing.T) {
	tp := condTuple(time.Now(), 120, "hot")
	cases := []struct {
		cond Compare
		want bool
	}{
		{Compare{"bpm", OpGt, stream.Float(100)}, true},
		{Compare{"bpm", OpGt, stream.Float(120)}, false},
		{Compare{"bpm", OpGe, stream.Float(120)}, true},
		{Compare{"bpm", OpLt, stream.Float(200)}, true},
		{Compare{"bpm", OpLe, stream.Float(119)}, false},
		{Compare{"bpm", OpEq, stream.Float(120)}, true},
		{Compare{"bpm", OpNe, stream.Float(120)}, false},
		{Compare{"label", OpEq, stream.Str("hot")}, true},
		{Compare{"label", OpNe, stream.Str("cold")}, true},
		{Compare{"missing", OpEq, stream.Float(1)}, false},
		{Compare{"label", OpGt, stream.Float(1)}, false}, // incomparable
	}
	for i, c := range cases {
		if got := c.cond.Eval(tp, tp.EventTime); got != c.want {
			t.Errorf("case %d (%s): got %v", i, c.cond.Describe(), got)
		}
	}
}

func TestCompareNullSemantics(t *testing.T) {
	tp := condTuple(time.Now(), 1, "x")
	tp.Set("bpm", stream.Null())
	if !(Compare{"bpm", OpEq, stream.Null()}).Eval(tp, tp.EventTime) {
		t.Error("null == null failed")
	}
	if (Compare{"label", OpEq, stream.Null()}).Eval(tp, tp.EventTime) {
		t.Error("non-null == null fired")
	}
	if !(Compare{"label", OpNe, stream.Null()}).Eval(tp, tp.EventTime) {
		t.Error("non-null != null failed")
	}
}

func TestAttrPredicate(t *testing.T) {
	tp := condTuple(time.Now(), 42, "x")
	c := AttrPredicate{Attr: "bpm", Fn: func(v stream.Value) bool {
		f, _ := v.AsFloat()
		return f == 42
	}}
	if !c.Eval(tp, tp.EventTime) {
		t.Error("predicate failed")
	}
	c2 := AttrPredicate{Attr: "nope", Fn: func(stream.Value) bool { return true }}
	if c2.Eval(tp, tp.EventTime) {
		t.Error("predicate on missing attr fired")
	}
}

func TestTimeInterval(t *testing.T) {
	from := time.Date(2016, 2, 27, 0, 0, 0, 0, time.UTC)
	to := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	c := TimeInterval{From: from, To: to}
	tp := condTuple(from, 1, "x")
	if !c.Eval(tp, from) {
		t.Error("inclusive start failed")
	}
	if c.Eval(tp, to) {
		t.Error("exclusive end fired")
	}
	if c.Eval(tp, from.Add(-time.Second)) {
		t.Error("before interval fired")
	}
	open := TimeInterval{From: from}
	if !open.Eval(tp, to.Add(365*24*time.Hour)) {
		t.Error("open-ended interval failed")
	}
	unbounded := TimeInterval{}
	if !unbounded.Eval(tp, time.Unix(0, 0)) {
		t.Error("fully open interval failed")
	}
}

func TestTimeOfDay(t *testing.T) {
	c := TimeOfDay{FromHour: 13, ToHour: 15}
	mk := func(h int) time.Time { return time.Date(2016, 2, 26, h, 30, 0, 0, time.UTC) }
	tp := condTuple(mk(13), 1, "x")
	if !c.Eval(tp, mk(13)) || !c.Eval(tp, mk(14)) {
		t.Error("inside hours failed")
	}
	if c.Eval(tp, mk(12)) || c.Eval(tp, mk(15)) {
		t.Error("outside hours fired")
	}
	wrap := TimeOfDay{FromHour: 22, ToHour: 2}
	if !wrap.Eval(tp, mk(23)) || !wrap.Eval(tp, mk(1)) {
		t.Error("wrapping window failed")
	}
	if wrap.Eval(tp, mk(12)) {
		t.Error("wrapping window fired at noon")
	}
}

func TestCompositeConditions(t *testing.T) {
	tp := condTuple(time.Date(2020, 1, 1, 14, 0, 0, 0, time.UTC), 120, "hot")
	tau := tp.EventTime
	hot := Compare{"label", OpEq, stream.Str("hot")}
	highBPM := Compare{"bpm", OpGt, stream.Float(100)}
	afternoon := TimeOfDay{FromHour: 13, ToHour: 15}

	if !(And{hot, highBPM, afternoon}).Eval(tp, tau) {
		t.Error("And failed")
	}
	if (And{hot, Never{}}).Eval(tp, tau) {
		t.Error("And with Never fired")
	}
	if !(Or{Never{}, hot}).Eval(tp, tau) {
		t.Error("Or failed")
	}
	if (Or{Never{}, Never{}}).Eval(tp, tau) {
		t.Error("Or of Nevers fired")
	}
	if (Not{hot}).Eval(tp, tau) {
		t.Error("Not failed")
	}
	if !(Not{Never{}}).Eval(tp, tau) {
		t.Error("Not Never failed")
	}
	// Empty composites: And fires (vacuous truth), Or does not.
	if !(And{}).Eval(tp, tau) {
		t.Error("empty And should be true")
	}
	if (Or{}).Eval(tp, tau) {
		t.Error("empty Or should be false")
	}
}

func TestDescribeStrings(t *testing.T) {
	c := And{
		Compare{"bpm", OpGt, stream.Float(100)},
		Not{TimeOfDay{FromHour: 0, ToHour: 6}},
	}
	d := c.Describe()
	if d == "" {
		t.Fatal("empty describe")
	}
	// Should mention both sub-conditions.
	if !contains(d, "bpm") || !contains(d, "hour") {
		t.Fatalf("describe lacks parts: %q", d)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestParamHelpers(t *testing.T) {
	if Const(3.5)(time.Now()) != 3.5 {
		t.Error("Const")
	}
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(10 * time.Hour)
	lin := Linear(t0, t1, 0, 1)
	if lin(t0) != 0 || lin(t1) != 1 {
		t.Error("Linear endpoints")
	}
	if v := lin(t0.Add(5 * time.Hour)); math.Abs(v-0.5) > 1e-9 {
		t.Errorf("Linear midpoint %g", v)
	}
	if lin(t0.Add(-time.Hour)) != 0 || lin(t1.Add(time.Hour)) != 1 {
		t.Error("Linear clamping")
	}
	// Degenerate interval returns v1.
	if Linear(t0, t0, 2, 7)(t0) != 7 {
		t.Error("degenerate Linear")
	}
}

func TestSinusoidDaily(t *testing.T) {
	p := SinusoidDaily(0.25, 0.25)
	midnight := time.Date(2016, 2, 26, 0, 0, 0, 0, time.UTC)
	noon := midnight.Add(12 * time.Hour)
	if v := p(midnight); math.Abs(v-0.5) > 1e-9 {
		t.Errorf("midnight %g, want 0.5", v)
	}
	if v := p(noon); math.Abs(v) > 1e-9 {
		t.Errorf("noon %g, want 0", v)
	}
	six := midnight.Add(6 * time.Hour)
	if v := p(six); math.Abs(v-0.25) > 1e-9 {
		t.Errorf("6am %g, want 0.25", v)
	}
	// Range check across the day.
	for h := 0; h < 24; h++ {
		v := p(midnight.Add(time.Duration(h) * time.Hour))
		if v < -1e-12 || v > 0.5+1e-12 {
			t.Errorf("hour %d out of [0,0.5]: %g", h, v)
		}
	}
}

func TestPatterns(t *testing.T) {
	at := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	ab := AbruptPattern{At: at}
	if ab.Weight(at.Add(-time.Second)) != 0 || ab.Weight(at) != 1 {
		t.Error("abrupt pattern")
	}
	inc := IncrementalPattern{From: at, To: at.Add(10 * time.Hour)}
	if inc.Weight(at) != 0 || inc.Weight(at.Add(10*time.Hour)) != 1 {
		t.Error("incremental endpoints")
	}
	if w := inc.Weight(at.Add(5 * time.Hour)); math.Abs(w-0.5) > 1e-9 {
		t.Errorf("incremental midpoint %g", w)
	}
	mid := IntermediatePattern{From: at, To: at.Add(4 * time.Hour)}
	if mid.Weight(at.Add(-time.Second)) != 0 || mid.Weight(at.Add(4*time.Hour)) != 0 {
		t.Error("intermediate outside window")
	}
	if mid.Weight(at.Add(2*time.Hour)) != 1 {
		t.Error("intermediate plateau")
	}
	tri := IntermediatePattern{From: at, To: at.Add(4 * time.Hour), Triangular: true}
	if w := tri.Weight(at.Add(2 * time.Hour)); math.Abs(w-1) > 1e-9 {
		t.Errorf("triangular peak %g", w)
	}
	if w := tri.Weight(at.Add(time.Hour)); math.Abs(w-0.5) > 1e-9 {
		t.Errorf("triangular rise %g", w)
	}
	sc := Scaled(tri, 10)
	if w := sc(at.Add(2 * time.Hour)); math.Abs(w-10) > 1e-9 {
		t.Errorf("scaled %g", w)
	}
}
