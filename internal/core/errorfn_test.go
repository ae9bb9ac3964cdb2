package core

import (
	"encoding/json"
	"math"
	"math/big"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

var errSchema = stream.MustSchema("ts",
	stream.Field{Name: "ts", Kind: stream.KindTime},
	stream.Field{Name: "x", Kind: stream.KindFloat},
	stream.Field{Name: "y", Kind: stream.KindFloat},
	stream.Field{Name: "n", Kind: stream.KindInt},
	stream.Field{Name: "cat", Kind: stream.KindString},
)

func errTuple(x, y float64, n int64, cat string) stream.Tuple {
	ts := time.Date(2020, 3, 1, 10, 0, 0, 0, time.UTC)
	t := stream.NewTuple(errSchema, []stream.Value{
		stream.Time(ts), stream.Float(x), stream.Float(y), stream.Int(n), stream.Str(cat),
	})
	t.EventTime = ts
	t.Arrival = ts
	return t
}

func TestGaussianNoiseChangesOnlyTargets(t *testing.T) {
	e := &GaussianNoise{Stddev: Const(1), Rand: rng.New(1)}
	tp := errTuple(10, 20, 5, "a")
	e.Apply(&tp, []string{"x"}, tp.EventTime)
	if tp.MustGet("x").Equal(stream.Float(10)) {
		t.Error("x unchanged (vanishingly unlikely)")
	}
	if !tp.MustGet("y").Equal(stream.Float(20)) || !tp.MustGet("n").Equal(stream.Int(5)) {
		t.Error("non-target attributes changed")
	}
}

func TestGaussianNoiseStatistics(t *testing.T) {
	e := &GaussianNoise{Stddev: Const(2), Rand: rng.New(2)}
	const n = 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		tp := errTuple(100, 0, 0, "")
		e.Apply(&tp, []string{"x"}, tp.EventTime)
		d := tp.MustGet("x").MustFloat() - 100
		sum += d
		sumSq += d * d
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.05 || math.Abs(sd-2) > 0.05 {
		t.Fatalf("noise stats mean=%g sd=%g", mean, sd)
	}
}

func TestGaussianNoiseSkipsNullAndString(t *testing.T) {
	e := &GaussianNoise{Stddev: Const(1), Rand: rng.New(3)}
	tp := errTuple(1, 2, 3, "a")
	tp.Set("x", stream.Null())
	e.Apply(&tp, []string{"x", "cat", "missing"}, tp.EventTime)
	if !tp.MustGet("x").IsNull() {
		t.Error("null overwritten")
	}
	if !tp.MustGet("cat").Equal(stream.Str("a")) {
		t.Error("string attr corrupted by numeric error")
	}
}

func TestGaussianNoiseIntStaysInt(t *testing.T) {
	e := &GaussianNoise{Stddev: Const(5), Rand: rng.New(4)}
	tp := errTuple(0, 0, 100, "")
	e.Apply(&tp, []string{"n"}, tp.EventTime)
	if tp.MustGet("n").Kind() != stream.KindInt {
		t.Fatalf("int attribute became %v", tp.MustGet("n").Kind())
	}
}

func TestUniformMultNoiseBounds(t *testing.T) {
	e := &UniformMultNoise{Lo: Const(0.1), Hi: Const(0.2), Rand: rng.New(5)}
	for i := 0; i < 1000; i++ {
		tp := errTuple(100, 0, 0, "")
		e.Apply(&tp, []string{"x"}, tp.EventTime)
		v := tp.MustGet("x").MustFloat()
		rel := math.Abs(v-100) / 100
		if rel < 0.1-1e-9 || rel > 0.2+1e-9 {
			t.Fatalf("relative change %g outside [0.1,0.2]", rel)
		}
	}
}

func TestUniformMultNoiseBothDirections(t *testing.T) {
	e := &UniformMultNoise{Lo: Const(0.5), Hi: Const(0.5), Rand: rng.New(6)}
	up, down := 0, 0
	for i := 0; i < 1000; i++ {
		tp := errTuple(100, 0, 0, "")
		e.Apply(&tp, []string{"x"}, tp.EventTime)
		if tp.MustGet("x").MustFloat() > 100 {
			up++
		} else {
			down++
		}
	}
	if up < 400 || down < 400 {
		t.Fatalf("coin toss skewed: up=%d down=%d", up, down)
	}
}

func TestUniformMultNoiseGrowsOverTime(t *testing.T) {
	// Eq. 3: bounds ramp from 0 to max over the stream horizon.
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	tn := t0.Add(100 * time.Hour)
	e := &UniformMultNoise{Lo: Linear(t0, tn, 0, 0.5), Hi: Linear(t0, tn, 0, 0.5), Rand: rng.New(7)}
	early := errTuple(100, 0, 0, "")
	e.Apply(&early, []string{"x"}, t0)
	if math.Abs(early.MustGet("x").MustFloat()-100) > 1e-9 {
		t.Error("noise at τ0 should be zero")
	}
	late := errTuple(100, 0, 0, "")
	e.Apply(&late, []string{"x"}, tn)
	if math.Abs(late.MustGet("x").MustFloat()-100)/100 < 0.5-1e-9 {
		t.Error("noise at τn should be at max magnitude")
	}
}

func TestScaleByFactor(t *testing.T) {
	e := &ScaleByFactor{Factor: Const(0.125)}
	tp := errTuple(80, 16, 8, "")
	e.Apply(&tp, []string{"x", "y", "n"}, tp.EventTime)
	if !tp.MustGet("x").Equal(stream.Float(10)) || !tp.MustGet("y").Equal(stream.Float(2)) {
		t.Errorf("scale floats: %v", tp)
	}
	if !tp.MustGet("n").Equal(stream.Int(1)) {
		t.Errorf("scale int: %v", tp.MustGet("n"))
	}
}

func TestMissingValue(t *testing.T) {
	tp := errTuple(1, 2, 3, "a")
	MissingValue{}.Apply(&tp, []string{"x", "cat"}, tp.EventTime)
	if !tp.MustGet("x").IsNull() || !tp.MustGet("cat").IsNull() {
		t.Error("values not nulled")
	}
	if !tp.MustGet("y").Equal(stream.Float(2)) {
		t.Error("non-target nulled")
	}
}

func TestSetConstant(t *testing.T) {
	tp := errTuple(120, 2, 3, "a")
	SetConstant{Value: stream.Float(0)}.Apply(&tp, []string{"x"}, tp.EventTime)
	if !tp.MustGet("x").Equal(stream.Float(0)) {
		t.Error("constant not set")
	}
}

func TestIncorrectCategory(t *testing.T) {
	e := &IncorrectCategory{Categories: []string{"a", "b", "c"}, Rand: rng.New(8)}
	for i := 0; i < 100; i++ {
		tp := errTuple(0, 0, 0, "a")
		e.Apply(&tp, []string{"cat"}, tp.EventTime)
		got, _ := tp.MustGet("cat").AsString()
		if got == "a" {
			t.Fatal("category unchanged")
		}
		if got != "b" && got != "c" {
			t.Fatalf("unknown category %q", got)
		}
	}
	// Single category: no change possible.
	single := &IncorrectCategory{Categories: []string{"a"}, Rand: rng.New(9)}
	tp := errTuple(0, 0, 0, "a")
	single.Apply(&tp, []string{"cat"}, tp.EventTime)
	if got, _ := tp.MustGet("cat").AsString(); got != "a" {
		t.Fatal("single category changed")
	}
}

func TestRoundPrecision(t *testing.T) {
	tp := errTuple(3.14159, 2.71828, 0, "")
	RoundPrecision{Digits: 2}.Apply(&tp, []string{"x", "y"}, tp.EventTime)
	if !tp.MustGet("x").Equal(stream.Float(3.14)) || !tp.MustGet("y").Equal(stream.Float(2.72)) {
		t.Errorf("rounding: %v", tp)
	}
	tp2 := errTuple(1234.5, 0, 0, "")
	RoundPrecision{Digits: -2}.Apply(&tp2, []string{"x"}, tp2.EventTime)
	if !tp2.MustGet("x").Equal(stream.Float(1200)) {
		t.Errorf("negative digits: %v", tp2.MustGet("x"))
	}
}

// TestRoundPrecisionPowersOfTen: round_precision scales by a table, not
// by math.Pow. Every entry is its power of ten exactly (and what
// math.Pow returns on amd64), the table spans the digits key's range in
// both directions, and a digits value outside it is a configuration
// error.
func TestRoundPrecisionPowersOfTen(t *testing.T) {
	p := big.NewInt(1)
	for d, v := range pow10 {
		if f, acc := new(big.Float).SetInt(p).Float64(); f != v || acc != big.Exact {
			t.Errorf("pow10[%d] = %g, want exactly %s", d, v, p)
		}
		if runtime.GOARCH == "amd64" && v != math.Pow(10, float64(d)) {
			t.Errorf("pow10[%d] = %g, math.Pow = %g", d, v, math.Pow(10, float64(d)))
		}
		p.Mul(p, big.NewInt(10))
	}
	build := func(digits string) error {
		_, err := Build(RoleError, Bag{"type": json.RawMessage(`"round_precision"`), "digits": json.RawMessage(digits)}, 1, "p")
		return err
	}
	hi := len(pow10) - 1
	for _, digits := range []int{-hi, hi} {
		if err := build(strconv.Itoa(digits)); err != nil {
			t.Errorf("digits %d: %v", digits, err)
		}
	}
	for _, digits := range []string{strconv.Itoa(-hi - 1), strconv.Itoa(hi + 1)} {
		if err := build(digits); err == nil || !strings.Contains(err.Error(), "digits") {
			t.Errorf("digits %s: err = %v, want a range error naming the key", digits, err)
		}
	}
}

func TestOutlier(t *testing.T) {
	e := &Outlier{Magnitude: Const(10), Rand: rng.New(10)}
	tp := errTuple(5, 0, 0, "")
	e.Apply(&tp, []string{"x"}, tp.EventTime)
	v := tp.MustGet("x").MustFloat()
	if math.Abs(v-5) < 49 { // |spike| = 10·max(|5|,1) = 50
		t.Fatalf("outlier too small: %g", v)
	}
}

func TestStringTypoAlwaysEdits(t *testing.T) {
	e := &StringTypo{Rand: rng.New(11)}
	changedOrResized := 0
	for i := 0; i < 200; i++ {
		tp := errTuple(0, 0, 0, "hello world")
		e.Apply(&tp, []string{"cat"}, tp.EventTime)
		got, _ := tp.MustGet("cat").AsString()
		if got != "hello world" || len(got) != len("hello world") {
			changedOrResized++
		}
	}
	// Transposition of identical neighbours ("ll") can be a no-op, so we
	// only require edits to happen most of the time.
	if changedOrResized < 150 {
		t.Fatalf("typos applied in only %d/200 runs", changedOrResized)
	}
	// Empty strings and non-strings survive unchanged.
	tp := errTuple(0, 0, 0, "")
	e.Apply(&tp, []string{"cat", "x"}, tp.EventTime)
	if got, _ := tp.MustGet("cat").AsString(); got != "" {
		t.Error("empty string corrupted")
	}
	if !tp.MustGet("x").Equal(stream.Float(0)) {
		t.Error("float attr corrupted by typo error")
	}
}

func TestSwapAttributes(t *testing.T) {
	tp := errTuple(1, 2, 0, "")
	SwapAttributes{}.Apply(&tp, []string{"x", "y"}, tp.EventTime)
	if !tp.MustGet("x").Equal(stream.Float(2)) || !tp.MustGet("y").Equal(stream.Float(1)) {
		t.Error("swap failed")
	}
	// Single attr or missing attrs: no-op.
	tp2 := errTuple(1, 2, 0, "")
	SwapAttributes{}.Apply(&tp2, []string{"x"}, tp2.EventTime)
	SwapAttributes{}.Apply(&tp2, []string{"x", "zzz"}, tp2.EventTime)
	if !tp2.MustGet("x").Equal(stream.Float(1)) {
		t.Error("no-op swap changed value")
	}
}

func TestOffsetAndClamp(t *testing.T) {
	tp := errTuple(10, 0, 0, "")
	Offset{Delta: Const(-3)}.Apply(&tp, []string{"x"}, tp.EventTime)
	if !tp.MustGet("x").Equal(stream.Float(7)) {
		t.Error("offset failed")
	}
	Clamp{Lo: 0, Hi: 5}.Apply(&tp, []string{"x"}, tp.EventTime)
	if !tp.MustGet("x").Equal(stream.Float(5)) {
		t.Error("clamp failed")
	}
}

func TestChain(t *testing.T) {
	c := Chain{&ScaleByFactor{Factor: Const(2)}, Offset{Delta: Const(1)}}
	tp := errTuple(10, 0, 0, "")
	c.Apply(&tp, []string{"x"}, tp.EventTime)
	if !tp.MustGet("x").Equal(stream.Float(21)) {
		t.Errorf("chain order wrong: %v", tp.MustGet("x"))
	}
	if c.Kind() != "chain(scale_by_factor,offset)" {
		t.Errorf("chain kind %q", c.Kind())
	}
}

func TestDelayTuple(t *testing.T) {
	tp := errTuple(1, 2, 3, "a")
	origTS, _ := tp.Timestamp()
	DelayTuple{Delay: time.Hour}.Apply(&tp, nil, tp.EventTime)
	if !tp.Arrival.Equal(tp.EventTime.Add(time.Hour)) {
		t.Error("arrival not delayed")
	}
	nowTS, _ := tp.Timestamp()
	if !nowTS.Equal(origTS) {
		t.Error("delay must not alter the timestamp attribute")
	}
	if !tp.EventTime.Equal(origTS) {
		t.Error("delay must not alter τ")
	}
}

func TestFrozenValue(t *testing.T) {
	e := NewFrozenValue()
	// First triggered tuple establishes the frozen value.
	t1 := errTuple(10, 0, 0, "")
	e.Apply(&t1, []string{"x"}, t1.EventTime)
	if !t1.MustGet("x").Equal(stream.Float(10)) {
		t.Error("first freeze should keep own value")
	}
	t2 := errTuple(20, 0, 0, "")
	e.Apply(&t2, []string{"x"}, t2.EventTime)
	if !t2.MustGet("x").Equal(stream.Float(10)) {
		t.Error("frozen value not replayed")
	}
	e.Thaw()
	t3 := errTuple(30, 0, 0, "")
	e.Apply(&t3, []string{"x"}, t3.EventTime)
	if !t3.MustGet("x").Equal(stream.Float(30)) {
		t.Error("thaw did not clear state")
	}
}

func TestTimestampShift(t *testing.T) {
	tp := errTuple(1, 2, 3, "a")
	orig := tp.EventTime
	TimestampShift{Offset: -30 * time.Minute}.Apply(&tp, nil, tp.EventTime)
	ts, _ := tp.Timestamp()
	if !ts.Equal(orig.Add(-30 * time.Minute)) {
		t.Error("timestamp attribute not shifted")
	}
	if !tp.EventTime.Equal(orig) {
		t.Error("τ must stay immune")
	}
}

func TestDropTuple(t *testing.T) {
	tp := errTuple(1, 2, 3, "a")
	DropTuple{}.Apply(&tp, nil, tp.EventTime)
	if !tp.Dropped {
		t.Error("tuple not marked dropped")
	}
}

func TestHoldAndRelease(t *testing.T) {
	release := time.Date(2020, 3, 1, 15, 0, 0, 0, time.UTC)
	e := HoldAndRelease{ReleaseAt: release}
	tp := errTuple(1, 0, 0, "") // arrival 10:00
	e.Apply(&tp, nil, tp.EventTime)
	if !tp.Arrival.Equal(release) {
		t.Error("early tuple not held")
	}
	late := errTuple(1, 0, 0, "")
	late.Arrival = release.Add(time.Hour)
	e.Apply(&late, nil, late.EventTime)
	if !late.Arrival.Equal(release.Add(time.Hour)) {
		t.Error("late tuple moved")
	}
}

// Property: for every numeric error function, non-target attributes and
// NULL values are never modified, and τ / ID are never touched.
func TestErrorFunctionsPreserveInvariants(t *testing.T) {
	r := rng.New(99)
	errs := []ErrorFunc{
		&GaussianNoise{Stddev: Const(3), Rand: r},
		&UniformMultNoise{Lo: Const(0.1), Hi: Const(0.3), Rand: r},
		&ScaleByFactor{Factor: Const(7)},
		MissingValue{},
		SetConstant{Value: stream.Float(-1)},
		RoundPrecision{Digits: 1},
		&Outlier{Magnitude: Const(2), Rand: r},
		Offset{Delta: Const(5)},
		Clamp{Lo: -1, Hi: 1},
	}
	prop := func(x float64, n int64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		for _, e := range errs {
			tp := errTuple(x, 42, n, "keep")
			id := tp.ID
			tau := tp.EventTime
			e.Apply(&tp, []string{"x"}, tau)
			if !tp.MustGet("y").Equal(stream.Float(42)) {
				return false
			}
			if got, _ := tp.MustGet("cat").AsString(); got != "keep" {
				return false
			}
			if tp.ID != id || !tp.EventTime.Equal(tau) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorKindsAreStable(t *testing.T) {
	kinds := map[string]ErrorFunc{
		"gaussian_noise":     &GaussianNoise{},
		"uniform_mult_noise": &UniformMultNoise{},
		"scale_by_factor":    &ScaleByFactor{},
		"missing_value":      MissingValue{},
		"set_constant":       SetConstant{},
		"incorrect_category": &IncorrectCategory{},
		"round_precision":    RoundPrecision{},
		"outlier":            &Outlier{},
		"string_typo":        &StringTypo{},
		"swap_attributes":    SwapAttributes{},
		"offset":             Offset{},
		"clamp":              Clamp{},
		"delayed_tuple":      DelayTuple{},
		"frozen_value":       NewFrozenValue(),
		"timestamp_shift":    TimestampShift{},
		"dropped_tuple":      DropTuple{},
		"hold_and_release":   HoldAndRelease{},
	}
	for want, e := range kinds {
		if e.Kind() != want {
			t.Errorf("kind %q != %q", e.Kind(), want)
		}
	}
}
