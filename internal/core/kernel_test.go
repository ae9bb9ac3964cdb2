package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// Kernel-vs-scalar equivalence: whatever compileCond/compileErr return
// for a row-local built-in — a vectorised kernel or the per-row shim —
// must produce the same bytes as the interface method, on adversarial
// column data — denormals, NaN/±Inf, max-length strings, all-null
// columns and zero timestamps.

func kernelSchema() *stream.Schema {
	return stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "n", Kind: stream.KindInt},
		stream.Field{Name: "cat", Kind: stream.KindString},
		stream.Field{Name: "flag", Kind: stream.KindBool},
		stream.Field{Name: "nul", Kind: stream.KindFloat},
	)
}

// adversarialBatch builds one batch whose cells hit every numeric and
// string edge the kernels special-case. The "nul" column is all-null.
func adversarialBatch(s *stream.Schema) *stream.ColumnBatch {
	maxStr := strings.Repeat("x", 1<<12)
	base := time.Date(2022, 3, 1, 13, 30, 0, 0, time.UTC)
	rows := [][]stream.Value{
		{stream.Time(base), stream.Float(1.5), stream.Int(-3), stream.Str("abc"), stream.Bool(true), stream.Null()},
		{stream.Null(), stream.Float(math.NaN()), stream.Int(0), stream.Str(""), stream.Bool(false), stream.Null()},
		{stream.Time(base.Add(time.Hour)), stream.Float(math.Inf(1)), stream.Int(math.MaxInt64), stream.Str(maxStr), stream.Bool(true), stream.Null()},
		{stream.Time(base.Add(2 * time.Hour)), stream.Float(math.Inf(-1)), stream.Int(math.MinInt64), stream.Str("Ωλ"), stream.Bool(false), stream.Null()},
		{stream.Time(time.Unix(0, 0).UTC()), stream.Float(math.SmallestNonzeroFloat64), stream.Null(), stream.Null(), stream.Bool(true), stream.Null()},
		{stream.Time(base.Add(3 * time.Hour)), stream.Float(-0.0), stream.Int(7), stream.Str("a"), stream.Bool(false), stream.Null()},
		{stream.Time(base.Add(26 * time.Hour)), stream.Null(), stream.Int(42), stream.Str("bb"), stream.Bool(true), stream.Null()},
		{stream.Time(base.Add(-48 * time.Hour)), stream.Float(1e308), stream.Int(1), stream.Str("ccc"), stream.Bool(false), stream.Null()},
	}
	b := stream.NewColumnBatch(s, len(rows))
	for i, vals := range rows {
		t := stream.NewTuple(s, vals)
		t.ID = uint64(i + 1)
		tau, _ := vals[0].AsTime()
		t.EventTime = tau
		t.Arrival = tau
		if err := b.AppendTuple(t); err != nil {
			panic(err)
		}
	}
	return b
}

func renderBatch(b *stream.ColumnBatch) []string {
	out := make([]string, b.Len())
	for r := 0; r < b.Len(); r++ {
		out[r] = renderTuple(b.Row(r))
	}
	return out
}

// TestCondKernelsMatchScalar compiles every row-local built-in condition
// and checks its hit set equals row-by-row Eval on the same batch. The
// random, compare and time_interval rows pin the vectorised kernels; the
// shimmed rows pin the shim's RowInto round trip on the adversarial
// cells (NaN/±Inf, 4 KiB strings, the all-null column).
func TestCondKernelsMatchScalar(t *testing.T) {
	s := kernelSchema()
	day := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		mk   func() Condition // fresh per path so RNG state never shares
	}{
		{"always", func() Condition { return Always{} }},
		{"never", func() Condition { return Never{} }},
		{"random", func() Condition { return NewRandomConst(0.5, rng.Derive(1, "r")) }},
		{"random-p0", func() Condition { return NewRandomConst(0, rng.Derive(2, "r")) }},
		{"random-p1", func() Condition { return NewRandomConst(1, rng.Derive(3, "r")) }},
		{"random-ramp", func() Condition {
			return NewRandom(Linear(day, day.Add(24*time.Hour), 0, 1), rng.Derive(4, "r"))
		}},
		{"cmp-gt", func() Condition { return Compare{Attr: "v", Op: OpGt, Value: stream.Float(0)} }},
		{"cmp-eq-null", func() Condition { return Compare{Attr: "cat", Op: OpEq, Value: stream.Null()} }},
		{"cmp-ne-null", func() Condition { return Compare{Attr: "n", Op: OpNe, Value: stream.Null()} }},
		{"cmp-allnull-col", func() Condition { return Compare{Attr: "nul", Op: OpLt, Value: stream.Float(1)} }},
		{"cmp-missing-attr", func() Condition { return Compare{Attr: "ghost", Op: OpEq, Value: stream.Int(1)} }},
		{"cmp-str", func() Condition { return Compare{Attr: "cat", Op: OpGe, Value: stream.Str("b")} }},
		{"pred", func() Condition {
			return AttrPredicate{Attr: "v", Fn: func(v stream.Value) bool {
				f, ok := v.AsFloat()
				return ok && !math.IsNaN(f) && f > 0
			}}
		}},
		{"interval", func() Condition { return TimeInterval{From: day, To: day.Add(3 * time.Hour)} }},
		{"interval-open", func() Condition { return TimeInterval{} }},
		{"time-of-day", func() Condition { return TimeOfDay{FromHour: 13, ToHour: 15} }},
		{"time-of-day-wrap", func() Condition { return TimeOfDay{FromHour: 22, ToHour: 3} }},
		{"and", func() Condition {
			return And{NewRandomConst(0.7, rng.Derive(5, "r")), Compare{Attr: "flag", Op: OpEq, Value: stream.Bool(true)}}
		}},
		{"and-empty", func() Condition { return And{} }},
		{"or", func() Condition {
			return Or{Compare{Attr: "n", Op: OpLt, Value: stream.Int(0)}, NewRandomConst(0.5, rng.Derive(6, "r"))}
		}},
		{"or-empty", func() Condition { return Or{} }},
		{"not", func() Condition { return Not{Inner: Compare{Attr: "v", Op: OpGt, Value: stream.Float(0)}} }},
		{"nested", func() Condition {
			return Or{
				And{TimeOfDay{FromHour: 13, ToHour: 14}, NewRandomConst(0.9, rng.Derive(7, "r"))},
				Not{Inner: Or{Compare{Attr: "cat", Op: OpEq, Value: stream.Str("abc")}, Never{}}},
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := adversarialBatch(s)
			c := tc.mk()
			if !rowLocal(c) {
				t.Fatalf("condition %s is not row-local", tc.name)
			}
			all := stream.Selection(nil).FillAll(b.Len())
			hits := compileCond(c, s)(b, all, nil)
			scalar := tc.mk()
			taus := b.EventTimes()
			var want []int32
			for r := 0; r < b.Len(); r++ {
				if scalar.Eval(b.Row(r), taus[r]) {
					want = append(want, int32(r))
				}
			}
			if fmt.Sprint([]int32(hits)) != fmt.Sprint(want) {
				t.Fatalf("hit set diverged\nkernel: %v\nscalar: %v", hits, want)
			}
		})
	}
}

// TestErrKernelsMatchScalar compiles every row-local built-in error
// function and checks the mutated batch equals row-by-row Apply with
// identical RNG state, including on an all-null column and at full
// selection. The gaussian_noise, outlier, scale_by_factor, offset and
// round_precision rows pin the vectorised kernels; the shimmed rows pin
// the shim's RowInto/SetRow round trip on the adversarial cells
// (NaN/±Inf, 4 KiB strings, the all-null column).
func TestErrKernelsMatchScalar(t *testing.T) {
	s := kernelSchema()
	cases := []struct {
		name  string
		attrs []string
		mk    func(seed int64) ErrorFunc
	}{
		{"gauss", []string{"v", "nul"}, func(seed int64) ErrorFunc {
			return &GaussianNoise{Stddev: Const(2), Rand: rng.Derive(seed, "e")}
		}},
		{"uniform-mult", []string{"v"}, func(seed int64) ErrorFunc {
			return &UniformMultNoise{Lo: Const(0.1), Hi: Const(0.3), Rand: rng.Derive(seed, "e")}
		}},
		{"uniform-mult-swapped", []string{"v"}, func(seed int64) ErrorFunc {
			return &UniformMultNoise{Lo: Const(0.3), Hi: Const(0.1), Rand: rng.Derive(seed, "e")}
		}},
		{"outlier", []string{"v", "n"}, func(seed int64) ErrorFunc {
			return &Outlier{Magnitude: Const(4), Rand: rng.Derive(seed, "e")}
		}},
		{"scale", []string{"v", "n", "nul"}, func(int64) ErrorFunc { return &ScaleByFactor{Factor: Const(-2.5)} }},
		{"offset", []string{"n"}, func(int64) ErrorFunc { return Offset{Delta: Const(0.4)} }},
		{"round", []string{"v"}, func(int64) ErrorFunc { return RoundPrecision{Digits: 2} }},
		{"round-neg", []string{"v"}, func(int64) ErrorFunc { return RoundPrecision{Digits: -1} }},
		{"clamp", []string{"v", "n"}, func(int64) ErrorFunc { return Clamp{Lo: -1, Hi: 1} }},
		{"missing", []string{"cat", "v"}, func(int64) ErrorFunc { return MissingValue{} }},
		{"const", []string{"n", "ghost"}, func(int64) ErrorFunc { return SetConstant{Value: stream.Str("k")} }},
		{"category", []string{"cat"}, func(seed int64) ErrorFunc {
			return &IncorrectCategory{Categories: []string{"abc", "a", "zz"}, Rand: rng.Derive(seed, "e")}
		}},
		{"category-one", []string{"cat"}, func(seed int64) ErrorFunc {
			return &IncorrectCategory{Categories: []string{"abc"}, Rand: rng.Derive(seed, "e")}
		}},
		{"typo", []string{"cat"}, func(seed int64) ErrorFunc {
			return &StringTypo{Rand: rng.Derive(seed, "e")}
		}},
		{"swap", []string{"v", "n"}, func(int64) ErrorFunc { return SwapAttributes{} }},
		{"swap-self", []string{"cat"}, func(int64) ErrorFunc { return SwapAttributes{} }},
		{"delay", nil, func(int64) ErrorFunc { return DelayTuple{Delay: 7 * time.Minute} }},
		{"drop", nil, func(int64) ErrorFunc { return DropTuple{} }},
		{"ts-shift", []string{"ts"}, func(int64) ErrorFunc { return TimestampShift{Offset: -90 * time.Minute} }},
		{"hold", []string{"v"}, func(int64) ErrorFunc {
			return HoldAndRelease{ReleaseAt: time.Date(2022, 3, 2, 0, 0, 0, 0, time.UTC)}
		}},
		{"chain", []string{"v"}, func(seed int64) ErrorFunc {
			return Chain{Offset{Delta: Const(1)}, &GaussianNoise{Stddev: Const(1), Rand: rng.Derive(seed, "e")}, RoundPrecision{Digits: 3}}
		}},
	}
	sels := map[string][]int32{
		"all":    {0, 1, 2, 3, 4, 5, 6, 7},
		"sparse": {1, 4, 6},
		"none":   {},
	}
	for _, tc := range cases {
		tc := tc
		for selName, sel := range sels {
			sel := sel
			t.Run(tc.name+"/"+selName, func(t *testing.T) {
				kb := adversarialBatch(s)
				e := tc.mk(11)
				if !rowLocal(e) {
					t.Fatalf("error function %s is not row-local", tc.name)
				}
				compileErr(e, tc.attrs, s)(kb, stream.Selection(sel))

				sb := adversarialBatch(s)
				scalar := tc.mk(11)
				taus := sb.EventTimes()
				var buf []stream.Value
				for _, r := range sel {
					tp := sb.RowInto(buf, int(r))
					scalar.Apply(&tp, tc.attrs, taus[r])
					sb.SetRow(int(r), tp)
					buf = tp.Values()
				}

				got, want := renderBatch(kb), renderBatch(sb)
				for r := range want {
					if got[r] != want[r] {
						t.Fatalf("row %d diverged\nkernel: %s\nscalar: %s", r, got[r], want[r])
					}
				}
			})
		}
	}
}

// TestErrKernelRNGParity pins that the outlier kernel's draw-ahead
// consumes exactly the same number of RNG words as the scalar path:
// after a kernel run and a scalar run from the same seed, the streams
// must be in lockstep.
func TestErrKernelRNGParity(t *testing.T) {
	s := kernelSchema()
	mk := func(seed int64) (ErrorFunc, *rng.Stream) {
		r := rng.Derive(seed, "parity")
		return &Outlier{Magnitude: Const(3), Rand: r}, r
	}
	kfn, kr := mk(99)
	kb := adversarialBatch(s)
	compileErr(kfn, []string{"v"}, s)(kb, stream.Selection(nil).FillAll(kb.Len()))

	sfn, sr := mk(99)
	sb := adversarialBatch(s)
	taus := sb.EventTimes()
	var buf []stream.Value
	for r := 0; r < sb.Len(); r++ {
		tp := sb.RowInto(buf, r)
		sfn.Apply(&tp, []string{"v"}, taus[r])
		sb.SetRow(r, tp)
		buf = tp.Values()
	}
	if kr.Uint64() != sr.Uint64() {
		t.Fatal("kernel and scalar paths consumed different draw counts")
	}
}

// TestCondKernelRNGParity is the same lockstep check for the random
// condition's draw-ahead, including the probabilities that draw nothing
// (p = 0, p = 1) and a ramp that crosses both.
func TestCondKernelRNGParity(t *testing.T) {
	s := kernelSchema()
	day := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	for name, p := range map[string]Param{
		"p0":   Const(0),
		"p1":   Const(1),
		"half": Const(0.5),
		"ramp": Linear(day.Add(13*time.Hour), day.Add(15*time.Hour), -0.5, 1.5),
	} {
		t.Run(name, func(t *testing.T) {
			kr, sr := rng.Derive(7, "parity"), rng.Derive(7, "parity")
			kb := adversarialBatch(s)
			compileCond(NewRandom(p, kr), s)(kb, stream.Selection(nil).FillAll(kb.Len()), nil)

			scalar := NewRandom(p, sr)
			for r, tau := range kb.EventTimes() {
				scalar.Eval(kb.Row(r), tau)
			}
			if kr.Uint64() != sr.Uint64() {
				t.Fatal("kernel and scalar paths consumed different draw counts")
			}
		})
	}
}
