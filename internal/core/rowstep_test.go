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

// Row-step-vs-scalar equivalence: the row step is the engine's only
// kernel — every built-in condition and error function reaches a row
// through rowStep.pollute inside a Standard polluter. Whatever it does
// must produce the same bytes and draw the same random words as the bare
// interface methods called row by row, on adversarial cells — denormals,
// NaN/±Inf, max-length strings, all-null columns and zero timestamps.

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

// adversarialRows builds fresh rows whose cells hit every numeric and
// string edge the built-ins special-case. The "nul" column is all-null;
// row IDs run 1..8 and each row's event time is its ts cell (zero when
// NULL).
func adversarialRows(s *stream.Schema) []stream.Tuple {
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
	out := make([]stream.Tuple, len(rows))
	for i, vals := range rows {
		t := stream.NewTuple(s, vals)
		t.ID = uint64(i + 1)
		tau, _ := vals[0].AsTime()
		t.EventTime = tau
		t.Arrival = tau
		out[i] = t
	}
	return out
}

// stepRows pollutes every row in place through the row step of a
// one-pipeline process holding p, and returns the run's log.
func stepRows(t *testing.T, p Polluter, rows []stream.Tuple) *Log {
	t.Helper()
	log := NewLog()
	step := (&Process{Pipelines: []*Pipeline{NewPipeline(p)}}).step(0, log, nil)
	for i := range rows {
		if _, err := step.pollute(&rows[i]); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	return log
}

// rowSet selects the rows whose tuple IDs it holds and draws nothing.
type rowSet map[uint64]bool

func (s rowSet) Eval(t stream.Tuple, _ time.Time) bool { return s[t.ID] }

func (rowSet) Describe() string { return "rows" }

// touch is an error function that changes nothing, so a polluter's log
// entries are exactly its condition's hits.
type touch struct{}

func (touch) Apply(*stream.Tuple, []string, time.Time) {}

func (touch) Kind() string { return "touch" }

// TestCondKernelsMatchScalar gates a polluter with every built-in
// condition and checks the rows the row step logs equal the rows
// row-by-row Eval accepts on the same cells (NaN/±Inf, 4 KiB strings,
// the all-null column, a missing attribute).
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
			log := stepRows(t, NewStandard(tc.name, touch{}, tc.mk(), "v"), adversarialRows(s))
			var hits []uint64
			for _, e := range entriesOf(log) {
				hits = append(hits, e.TupleID)
			}
			scalar := tc.mk()
			var want []uint64
			for _, row := range adversarialRows(s) {
				if scalar.Eval(row, row.EventTime) {
					want = append(want, row.ID)
				}
			}
			if fmt.Sprint(hits) != fmt.Sprint(want) {
				t.Fatalf("hit set diverged\nrow step: %v\nscalar:   %v", hits, want)
			}
		})
	}
}

// TestErrKernelsMatchScalar applies every built-in error function
// through the row step to a full, a sparse and an empty selection, and
// checks the polluted rows and the log equal row-by-row Apply with
// identical RNG state, on the adversarial cells and the all-null column.
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
	sels := map[string][]int{
		"all":    {0, 1, 2, 3, 4, 5, 6, 7},
		"sparse": {1, 4, 6},
		"none":   {},
	}
	for _, tc := range cases {
		tc := tc
		for selName, sel := range sels {
			sel := sel
			t.Run(tc.name+"/"+selName, func(t *testing.T) {
				set := rowSet{}
				var wantIDs []uint64
				for _, r := range sel {
					set[uint64(r+1)] = true
					wantIDs = append(wantIDs, uint64(r+1))
				}
				got := adversarialRows(s)
				log := stepRows(t, NewStandard(tc.name, tc.mk(11), set, tc.attrs...), got)

				want := adversarialRows(s)
				scalar := tc.mk(11)
				for _, r := range sel {
					scalar.Apply(&want[r], tc.attrs, want[r].EventTime)
				}

				for r := range want {
					g, w := renderTuples(got[r:r+1]), renderTuples(want[r:r+1])
					if g != w {
						t.Fatalf("row %d diverged\nrow step: %s\nscalar:   %s", r, g, w)
					}
				}
				var gotIDs []uint64
				for _, e := range entriesOf(log) {
					gotIDs = append(gotIDs, e.TupleID)
				}
				if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
					t.Fatalf("log names rows %v, selection is %v", gotIDs, wantIDs)
				}
			})
		}
	}
}

// TestErrKernelRNGParity pins that the row step consumes exactly the
// random words the bare error function does: after an outlier run
// through the row step and a scalar run from the same seed, the streams
// must be in lockstep.
func TestErrKernelRNGParity(t *testing.T) {
	s := kernelSchema()
	mk := func(seed int64) (ErrorFunc, *rng.Stream) {
		r := rng.Derive(seed, "parity")
		return &Outlier{Magnitude: Const(3), Rand: r}, r
	}
	kfn, kr := mk(99)
	stepRows(t, NewStandard("outlier", kfn, Always{}, "v"), adversarialRows(s))

	sfn, sr := mk(99)
	for _, row := range adversarialRows(s) {
		sfn.Apply(&row, []string{"v"}, row.EventTime)
	}
	if kr.Uint64() != sr.Uint64() {
		t.Fatal("row step and scalar paths consumed different draw counts")
	}
}

// TestCondKernelRNGParity is the same lockstep check for the random
// condition, including the probabilities that draw nothing (p = 0,
// p = 1) and a ramp that crosses both.
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
			stepRows(t, NewStandard("random", touch{}, NewRandom(p, kr), "v"), adversarialRows(s))

			scalar := NewRandom(p, sr)
			for _, row := range adversarialRows(s) {
				scalar.Eval(row, row.EventTime)
			}
			if kr.Uint64() != sr.Uint64() {
				t.Fatal("row step and scalar paths consumed different draw counts")
			}
		})
	}
}
