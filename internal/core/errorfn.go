package core

import (
	"math"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// ErrorFunc is the error function e of a polluter (paper §2.2): it
// transforms a tuple in place, restricted to the target attributes A_p,
// and receives the event time τ as an additional argument so that derived
// temporal error types can modulate their behaviour over time.
type ErrorFunc interface {
	// Apply mutates the targeted attributes of t.
	Apply(t *stream.Tuple, attrs []string, tau time.Time)
	// Kind returns a stable identifier for pollution logs.
	Kind() string
}

// applyNumeric runs fn over every targeted numeric attribute, leaving
// NULLs and non-numeric values untouched.
func applyNumeric(t *stream.Tuple, attrs []string, fn func(v float64) float64) {
	for _, a := range attrs {
		i := t.Schema().Index(a)
		if i < 0 {
			continue
		}
		v := t.At(i)
		f, ok := v.AsFloat()
		if !ok {
			continue
		}
		out := fn(f)
		if t.Schema().Field(i).Kind == stream.KindInt {
			t.SetAt(i, stream.Int(int64(math.Round(out))))
			continue
		}
		t.SetAt(i, stream.Float(out))
	}
}

// GaussianNoise adds zero-mean Gaussian noise with (possibly
// time-dependent) standard deviation to numeric attributes.
type GaussianNoise struct {
	Stddev Param
	Rand   *rng.Stream
}

// Apply implements ErrorFunc.
func (e *GaussianNoise) Apply(t *stream.Tuple, attrs []string, tau time.Time) {
	sd := e.Stddev(tau)
	applyNumeric(t, attrs, func(v float64) float64 {
		return v + e.Rand.Normal(0, sd)
	})
}

// Kind implements ErrorFunc.
func (*GaussianNoise) Kind() string { return "gaussian_noise" }

// UniformMultNoise applies the paper's §3.2.1 multiplicative uniform
// noise: a factor u is drawn from U(Lo(τ), Hi(τ)) and, depending on a fair
// coin toss, the value is either increased (v·(1+u)) or decreased
// (v·(1−u)). Letting Lo and Hi grow with τ (Eq. 3) yields the temporally
// increasing noise of Figure 6.
type UniformMultNoise struct {
	Lo, Hi Param
	Rand   *rng.Stream
}

// Apply implements ErrorFunc.
func (e *UniformMultNoise) Apply(t *stream.Tuple, attrs []string, tau time.Time) {
	lo, hi := e.Lo(tau), e.Hi(tau)
	if hi < lo {
		lo, hi = hi, lo
	}
	u := e.Rand.Uniform(lo, hi)
	up := e.Rand.Bool()
	applyNumeric(t, attrs, func(v float64) float64 {
		if up {
			return v * (1 + u)
		}
		return v * (1 - u)
	})
}

// Kind implements ErrorFunc.
func (*UniformMultNoise) Kind() string { return "uniform_mult_noise" }

// ScaleByFactor multiplies numeric attributes by a (possibly
// time-dependent) factor. With Factor = Const(0.125) it is the scale
// error of the D_scale pollution scenario (§3.2.1); with Factor =
// Const(100000) it is the km→cm unit error of the software-update
// scenario.
type ScaleByFactor struct {
	Factor Param
}

// Apply implements ErrorFunc.
func (e *ScaleByFactor) Apply(t *stream.Tuple, attrs []string, tau time.Time) {
	f := e.Factor(tau)
	applyNumeric(t, attrs, func(v float64) float64 { return v * f })
}

// Kind implements ErrorFunc.
func (*ScaleByFactor) Kind() string { return "scale_by_factor" }

// MissingValue replaces the targeted attribute values by NULL.
type MissingValue struct{}

// Apply implements ErrorFunc.
func (MissingValue) Apply(t *stream.Tuple, attrs []string, _ time.Time) {
	for _, a := range attrs {
		t.Set(a, stream.Null())
	}
}

// Kind implements ErrorFunc.
func (MissingValue) Kind() string { return "missing_value" }

// SetConstant overwrites the targeted attributes with a fixed value, e.g.
// BPM := 0 in the software-update scenario.
type SetConstant struct {
	Value stream.Value
}

// Apply implements ErrorFunc.
func (e SetConstant) Apply(t *stream.Tuple, attrs []string, _ time.Time) {
	for _, a := range attrs {
		t.Set(a, e.Value)
	}
}

// Kind implements ErrorFunc.
func (SetConstant) Kind() string { return "set_constant" }

// IncorrectCategory replaces a categorical (string) value with a different
// category drawn uniformly from Categories. If the current value is the
// only category, it stays unchanged.
type IncorrectCategory struct {
	Categories []string
	Rand       *rng.Stream
}

// Apply implements ErrorFunc.
func (e *IncorrectCategory) Apply(t *stream.Tuple, attrs []string, _ time.Time) {
	for _, a := range attrs {
		v, ok := t.Get(a)
		if !ok {
			continue
		}
		cur, _ := v.AsString()
		others := make([]string, 0, len(e.Categories))
		for _, c := range e.Categories {
			if c != cur {
				others = append(others, c)
			}
		}
		if len(others) == 0 {
			continue
		}
		t.Set(a, stream.Str(others[e.Rand.Intn(len(others))]))
	}
}

// Kind implements ErrorFunc.
func (*IncorrectCategory) Kind() string { return "incorrect_category" }

// RoundPrecision rounds numeric attributes to the given number of decimal
// digits — the reduced-precision error of the CaloriesBurned attribute in
// the software-update scenario.
type RoundPrecision struct {
	// Digits is in [-22, 22]; a negative count rounds to tens, hundreds, …
	Digits int
}

// pow10 holds the powers of ten a float64 represents exactly. A table
// keeps round_precision's scale off math.Pow, whose pure-Go form fuses
// multiply-adds on some architectures, so the rounding is the same bits
// on every build.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Apply implements ErrorFunc.
func (e RoundPrecision) Apply(t *stream.Tuple, attrs []string, _ time.Time) {
	if e.Digits < 0 {
		pow := pow10[-e.Digits]
		applyNumeric(t, attrs, func(v float64) float64 { return math.Round(v/pow) * pow })
		return
	}
	pow := pow10[e.Digits]
	applyNumeric(t, attrs, func(v float64) float64 {
		return math.Round(v*pow) / pow
	})
}

// Kind implements ErrorFunc.
func (RoundPrecision) Kind() string { return "round_precision" }

// Outlier replaces the value with value + spike, where the spike magnitude
// is Magnitude(τ) times the value's own scale, signed randomly — a point
// anomaly as produced by a glitching sensor.
type Outlier struct {
	Magnitude Param
	Rand      *rng.Stream
}

// Apply implements ErrorFunc.
func (e *Outlier) Apply(t *stream.Tuple, attrs []string, tau time.Time) {
	m := e.Magnitude(tau)
	neg := e.Rand.Bool()
	applyNumeric(t, attrs, func(v float64) float64 {
		spike := float64(m * math.Max(math.Abs(v), 1))
		if neg {
			return v - spike
		}
		return v + spike
	})
}

// Kind implements ErrorFunc.
func (*Outlier) Kind() string { return "outlier" }

// StringTypo corrupts string attributes with a random edit: transposing
// two adjacent characters, dropping a character, or duplicating one.
type StringTypo struct {
	Rand *rng.Stream
}

// Apply implements ErrorFunc.
func (e *StringTypo) Apply(t *stream.Tuple, attrs []string, _ time.Time) {
	for _, a := range attrs {
		v, ok := t.Get(a)
		if !ok {
			continue
		}
		s, isStr := v.AsString()
		if !isStr || len(s) == 0 {
			continue
		}
		b := []byte(s)
		switch e.Rand.Intn(3) {
		case 0: // transpose
			if len(b) >= 2 {
				i := e.Rand.Intn(len(b) - 1)
				b[i], b[i+1] = b[i+1], b[i]
			}
		case 1: // drop
			i := e.Rand.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		default: // duplicate
			i := e.Rand.Intn(len(b))
			b = append(b[:i+1], b[i:]...)
		}
		t.Set(a, stream.Str(string(b)))
	}
}

// Kind implements ErrorFunc.
func (*StringTypo) Kind() string { return "string_typo" }

// SwapAttributes exchanges the values of the first two targeted
// attributes — a classic shifted-column entry error.
type SwapAttributes struct{}

// Apply implements ErrorFunc.
func (SwapAttributes) Apply(t *stream.Tuple, attrs []string, _ time.Time) {
	if len(attrs) < 2 {
		return
	}
	i := t.Schema().Index(attrs[0])
	j := t.Schema().Index(attrs[1])
	if i < 0 || j < 0 {
		return
	}
	vi, vj := t.At(i), t.At(j)
	t.SetAt(i, vj)
	t.SetAt(j, vi)
}

// Kind implements ErrorFunc.
func (SwapAttributes) Kind() string { return "swap_attributes" }

// Offset adds a constant (possibly time-dependent) offset to numeric
// attributes — systematic sensor bias / mis-calibration.
type Offset struct {
	Delta Param
}

// Apply implements ErrorFunc.
func (e Offset) Apply(t *stream.Tuple, attrs []string, tau time.Time) {
	d := e.Delta(tau)
	applyNumeric(t, attrs, func(v float64) float64 { return v + d })
}

// Kind implements ErrorFunc.
func (Offset) Kind() string { return "offset" }

// Clamp limits numeric attributes to [Lo, Hi] — saturation of a sensor's
// measurement range.
type Clamp struct {
	Lo, Hi float64
}

// Apply implements ErrorFunc.
func (e Clamp) Apply(t *stream.Tuple, attrs []string, _ time.Time) {
	applyNumeric(t, attrs, func(v float64) float64 {
		return math.Min(math.Max(v, e.Lo), e.Hi)
	})
}

// Kind implements ErrorFunc.
func (Clamp) Kind() string { return "clamp" }

// Chain applies several error functions in sequence as one error.
type Chain []ErrorFunc

// Apply implements ErrorFunc.
func (c Chain) Apply(t *stream.Tuple, attrs []string, tau time.Time) {
	for _, e := range c {
		e.Apply(t, attrs, tau)
	}
}

// Kind implements ErrorFunc.
func (c Chain) Kind() string {
	out := "chain("
	for i, e := range c {
		if i > 0 {
			out += ","
		}
		out += e.Kind()
	}
	return out + ")"
}
