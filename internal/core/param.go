// Package core implements Icewafl's pollution model (paper §2): error
// functions, conditions, polluters, composite polluters, pollution
// pipelines, and the three-step pollution process of Algorithm 1.
//
// A polluter p = ⟨e, c, A_p⟩ applies error function e to the attributes
// A_p of a tuple t whenever condition c(t, τ) holds, where τ is the
// pollution-immune event time assigned during preparation. Temporal error
// types arise either natively (delayed tuple, frozen value, timestamp
// error) or by deriving them from static error types through time-varying
// parameters and change patterns.
package core

import (
	"math"
	"time"
)

// Param is a possibly time-dependent scalar parameter of an error function
// or condition. Passing the event time τ to parameters is how derived
// temporal error types are formed from static ones (paper §2.2, Figure 3):
// a static Gaussian-noise error with a constant stddev becomes a temporal
// error when its stddev follows, say, the hour of the day.
type Param func(tau time.Time) float64

// Const returns a parameter fixed at v; using only Const parameters makes
// an error type static.
func Const(v float64) Param {
	return func(time.Time) float64 { return v }
}

// Linear returns a parameter that ramps linearly from v0 at t0 to v1 at
// t1 and clamps outside the interval. It implements Eq. 3/Eq. 4 of the
// paper: π(τ) = π_max · hours(τ−τ0) / hours(τn−τ0) when v0 = 0.
//
// float64(a*b) + c, here and at every multiply-add of the pollution
// path, keeps arm64 and riscv64 from fusing it, so their bytes match
// amd64's (scripts/fmacheck.sh).
func Linear(t0, t1 time.Time, v0, v1 float64) Param {
	span := t1.Sub(t0).Seconds()
	return func(tau time.Time) float64 {
		if span <= 0 {
			return v1
		}
		frac := tau.Sub(t0).Seconds() / span
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return v0 + float64((v1-v0)*frac)
	}
}

// SinusoidDaily returns the paper's §3.1.1 sinusoidal daily error pattern
// p(t) = amp·cos(π/12 · h(t)) + offset, where h(t) is the (fractional)
// hour of the day of τ. With amp = offset = 0.25 the probability spans
// [0, 0.5] peaking at midnight, the exact configuration of Figure 4.
func SinusoidDaily(amp, offset float64) Param {
	return func(tau time.Time) float64 {
		h := float64(tau.Hour()) + float64(tau.Minute())/60 + float64(tau.Second())/3600
		return float64(amp*math.Cos(math.Pi/12*h)) + offset
	}
}

// HourOfDay returns a parameter that looks up one value per hour of the
// day (len(byHour) must be 24), e.g. noise magnitude per hour.
func HourOfDay(byHour [24]float64) Param {
	return func(tau time.Time) float64 { return byHour[tau.Hour()] }
}

// Pattern is a change pattern in the sense of Gama et al. (concept-drift
// survey), mapping event time to a weight in [0, 1] that scales either an
// error magnitude or an activation probability. Figure 3's "applied over
// time" box lists the three shapes implemented here.
type Pattern interface {
	// Weight returns the pattern's intensity at event time tau, in [0, 1].
	Weight(tau time.Time) float64
}

// AbruptPattern switches from 0 to 1 at a single instant — a sudden
// failure such as a sensor breaking.
type AbruptPattern struct {
	At time.Time
}

// Weight implements Pattern.
func (p AbruptPattern) Weight(tau time.Time) float64 {
	if tau.Before(p.At) {
		return 0
	}
	return 1
}

// IncrementalPattern ramps linearly from 0 at From to 1 at To — gradual
// degradation such as progressive mis-calibration.
type IncrementalPattern struct {
	From, To time.Time
}

// Weight implements Pattern.
func (p IncrementalPattern) Weight(tau time.Time) float64 {
	return Linear(p.From, p.To, 0, 1)(tau)
}

// IntermediatePattern is active only inside a window, optionally with a
// triangular rise and fall — a transient disturbance such as a passing
// cloud in the motivating scenario.
type IntermediatePattern struct {
	From, To time.Time
	// Triangular, when set, ramps 0→1→0 across the window instead of
	// holding 1 throughout.
	Triangular bool
}

// Weight implements Pattern.
func (p IntermediatePattern) Weight(tau time.Time) float64 {
	if tau.Before(p.From) || !tau.Before(p.To) {
		return 0
	}
	if !p.Triangular {
		return 1
	}
	span := p.To.Sub(p.From).Seconds()
	frac := tau.Sub(p.From).Seconds() / span
	if frac <= 0.5 {
		return 2 * frac
	}
	return 2 * (1 - frac)
}

// Scaled derives a Param from a Pattern: weight × max.
func Scaled(p Pattern, max float64) Param {
	return func(tau time.Time) float64 { return p.Weight(tau) * max }
}
