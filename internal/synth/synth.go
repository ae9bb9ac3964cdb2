// Package synth implements two classical time-series synthesis
// approaches and exists for the paper's fourth future-work item (§5):
// testing whether synthesis approaches are agnostic to temporal error
// types — i.e. whether a synthesizer trained on a polluted stream
// preserves its error patterns (useful for error-analysis benchmarks) or
// washes them out (useful when clean data is required).
//
//   - BlockBootstrap resamples contiguous blocks of the source stream,
//     so whatever errors the blocks contain — nulls, outliers, frozen
//     runs — survive into the synthetic stream.
//   - ARSynthesizer fits a seasonal profile plus an autoregressive model
//     and generates fresh values from it; point errors do not survive
//     because the model only captures the bulk distribution.
package synth

import (
	"fmt"
	"math"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stats"
	"icewafl/internal/stream"
)

// Synthesizer produces a synthetic stream of n tuples modelled on a
// source stream. Only the listed numeric attributes are synthesised; the
// timestamp attribute continues the source's cadence, and all other
// attributes are copied from the source tuple at the same cadence
// position.
type Synthesizer interface {
	// Name identifies the approach.
	Name() string
	// Synthesize returns n synthetic tuples derived from src.
	Synthesize(src []stream.Tuple, attrs []string, n int, seed int64) ([]stream.Tuple, error)
}

// cadence infers the (constant) inter-tuple spacing of the source.
func cadence(src []stream.Tuple) (time.Time, time.Duration, error) {
	if len(src) < 2 {
		return time.Time{}, 0, fmt.Errorf("synth: need at least 2 source tuples")
	}
	t0, ok0 := src[0].Timestamp()
	t1, ok1 := src[1].Timestamp()
	if !ok0 || !ok1 {
		return time.Time{}, 0, fmt.Errorf("synth: source tuples lack timestamps")
	}
	step := t1.Sub(t0)
	if step <= 0 {
		return time.Time{}, 0, fmt.Errorf("synth: non-increasing source timestamps")
	}
	return t0, step, nil
}

// scaffold builds the n output tuples: timestamps continue the source
// cadence from its start, non-synthesised attributes cycle through the
// source values.
func scaffold(src []stream.Tuple, n int) ([]stream.Tuple, error) {
	start, step, err := cadence(src)
	if err != nil {
		return nil, err
	}
	out := make([]stream.Tuple, n)
	for i := 0; i < n; i++ {
		c := src[i%len(src)].Clone()
		c.SetTimestamp(start.Add(time.Duration(i) * step))
		c.ID = 0
		c.Arrival = time.Time{}
		c.EventTime = time.Time{}
		out[i] = c
	}
	return out, nil
}

// BlockBootstrap synthesises by concatenating randomly chosen contiguous
// blocks of the source stream (moving-block bootstrap). Error patterns
// inside a block — including NULLs and temporal bursts shorter than the
// block — are preserved verbatim.
type BlockBootstrap struct {
	// BlockLen is the number of consecutive tuples per block
	// (default 24).
	BlockLen int
}

// Name implements Synthesizer.
func (b BlockBootstrap) Name() string { return "block_bootstrap" }

// Synthesize implements Synthesizer.
func (b BlockBootstrap) Synthesize(src []stream.Tuple, attrs []string, n int, seed int64) ([]stream.Tuple, error) {
	blockLen := b.BlockLen
	if blockLen <= 0 {
		blockLen = 24
	}
	if blockLen > len(src) {
		blockLen = len(src)
	}
	out, err := scaffold(src, n)
	if err != nil {
		return nil, err
	}
	r := rng.Derive(seed, "synth/bootstrap")
	maxStart := len(src) - blockLen
	for pos := 0; pos < n; pos += blockLen {
		start := 0
		if maxStart > 0 {
			start = r.Intn(maxStart + 1)
		}
		for j := 0; j < blockLen && pos+j < n; j++ {
			from := src[start+j]
			for _, a := range attrs {
				if v, ok := from.Get(a); ok {
					out[pos+j].Set(a, v)
				}
			}
		}
	}
	return out, nil
}

// SeasonalBlockBootstrap is a time-of-day-aligned moving-block
// bootstrap: the block copied to an output position must start at the
// same hour of day, so temporal error patterns (e.g. the §3.1.1 midnight
// error peak) survive synthesis in both rate and shape — unlike the
// plain BlockBootstrap, which relocates blocks freely and thereby
// scrambles the daily pattern.
type SeasonalBlockBootstrap struct {
	// BlockLen is the number of consecutive tuples per block
	// (default 24).
	BlockLen int
}

// Name implements Synthesizer.
func (b SeasonalBlockBootstrap) Name() string { return "seasonal_bootstrap" }

// Synthesize implements Synthesizer.
func (b SeasonalBlockBootstrap) Synthesize(src []stream.Tuple, attrs []string, n int, seed int64) ([]stream.Tuple, error) {
	blockLen := b.BlockLen
	if blockLen <= 0 {
		blockLen = 24
	}
	if blockLen > len(src) {
		blockLen = len(src)
	}
	out, err := scaffold(src, n)
	if err != nil {
		return nil, err
	}
	// Index feasible block starts by their hour of day.
	starts := make(map[int][]int)
	for i := 0; i+blockLen <= len(src); i++ {
		ts, ok := src[i].Timestamp()
		if !ok {
			continue
		}
		h := ts.Hour()
		starts[h] = append(starts[h], i)
	}
	r := rng.Derive(seed, "synth/seasonal-bootstrap")
	for pos := 0; pos < n; pos += blockLen {
		ts, _ := out[pos].Timestamp()
		candidates := starts[ts.Hour()]
		var start int
		switch {
		case len(candidates) > 0:
			start = candidates[r.Intn(len(candidates))]
		case len(src) > blockLen:
			start = r.Intn(len(src) - blockLen + 1)
		default:
			start = 0
		}
		for j := 0; j < blockLen && pos+j < n && start+j < len(src); j++ {
			from := src[start+j]
			for _, a := range attrs {
				if v, ok := from.Get(a); ok {
					out[pos+j].Set(a, v)
				}
			}
		}
	}
	return out, nil
}

// ARSynthesizer fits, per attribute, an hour-of-day seasonal profile
// plus an AR(Order) model on the deseasonalised residuals (missing
// values are skipped during fitting) and generates new values with
// Gaussian innovations. The synthetic stream is clean by construction:
// no NULLs, no replayed outliers.
type ARSynthesizer struct {
	// Order is the autoregressive order (default 2).
	Order int
}

// Name implements Synthesizer.
func (a ARSynthesizer) Name() string { return "ar_model" }

// Synthesize implements Synthesizer.
func (a ARSynthesizer) Synthesize(src []stream.Tuple, attrs []string, n int, seed int64) ([]stream.Tuple, error) {
	order := a.Order
	if order <= 0 {
		order = 2
	}
	out, err := scaffold(src, n)
	if err != nil {
		return nil, err
	}
	for _, attr := range attrs {
		model, err := fitAttr(src, attr, order)
		if err != nil {
			return nil, fmt.Errorf("synth: attribute %q: %w", attr, err)
		}
		r := rng.Derive(seed, "synth/ar/"+attr)
		state := make([]float64, order) // residual history, most recent last
		for i := range out {
			ts, _ := out[i].Timestamp()
			resid := 0.0
			for j := 0; j < order; j++ {
				resid += float64(model.phi[j] * state[order-1-j])
			}
			resid += r.Normal(0, model.sigma)
			copy(state, state[1:])
			state[order-1] = resid
			v := model.profile[ts.Hour()] + resid
			if model.nonNegative && v < 0 {
				v = 0
			}
			out[i].Set(attr, stream.Float(v))
		}
	}
	return out, nil
}

type arModel struct {
	profile     [24]float64
	phi         []float64
	sigma       float64
	nonNegative bool
}

// fitAttr estimates the seasonal profile and AR coefficients for one
// attribute of the source stream.
func fitAttr(src []stream.Tuple, attr string, order int) (*arModel, error) {
	var sums, counts [24]float64
	values := make([]float64, len(src))
	hours := make([]int, len(src))
	nonNeg := true
	seen := 0
	for i, t := range src {
		ts, ok := t.Timestamp()
		if !ok {
			return nil, fmt.Errorf("missing timestamp")
		}
		hours[i] = ts.Hour()
		v, isNum := t.GetFloat(attr)
		if !isNum {
			values[i] = math.NaN()
			continue
		}
		values[i] = v
		sums[hours[i]] += v
		counts[hours[i]]++
		if v < 0 {
			nonNeg = false
		}
		seen++
	}
	if seen < order*10 {
		return nil, fmt.Errorf("only %d numeric observations", seen)
	}
	m := &arModel{nonNegative: nonNeg}
	overall := 0.0
	nHours := 0.0
	for h := 0; h < 24; h++ {
		if counts[h] > 0 {
			m.profile[h] = sums[h] / counts[h]
			overall += m.profile[h]
			nHours++
		}
	}
	if nHours > 0 {
		overall /= nHours
	}
	for h := 0; h < 24; h++ {
		if counts[h] == 0 {
			m.profile[h] = overall
		}
	}

	// Residuals, skipping gaps around NaNs.
	resid := make([]float64, len(values))
	for i := range values {
		if math.IsNaN(values[i]) {
			resid[i] = math.NaN()
			continue
		}
		resid[i] = values[i] - m.profile[hours[i]]
	}
	var x [][]float64
	var y []float64
	for t := order; t < len(resid); t++ {
		row := make([]float64, order)
		ok := !math.IsNaN(resid[t])
		for j := 0; j < order && ok; j++ {
			if math.IsNaN(resid[t-1-j]) {
				ok = false
				break
			}
			row[j] = resid[t-1-j]
		}
		if !ok {
			continue
		}
		x = append(x, row)
		y = append(y, resid[t])
	}
	if len(y) <= order {
		return nil, fmt.Errorf("not enough contiguous observations for AR(%d)", order)
	}
	phi, err := stats.OLS(x, y)
	if err != nil {
		return nil, err
	}
	m.phi = phi
	// Innovation variance from the fitted residuals.
	var sse float64
	for i := range y {
		pred := 0.0
		for j := 0; j < order; j++ {
			pred += float64(phi[j] * x[i][j])
		}
		d := y[i] - pred
		sse += float64(d * d)
	}
	m.sigma = math.Sqrt(sse / float64(len(y)))
	return m, nil
}
