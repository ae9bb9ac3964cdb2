package core

import (
	"math"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// This file implements the columnar kernel registry. Eight components
// have a vectorised sweep over ColumnBatch column slices — the random,
// compare and time_interval conditions and the gaussian_noise,
// scale_by_factor, offset, round_precision and outlier error functions,
// the families file_columnar measures. A kernel is a second copy of its
// component's Eval/Apply and must stay byte-identical to it, so one
// lands only together with a benchmark workload that shows it pays; the
// per-kernel tables in kernel_test.go and the differential suite in
// columnar_diff_test.go pin the equivalence.
//
// Equivalence rests on three ordering invariants:
//
//   1. Sweeps visit selected rows in ascending row order, which is the
//      order the tuple-wise runner visits them.
//   2. Each RNG stream belongs to one component (compileColumnarPlan
//      checks this against the component walk in walk.go), and its
//      draws happen in the same per-row order as the scalar code:
//      draw-ahead (rng.Stream.Fill) pre-counts draws so filled words map
//      1:1 onto scalar calls.
//   3. Every other row-local built-in — the boolean combinators, the
//      stateful sticky, Markov, budget and frozen-value components, and
//      every condition or error function without a kernel — runs through
//      a per-row shim that evaluates its own scalar code over the same
//      selection, so its draws and state advance on exactly the same
//      rows.
//
// Components whose entry in the component table (component.go) is not
// row-local are not compiled at all; the plan compiler collapses the
// whole pipeline to row-wise execution instead, which is trivially
// equivalent.

// condKernel narrows sel to the rows where the condition holds,
// appending them (ascending) to out and returning it.
type condKernel func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection

// errKernel applies an error function to the selected rows of b.
type errKernel func(b *stream.ColumnBatch, sel stream.Selection)

// numCol is the per-attribute accessor of applyNumeric's columnar
// form: dense float/int payloads plus kind tags, with the write-back
// convention of the scalar code (schema-int columns round to Int,
// everything else becomes Float).
type numCol struct {
	col    int
	toInt  bool
	floats []float64
	ints   []int64
	kinds  []stream.Kind
}

// resolveNumCols maps attrs onto schema columns, silently skipping
// unknown names exactly like applyNumeric.
func resolveNumCols(schema *stream.Schema, attrs []string) []numCol {
	cols := make([]numCol, 0, len(attrs))
	for _, a := range attrs {
		i := schema.Index(a)
		if i < 0 {
			continue
		}
		cols = append(cols, numCol{col: i, toInt: schema.Field(i).Kind == stream.KindInt})
	}
	return cols
}

func bindNumCols(b *stream.ColumnBatch, cols []numCol) {
	for i := range cols {
		c := &cols[i]
		c.floats, _ = b.Floats(c.col)
		c.ints, _ = b.Ints(c.col)
		c.kinds = b.Kinds(c.col)
	}
}

// read mirrors Value.AsFloat over the column arrays: floats read
// directly, ints widen, everything else (NULL included) is skipped.
func (c *numCol) read(r int32) (float64, bool) {
	switch c.kinds[r] {
	case stream.KindFloat:
		return c.floats[r], true
	case stream.KindInt:
		return float64(c.ints[r]), true
	}
	return 0, false
}

// write mirrors applyNumeric's output convention.
func (c *numCol) write(r int32, out float64) {
	if c.toInt {
		c.ints[r] = int64(math.Round(out))
		c.kinds[r] = stream.KindInt
		return
	}
	c.floats[r] = out
	c.kinds[r] = stream.KindFloat
}

// ---------------------------------------------------------------------
// Condition kernels.

// compileCond returns the kernel for c: a vectorised sweep for the
// conditions file_columnar measures, the per-row shim for every other
// row-local condition. The caller's walk has checked that c is row-local.
func compileCond(c Condition, schema *stream.Schema) condKernel {
	switch v := c.(type) {
	case *Random:
		return compileRandom(v)
	case Compare:
		// An unknown attribute falls through to the shim, whose Get misses.
		if idx := schema.Index(v.Attr); idx >= 0 {
			return func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
				for _, r := range sel {
					if v.evalValue(b.Value(int(r), idx)) {
						out = append(out, r)
					}
				}
				return out
			}
		}
	case TimeInterval:
		return func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
			taus := b.EventTimes()
			for _, r := range sel {
				// Eval ignores the tuple; calling it keeps semantics shared.
				if v.Eval(stream.Tuple{}, taus[r]) {
					out = append(out, r)
				}
			}
			return out
		}
	}
	return condShim(c)
}

// compileRandom is the draw-ahead Bernoulli kernel: pass 1 evaluates
// the probability per row and counts the draws the scalar Bernoulli
// would consume (p ≤ 0 and p ≥ 1 draw nothing), one Fill covers the
// whole sweep, pass 2 compares.
func compileRandom(c *Random) condKernel {
	var ps []float64
	var draws []uint64
	return func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
		taus := b.EventTimes()
		if cap(ps) < len(sel) {
			ps = make([]float64, len(sel))
			draws = make([]uint64, len(sel))
		}
		ps = ps[:len(sel)]
		need := 0
		for k, r := range sel {
			p := c.P(taus[r])
			ps[k] = p
			if p > 0 && p < 1 {
				need++
			}
		}
		draws = draws[:need]
		c.Rand.Fill(draws)
		d := 0
		for k, r := range sel {
			p := ps[k]
			fire := false
			switch {
			case p <= 0:
			case p >= 1:
				fire = true
			default:
				fire = rng.ToFloat64(draws[d]) < p
				d++
			}
			if fire {
				out = append(out, r)
			}
		}
		return out
	}
}

// condShim evaluates a condition per row over a materialised tuple view
// — the generic fallback for conditions without a vectorised kernel.
func condShim(c Condition) condKernel {
	var buf []stream.Value
	return func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
		taus := b.EventTimes()
		for _, r := range sel {
			t := b.RowInto(buf, int(r))
			buf = t.Values()
			if c.Eval(t, taus[r]) {
				out = append(out, r)
			}
		}
		return out
	}
}

// ---------------------------------------------------------------------
// Error-function kernels.

// compileErr returns the kernel applying e to attrs: a vectorised sweep
// for the error functions file_columnar measures, the per-row shim for
// every other row-local error function. The caller's walk has checked
// that e is row-local.
func compileErr(e ErrorFunc, attrs []string, schema *stream.Schema) errKernel {
	switch v := e.(type) {
	case *GaussianNoise:
		cols := resolveNumCols(schema, attrs)
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			bindNumCols(b, cols)
			taus := b.EventTimes()
			for _, r := range sel {
				sd := v.Stddev(taus[r])
				for i := range cols {
					c := &cols[i]
					if f, ok := c.read(r); ok {
						c.write(r, f+v.Rand.Normal(0, sd))
					}
				}
			}
		}
	case *Outlier:
		return compileOutlier(v, attrs, schema)
	case *ScaleByFactor:
		return numericParamKernel(schema, attrs, v.Factor, func(f, p float64) float64 { return f * p })
	case Offset:
		return numericParamKernel(schema, attrs, v.Delta, func(f, p float64) float64 { return f + p })
	case RoundPrecision:
		pow := math.Pow(10, float64(v.Digits))
		cols := resolveNumCols(schema, attrs)
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			bindNumCols(b, cols)
			for i := range cols {
				c := &cols[i]
				for _, r := range sel {
					if f, ok := c.read(r); ok {
						c.write(r, math.Round(f*pow)/pow)
					}
				}
			}
		}
	}
	return errShim(e, attrs)
}

// numericParamKernel is the shared shape of the draw-free numeric error
// functions: one Param evaluation per selected row (exactly as the
// scalar Apply evaluates it once per tuple), then a column-major sweep.
func numericParamKernel(schema *stream.Schema, attrs []string, param Param, apply func(v, p float64) float64) errKernel {
	cols := resolveNumCols(schema, attrs)
	var ps []float64
	return func(b *stream.ColumnBatch, sel stream.Selection) {
		bindNumCols(b, cols)
		taus := b.EventTimes()
		if cap(ps) < len(sel) {
			ps = make([]float64, len(sel))
		}
		ps = ps[:len(sel)]
		for k, r := range sel {
			ps[k] = param(taus[r])
		}
		for i := range cols {
			c := &cols[i]
			for k, r := range sel {
				if f, ok := c.read(r); ok {
					c.write(r, apply(f, ps[k]))
				}
			}
		}
	}
}

// errShim applies an error function per row through a materialised
// tuple view, folding mutations back into the batch — the generic
// bridge for error functions without a vectorised kernel.
func errShim(e ErrorFunc, attrs []string) errKernel {
	var buf []stream.Value
	return func(b *stream.ColumnBatch, sel stream.Selection) {
		taus := b.EventTimes()
		for _, r := range sel {
			t := b.RowInto(buf, int(r))
			buf = t.Values()
			e.Apply(&t, attrs, taus[r])
			b.SetRow(int(r), t)
		}
	}
}

// compileOutlier is the draw-ahead outlier kernel: one unconditional
// coin per selected row, filled for the whole sweep.
func compileOutlier(v *Outlier, attrs []string, schema *stream.Schema) errKernel {
	cols := resolveNumCols(schema, attrs)
	var draws []uint64
	return func(b *stream.ColumnBatch, sel stream.Selection) {
		bindNumCols(b, cols)
		taus := b.EventTimes()
		// One unconditional coin per selected row, drawn ahead.
		if cap(draws) < len(sel) {
			draws = make([]uint64, len(sel))
		}
		draws = draws[:len(sel)]
		v.Rand.Fill(draws)
		for k, r := range sel {
			m := v.Magnitude(taus[r])
			neg := draws[k]&1 == 1
			for i := range cols {
				c := &cols[i]
				if f, ok := c.read(r); ok {
					spike := float64(m * math.Max(math.Abs(f), 1))
					if neg {
						c.write(r, f-spike)
					} else {
						c.write(r, f+spike)
					}
				}
			}
		}
	}
}
