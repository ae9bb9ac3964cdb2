package core

import (
	"math"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// This file implements the columnar kernel registry: vectorised sweeps
// over ColumnBatch column slices for the built-in conditions and error
// functions. Every kernel is draw-for-draw and byte-for-byte equivalent
// to the scalar implementation it mirrors — the differential suite in
// columnar_diff_test.go and the per-kernel tables in kernel_test.go pin
// that equivalence. A new kernel must not land without its equivalence
// row.
//
// Equivalence rests on three ordering invariants:
//
//   1. Sweeps visit selected rows in ascending row order, which is the
//      order the tuple-wise runner visits them.
//   2. Each RNG stream belongs to one component (compileColumnarPlan
//      checks this against the component walk in walk.go), and its
//      draws happen in the same per-row order as the scalar code:
//      boolean combinators narrow the selection exactly as
//      short-circuit evaluation does, and draw-ahead (rng.Stream.Fill)
//      pre-counts draws so filled words map 1:1 onto scalar calls.
//   3. Stateful-but-safe conditions (sticky, Markov, budget) fall back
//      to a per-row shim that evaluates the scalar code over the same
//      selection, so their state advances on exactly the same rows.
//
// Components whose semantics couple rows across pipeline steps (cascade
// conditions, deviation conditions fed by observers, keyed polluters,
// and unknown custom types whose RNG usage cannot be enumerated) are
// not kernelized; the plan compiler collapses the whole pipeline to
// row-wise execution instead (see columnar.go), which is trivially
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

// compileCond returns a kernel for c, or (nil, false) when c cannot be
// executed in a polluter-major sweep at all (the caller then collapses
// to row-wise execution).
func compileCond(c Condition, schema *stream.Schema) (condKernel, bool) {
	switch v := c.(type) {
	case Always:
		return func(_ *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
			return append(out, sel...)
		}, true
	case Never:
		return func(_ *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
			return out
		}, true
	case *Random:
		return compileRandom(v), true
	case Compare:
		idx := schema.Index(v.Attr)
		if idx < 0 {
			// Get misses: the scalar code never fires.
			return func(_ *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
				return out
			}, true
		}
		return func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
			for _, r := range sel {
				if v.evalValue(b.Value(int(r), idx)) {
					out = append(out, r)
				}
			}
			return out
		}, true
	case AttrPredicate:
		idx := schema.Index(v.Attr)
		if idx < 0 {
			return func(_ *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
				return out
			}, true
		}
		return func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
			for _, r := range sel {
				if v.Fn(b.Value(int(r), idx)) {
					out = append(out, r)
				}
			}
			return out
		}, true
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
		}, true
	case TimeOfDay:
		return func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
			taus := b.EventTimes()
			for _, r := range sel {
				if v.Eval(stream.Tuple{}, taus[r]) {
					out = append(out, r)
				}
			}
			return out
		}, true
	case And:
		children := make([]condKernel, len(v))
		for i, child := range v {
			k, ok := compileCond(child, schema)
			if !ok {
				return nil, false
			}
			children[i] = k
		}
		scratch := make([]stream.Selection, len(v))
		return func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
			// Child k sweeps only the survivors of children 1..k-1 —
			// exactly the short-circuit draw pattern of the scalar And.
			cur := sel
			for i, k := range children {
				scratch[i] = k(b, cur, scratch[i][:0])
				cur = scratch[i]
			}
			return append(out, cur...)
		}, true
	case Or:
		children := make([]condKernel, len(v))
		for i, child := range v {
			k, ok := compileCond(child, schema)
			if !ok {
				return nil, false
			}
			children[i] = k
		}
		var remaining, rest, hits, acc, accTmp stream.Selection
		return func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
			// Child k only sees rows no earlier child fired for — the
			// scalar Or stops at the first true child per tuple.
			remaining = append(remaining[:0], sel...)
			acc = acc[:0]
			for _, k := range children {
				hits = k(b, remaining, hits[:0])
				if len(hits) == 0 {
					continue
				}
				accTmp = mergeSorted(acc, hits, accTmp[:0])
				acc, accTmp = accTmp, acc
				rest = diffSorted(remaining, hits, rest[:0])
				remaining, rest = rest, remaining
			}
			return append(out, acc...)
		}, true
	case Not:
		inner, ok := compileCond(v.Inner, schema)
		if !ok {
			return nil, false
		}
		var hits stream.Selection
		return func(b *stream.ColumnBatch, sel, out stream.Selection) stream.Selection {
			hits = inner(b, sel, hits[:0])
			return diffSorted(sel, hits, out)
		}, true
	case *Sticky:
		// Sticky, budget and Markov conditions are stateful but
		// row-local: the shim advances their state over exactly the rows
		// the scalar runner would have shown them — provided the wrapped
		// condition is row-local too.
		if _, ok := compileCond(v.Trigger, schema); !ok {
			return nil, false
		}
		return condShim(c), true
	case *BudgetCondition:
		if _, ok := compileCond(v.Inner, schema); !ok {
			return nil, false
		}
		return condShim(c), true
	case *MarkovCondition:
		return condShim(c), true
	default:
		// Cascade and deviation conditions couple rows across pipeline
		// steps (shared log / observer state), and custom conditions
		// cannot be enumerated: only row-wise execution preserves them.
		return nil, false
	}
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

// mergeSorted appends the ascending union of two ascending disjoint
// selections to out.
func mergeSorted(a, b, out stream.Selection) stream.Selection {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// diffSorted appends sel minus hits (both ascending, hits ⊆ sel) to out.
func diffSorted(sel, hits, out stream.Selection) stream.Selection {
	j := 0
	for _, r := range sel {
		if j < len(hits) && hits[j] == r {
			j++
			continue
		}
		out = append(out, r)
	}
	return out
}

// ---------------------------------------------------------------------
// Error-function kernels.

// compileErr returns a kernel applying e to attrs, or (nil, false) when
// e is unknown and the pipeline must collapse to row-wise execution.
// Known stateful error functions without a vectorised form (FrozenValue)
// compile to the per-row shim, which is still polluter-major safe.
func compileErr(e ErrorFunc, attrs []string, schema *stream.Schema) (errKernel, bool) {
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
		}, true
	case *UniformMultNoise:
		cols := resolveNumCols(schema, attrs)
		var draws []uint64
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			bindNumCols(b, cols)
			taus := b.EventTimes()
			// Two unconditional draws per selected row (u, then the coin),
			// drawn ahead for the whole sweep.
			if cap(draws) < 2*len(sel) {
				draws = make([]uint64, 2*len(sel))
			}
			draws = draws[:2*len(sel)]
			v.Rand.Fill(draws)
			for k, r := range sel {
				lo, hi := v.Lo(taus[r]), v.Hi(taus[r])
				if hi < lo {
					lo, hi = hi, lo
				}
				u := lo + (hi-lo)*rng.ToFloat64(draws[2*k])
				up := draws[2*k+1]&1 == 1
				for i := range cols {
					c := &cols[i]
					if f, ok := c.read(r); ok {
						if up {
							c.write(r, f*(1+u))
						} else {
							c.write(r, f*(1-u))
						}
					}
				}
			}
		}, true
	case *Outlier:
		return compileOutlier(v, attrs, schema), true
	case *ScaleByFactor:
		return numericParamKernel(schema, attrs, v.Factor, func(f, p float64) float64 { return f * p }), true
	case Offset:
		return numericParamKernel(schema, attrs, v.Delta, func(f, p float64) float64 { return f + p }), true
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
		}, true
	case Clamp:
		cols := resolveNumCols(schema, attrs)
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			bindNumCols(b, cols)
			for i := range cols {
				c := &cols[i]
				for _, r := range sel {
					if f, ok := c.read(r); ok {
						c.write(r, math.Min(math.Max(f, v.Lo), v.Hi))
					}
				}
			}
		}, true
	case MissingValue:
		idxs := resolveAttrIdx(schema, attrs)
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			for _, col := range idxs {
				kinds := b.Kinds(col)
				for _, r := range sel {
					kinds[r] = stream.KindNull
				}
			}
		}, true
	case SetConstant:
		idxs := resolveAttrIdx(schema, attrs)
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			for _, col := range idxs {
				for _, r := range sel {
					b.SetValue(int(r), col, v.Value)
				}
			}
		}, true
	case *IncorrectCategory:
		idxs := resolveAttrIdx(schema, attrs)
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			for _, r := range sel {
				for _, col := range idxs {
					strs, kinds := b.Strs(col)
					cur := ""
					if kinds[r] == stream.KindString {
						cur = strs[r]
					}
					// Count the categories ≠ cur instead of materialising
					// the scalar code's `others` slice; the pick index maps
					// onto the same category order.
					others := 0
					for _, cat := range v.Categories {
						if cat != cur {
							others++
						}
					}
					if others == 0 {
						continue
					}
					pick := v.Rand.Intn(others)
					for _, cat := range v.Categories {
						if cat == cur {
							continue
						}
						if pick == 0 {
							strs[r] = cat
							kinds[r] = stream.KindString
							break
						}
						pick--
					}
				}
			}
		}, true
	case *StringTypo:
		idxs := resolveAttrIdx(schema, attrs)
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			for _, r := range sel {
				for _, col := range idxs {
					strs, kinds := b.Strs(col)
					if kinds[r] != stream.KindString || len(strs[r]) == 0 {
						continue
					}
					bs := []byte(strs[r])
					switch v.Rand.Intn(3) {
					case 0: // transpose
						if len(bs) >= 2 {
							i := v.Rand.Intn(len(bs) - 1)
							bs[i], bs[i+1] = bs[i+1], bs[i]
						}
					case 1: // drop
						i := v.Rand.Intn(len(bs))
						bs = append(bs[:i], bs[i+1:]...)
					default: // duplicate
						i := v.Rand.Intn(len(bs))
						bs = append(bs[:i+1], bs[i:]...)
					}
					strs[r] = string(bs)
				}
			}
		}, true
	case SwapAttributes:
		if len(attrs) < 2 {
			return func(*stream.ColumnBatch, stream.Selection) {}, true
		}
		i, j := schema.Index(attrs[0]), schema.Index(attrs[1])
		if i < 0 || j < 0 {
			return func(*stream.ColumnBatch, stream.Selection) {}, true
		}
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			for _, r := range sel {
				vi, vj := b.Value(int(r), i), b.Value(int(r), j)
				b.SetValue(int(r), i, vj)
				b.SetValue(int(r), j, vi)
			}
		}, true
	case DelayTuple:
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			arrivals := b.Arrivals()
			for _, r := range sel {
				arrivals[r] = arrivals[r].Add(v.Delay)
			}
		}, true
	case DropTuple:
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			dropped := b.DroppedMask()
			for _, r := range sel {
				dropped[r] = true
			}
		}, true
	case TimestampShift:
		tsIdx := schema.TimestampIndex()
		toInt := schema.Field(tsIdx).Kind == stream.KindInt
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			times, kinds := b.Times(tsIdx)
			ints, _ := b.Ints(tsIdx)
			for _, r := range sel {
				var ts time.Time
				switch kinds[r] {
				case stream.KindTime:
					ts = times[r]
				case stream.KindInt:
					ts = time.Unix(ints[r], 0).UTC()
				default:
					continue
				}
				ts = ts.Add(v.Offset)
				if toInt {
					ints[r] = ts.Unix()
					kinds[r] = stream.KindInt
				} else {
					times[r] = ts
					kinds[r] = stream.KindTime
				}
			}
		}, true
	case HoldAndRelease:
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			arrivals := b.Arrivals()
			for _, r := range sel {
				if arrivals[r].Before(v.ReleaseAt) {
					arrivals[r] = v.ReleaseAt
				}
			}
		}, true
	case *FrozenValue:
		// Stateful but row-local: the shim replays the scalar code over
		// the selected rows in ascending order, which is exactly the
		// order its per-attribute state advances tuple-wise.
		return errShim(v, attrs), true
	case Chain:
		kernels := make([]errKernel, len(v))
		for i, sub := range v {
			k, ok := compileErr(sub, attrs, schema)
			if !ok {
				return nil, false
			}
			kernels[i] = k
		}
		return func(b *stream.ColumnBatch, sel stream.Selection) {
			for _, k := range kernels {
				k(b, sel)
			}
		}, true
	default:
		return nil, false
	}
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

// resolveAttrIdx maps attrs onto schema columns, skipping unknown names
// (matching the silent-miss semantics of Tuple.Get/Set).
func resolveAttrIdx(schema *stream.Schema, attrs []string) []int {
	idxs := make([]int, 0, len(attrs))
	for _, a := range attrs {
		if i := schema.Index(a); i >= 0 {
			idxs = append(idxs, i)
		}
	}
	return idxs
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

// Outlier compiles here (kept with the other draw-ahead kernels for
// readability of the registry switch above).
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
					spike := m * math.Max(math.Abs(f), 1)
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
