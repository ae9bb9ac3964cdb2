// Incremental evaluation core: the stream-first counterpart of the batch
// Check path. Where Check re-scans a window's tuples from scratch, an
// Incremental folds tuples in one at a time with O(1)-amortised state —
// a running (sum, count) for the mean, a seen-set keyed on (kind, value)
// for uniqueness, a carried previous value for monotonicity — and
// snapshots a Result at window close. Incrementals are also *mergeable*:
// a sliding window of width k·slide is evaluated by merging k per-pane
// partials instead of re-scanning the full window for every slide, the
// pane pattern Stream DaQ and Bleach use for stream-native DQ state.
//
// Equivalence contract: folding a window's tuples through a fresh
// Incremental and snapshotting yields exactly the Result of the batch
// Check over the same tuples — same Evaluated, Unexpected,
// UnexpectedIDs, Observed, Success. This is pinned by the differential
// property test in incremental_test.go. The one deliberate divergence is
// Reset(): it clears per-window counts but *carries* cross-window state
// (the monotonicity chain's previous value), which is how the streaming
// monitor sees violations whose two tuples straddle a window boundary —
// invisible by construction to per-window batch re-validation.
package dq

import (
	"fmt"
	"sort"

	"icewafl/internal/stream"
)

// Incremental is per-tuple window state for one expectation.
//
// Observe folds one tuple in; Snapshot renders the state accumulated
// since the last Reset as a Result (without disturbing the state); Merge
// folds another partial of the same expectation in, as if other's tuples
// had been observed after the receiver's; Reset starts the next window,
// clearing per-window counts while carrying cross-window chain state.
type Incremental interface {
	// Name identifies the expectation this state evaluates.
	Name() string
	// Observe folds one tuple into the window state.
	Observe(t stream.Tuple)
	// Snapshot renders the accumulated state as a batch-equivalent
	// Result. It does not modify the state.
	Snapshot() Result
	// Merge appends another partial of the same expectation. The
	// receiver afterwards reflects the concatenation receiver ++ other.
	// Order-sensitive expectations (monotonicity) require the other
	// partial to have merge recording enabled via EnableMergeRecording.
	Merge(other Incremental) error
	// Reset clears per-window state for the next window. Cross-window
	// carry state (the monotonicity chain) survives deliberately.
	Reset()
}

// mergeRecorder is implemented by incrementals that must record their
// observed values to support Merge (order-sensitive state). Pane
// partials destined for merging enable it before observing.
type mergeRecorder interface {
	enableMergeRecording()
}

// EnableMergeRecording prepares inc for use as a mergeable pane partial.
// It is required only for order-sensitive expectations (BeIncreasing,
// including filtered forms); for everything else it is a no-op. Call it
// before the first Observe.
func EnableMergeRecording(inc Incremental) {
	if r, ok := inc.(mergeRecorder); ok {
		r.enableMergeRecording()
	}
}

// IncrementalOf builds the incremental form of e. Every expectation
// shipped by this package has one; free-form Filtered closures and
// declarative Where conditions wrap their inner expectation's state
// behind the row filter.
func IncrementalOf(e Expectation) (Incremental, error) {
	switch x := e.(type) {
	case NotBeNull:
		return newRowInc(x.Name(), x.eval), nil
	case BeBetween:
		return newRowInc(x.Name(), x.eval), nil
	case PairAGreaterThanB:
		return newRowInc(x.Name(), x.eval), nil
	case MatchRegex:
		return newRowInc(x.Name(), x.eval), nil
	case MulticolumnSumToEqual:
		return newRowInc(x.Name(), x.eval), nil
	case BeInSet:
		return newRowInc(x.Name(), x.eval), nil
	case BeOfType:
		return newRowInc(x.Name(), x.eval), nil
	case BeUnique:
		return &uniqueInc{name: x.Name(), column: x.Column, firsts: make(map[uniqueKey]posID)}, nil
	case BeIncreasing:
		return &chainInc{name: x.Name(), column: x.Column, strictly: x.Strictly}, nil
	case MeanToBeBetween:
		return &meanInc{name: x.Name(), column: x.Column, min: x.Min, max: x.Max}, nil
	case Filtered:
		inner, err := IncrementalOf(x.Inner)
		if err != nil {
			return nil, err
		}
		return &filteredInc{name: x.Name(), where: x.Where, inner: inner}, nil
	case Where:
		inner, err := IncrementalOf(x.Inner)
		if err != nil {
			return nil, err
		}
		return &filteredInc{name: x.Name(), where: x.Cond.Match, inner: inner}, nil
	}
	return nil, fmt.Errorf("dq: expectation %q has no incremental form", e.Name())
}

// Incrementals builds one incremental evaluator per suite expectation,
// in suite order.
func (s *Suite) Incrementals() ([]Incremental, error) {
	out := make([]Incremental, len(s.Expectations))
	for i, e := range s.Expectations {
		inc, err := IncrementalOf(e)
		if err != nil {
			return nil, err
		}
		out[i] = inc
	}
	return out, nil
}

// mergeMismatch is the shared type/name guard for Merge implementations.
func mergeMismatch(want, got Incremental) error {
	return fmt.Errorf("dq: cannot merge %q into %q: mismatched incremental state", got.Name(), want.Name())
}

// rowInc is the incremental form of every stateless row-wise
// expectation: the same eval predicate the batch rowCheck folds over,
// with running counts. Merge is pure concatenation — per-row verdicts
// do not depend on other rows.
type rowInc struct {
	name      string
	fn        func(stream.Tuple) (bool, bool)
	evaluated int
	ids       []uint64
}

func newRowInc(name string, fn func(stream.Tuple) (bool, bool)) *rowInc {
	return &rowInc{name: name, fn: fn}
}

// Name implements Incremental.
func (r *rowInc) Name() string { return r.name }

// Observe implements Incremental.
func (r *rowInc) Observe(t stream.Tuple) {
	evaluated, unexpected := r.fn(t)
	if !evaluated {
		return
	}
	r.evaluated++
	if unexpected {
		r.ids = append(r.ids, t.ID)
	}
}

// Snapshot implements Incremental.
func (r *rowInc) Snapshot() Result {
	return Result{
		Expectation:   r.name,
		Evaluated:     r.evaluated,
		Unexpected:    len(r.ids),
		UnexpectedIDs: append([]uint64(nil), r.ids...),
		Success:       len(r.ids) == 0,
	}
}

// Merge implements Incremental.
func (r *rowInc) Merge(other Incremental) error {
	o, ok := other.(*rowInc)
	if !ok || o.name != r.name {
		return mergeMismatch(r, other)
	}
	r.evaluated += o.evaluated
	r.ids = append(r.ids, o.ids...)
	return nil
}

// Reset implements Incremental.
func (r *rowInc) Reset() {
	r.evaluated = 0
	r.ids = nil
}

// posID records where in the partial's evaluated sequence a tuple sat,
// so merged duplicate lists interleave in true stream order.
type posID struct {
	pos int
	id  uint64
}

// uniqueInc is the incremental BeUnique: a seen-set keyed on
// (kind, canonical string) mapping each first occurrence to its
// position, plus the duplicate list. O(1) amortised per tuple; Merge is
// O(|other|) set-union with position-ordered interleaving of the
// duplicates the union exposes.
type uniqueInc struct {
	name      string
	column    string
	evaluated int
	firsts    map[uniqueKey]posID
	dups      []posID
}

// Name implements Incremental.
func (u *uniqueInc) Name() string { return u.name }

// Observe implements Incremental.
func (u *uniqueInc) Observe(t stream.Tuple) {
	v, ok := t.Get(u.column)
	if !ok || v.IsNull() {
		return
	}
	pos := u.evaluated
	u.evaluated++
	key := keyOf(v)
	if _, dup := u.firsts[key]; dup {
		u.dups = append(u.dups, posID{pos: pos, id: t.ID})
		return
	}
	u.firsts[key] = posID{pos: pos, id: t.ID}
}

// Snapshot implements Incremental.
func (u *uniqueInc) Snapshot() Result {
	res := Result{Expectation: u.name, Evaluated: u.evaluated, Unexpected: len(u.dups)}
	for _, d := range u.dups {
		res.UnexpectedIDs = append(res.UnexpectedIDs, d.id)
	}
	res.Success = res.Unexpected == 0
	return res
}

// Merge implements Incremental. A value that is a first occurrence in
// both partials is a duplicate in the concatenation: other's "first"
// demotes to a duplicate, interleaved with other's own duplicates in
// stream order.
func (u *uniqueInc) Merge(other Incremental) error {
	o, ok := other.(*uniqueInc)
	if !ok || o.name != u.name {
		return mergeMismatch(u, other)
	}
	off := u.evaluated
	demoted := make([]posID, 0, len(o.dups))
	for key, first := range o.firsts {
		if _, exists := u.firsts[key]; exists {
			demoted = append(demoted, posID{pos: first.pos + off, id: first.id})
			continue
		}
		u.firsts[key] = posID{pos: first.pos + off, id: first.id}
	}
	for _, d := range o.dups {
		demoted = append(demoted, posID{pos: d.pos + off, id: d.id})
	}
	sort.Slice(demoted, func(i, j int) bool { return demoted[i].pos < demoted[j].pos })
	u.dups = append(u.dups, demoted...)
	u.evaluated += o.evaluated
	return nil
}

// Reset implements Incremental.
func (u *uniqueInc) Reset() {
	u.evaluated = 0
	u.dups = nil
	u.firsts = make(map[uniqueKey]posID)
}

// obsVal is one recorded observation for order-sensitive merging.
type obsVal struct {
	id uint64
	v  stream.Value
}

// chainInc is the incremental BeIncreasing: the chainState batch Check
// folds over, carried across Reset so a decrease straddling a window
// boundary flags its tuple in the window that receives it. Monotonicity
// verdicts depend on evaluation order, so Merge replays the other
// partial's recorded observations through the receiver's chain — exact,
// O(|other|), and only available when the pane enabled merge recording.
type chainInc struct {
	name      string
	column    string
	strictly  bool
	st        chainState
	evaluated int
	ids       []uint64
	recording bool
	seen      []obsVal
}

// Name implements Incremental.
func (c *chainInc) Name() string { return c.name }

// enableMergeRecording implements mergeRecorder.
func (c *chainInc) enableMergeRecording() { c.recording = true }

// Observe implements Incremental.
func (c *chainInc) Observe(t stream.Tuple) {
	v, ok := t.Get(c.column)
	if !ok || v.IsNull() {
		return
	}
	c.evaluated++
	if c.recording {
		c.seen = append(c.seen, obsVal{id: t.ID, v: v})
	}
	if c.st.step(v, c.strictly) {
		c.ids = append(c.ids, t.ID)
	}
}

// Snapshot implements Incremental.
func (c *chainInc) Snapshot() Result {
	return Result{
		Expectation:   c.name,
		Evaluated:     c.evaluated,
		Unexpected:    len(c.ids),
		UnexpectedIDs: append([]uint64(nil), c.ids...),
		Success:       len(c.ids) == 0,
	}
}

// Merge implements Incremental.
func (c *chainInc) Merge(other Incremental) error {
	o, ok := other.(*chainInc)
	if !ok || o.name != c.name || o.strictly != c.strictly {
		return mergeMismatch(c, other)
	}
	if o.evaluated > 0 && !o.recording {
		return fmt.Errorf("dq: merging %q requires merge recording on the source partial", c.name)
	}
	for _, ov := range o.seen {
		c.evaluated++
		if c.recording {
			c.seen = append(c.seen, ov)
		}
		if c.st.step(ov.v, c.strictly) {
			c.ids = append(c.ids, ov.id)
		}
	}
	return nil
}

// Reset implements Incremental. The chain survives: carrying prev across
// window boundaries is the whole point of the streaming engine.
func (c *chainInc) Reset() {
	c.evaluated = 0
	c.ids = nil
	c.seen = c.seen[:0]
}

// meanInc is the incremental MeanToBeBetween: the same running meanState
// the batch Check folds, merged by field-wise addition.
type meanInc struct {
	name     string
	column   string
	min, max float64
	st       meanState
}

// Name implements Incremental.
func (m *meanInc) Name() string { return m.name }

// Observe implements Incremental.
func (m *meanInc) Observe(t stream.Tuple) { m.st.observe(t, m.column) }

// Snapshot implements Incremental.
func (m *meanInc) Snapshot() Result { return m.st.result(m.name, m.min, m.max) }

// Merge implements Incremental.
func (m *meanInc) Merge(other Incremental) error {
	o, ok := other.(*meanInc)
	if !ok || o.name != m.name {
		return mergeMismatch(m, other)
	}
	m.st.evaluated += o.st.evaluated
	m.st.finite += o.st.finite
	m.st.sum += o.st.sum
	m.st.badIDs = append(m.st.badIDs, o.st.badIDs...)
	return nil
}

// Reset implements Incremental.
func (m *meanInc) Reset() { m.st = meanState{} }

// filteredInc gates an inner incremental behind a row predicate — the
// incremental form of Filtered and Where.
type filteredInc struct {
	name  string
	where func(stream.Tuple) bool
	inner Incremental
}

// Name implements Incremental.
func (f *filteredInc) Name() string { return f.name }

// enableMergeRecording implements mergeRecorder by forwarding.
func (f *filteredInc) enableMergeRecording() { EnableMergeRecording(f.inner) }

// Observe implements Incremental.
func (f *filteredInc) Observe(t stream.Tuple) {
	if !f.where(t) {
		return
	}
	f.inner.Observe(t)
}

// Snapshot implements Incremental.
func (f *filteredInc) Snapshot() Result {
	res := f.inner.Snapshot()
	res.Expectation = f.name
	return res
}

// Merge implements Incremental.
func (f *filteredInc) Merge(other Incremental) error {
	o, ok := other.(*filteredInc)
	if !ok || o.name != f.name {
		return mergeMismatch(f, other)
	}
	return f.inner.Merge(o.inner)
}

// Reset implements Incremental.
func (f *filteredInc) Reset() { f.inner.Reset() }
