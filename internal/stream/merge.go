package stream

import (
	"cmp"
	"io"
	"slices"
	"sort"
)

// SortMerge implements step 3 of Algorithm 1 for bounded streams: it takes
// the union of the m polluted sub-streams, stamps each tuple with its
// sub-stream identifier, and sorts the union by delivery time (arrival),
// breaking ties by event time and then tuple ID for determinism. The
// result is the polluted output stream D^p.
func SortMerge(subs []Source) ([]Tuple, error) {
	var all []Tuple
	for i, src := range subs {
		for {
			t, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			t.SubStream = int32(i)
			all = append(all, t)
		}
	}
	SortByArrival(all)
	return all, nil
}

// SortByArrival sorts tuples by arrival, then event time, then ID, then
// sub-stream. No two tuples of one run share all four keys, so the result
// does not depend on the input order: the copies of one tuple in
// overlapping sub-streams come out in sub-stream order however they were
// merged.
func SortByArrival(ts []Tuple) {
	slices.SortStableFunc(ts, func(a, b Tuple) int { return arrivalOrder(&a, &b) })
}

// arrivalOrder is SortByArrival's order, shared by KWayMerge and BoundedReorder.
func arrivalOrder(a, b *Tuple) int {
	if c := a.Arrival.Compare(b.Arrival); c != 0 {
		return c
	}
	if c := a.EventTime.Compare(b.EventTime); c != 0 {
		return c
	}
	return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.SubStream, b.SubStream))
}

// KWayMerge merges m sub-streams that are individually sorted by arrival
// into one sorted stream without materialising everything first. It is
// the streaming-friendly alternative to SortMerge benchmarked in the
// ablation study; it is only correct when every input is arrival-sorted
// (e.g. when no delay error reorders within a sub-stream, or after a
// bounded-lateness buffer).
type KWayMerge struct {
	subs  []Source
	heads []Tuple
	live  []bool
	open  int
}

// NewKWayMerge prepares a merger over subs.
func NewKWayMerge(subs []Source) (*KWayMerge, error) {
	m := &KWayMerge{
		subs:  subs,
		heads: make([]Tuple, len(subs)),
		live:  make([]bool, len(subs)),
	}
	for i := range subs {
		if err := m.advance(i); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *KWayMerge) advance(i int) error {
	t, err := m.subs[i].Next()
	if err == io.EOF {
		if m.live[i] {
			m.live[i] = false
			m.open--
		}
		return nil
	}
	if err != nil {
		return err
	}
	t.SubStream = int32(i)
	if !m.live[i] {
		m.live[i] = true
		m.open++
	}
	m.heads[i] = t
	return nil
}

// Schema implements Source.
func (m *KWayMerge) Schema() *Schema { return m.subs[0].Schema() }

// Next implements Source, emitting the globally earliest head.
func (m *KWayMerge) Next() (Tuple, error) {
	if m.open == 0 {
		return Tuple{}, io.EOF
	}
	best := -1
	for i := range m.heads {
		if !m.live[i] {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		if arrivalOrder(&m.heads[i], &m.heads[best]) < 0 {
			best = i
		}
	}
	out := m.heads[best]
	if err := m.advance(best); err != nil {
		return Tuple{}, err
	}
	return out, nil
}

// BoundedReorder re-sorts a nearly sorted stream using a buffer of the
// given capacity, the streaming analogue of allowed lateness: a tuple may
// be displaced at most capacity-1 positions from its sorted location.
// This lets delayed-tuple pollution flow through unbounded pipelines.
//
// The window is buf[head:], sorted by arrivalOrder. buf's backing array
// holds 2×capacity tuples and is allocated once: popping advances head
// and zeroes the slot, and an insert into a full array first slides the
// window back to the front.
type BoundedReorder struct {
	src  Source
	buf  []Tuple
	head int
	cap  int
	eof  bool
}

// NewBoundedReorder wraps src with a reordering window of capacity tuples.
func NewBoundedReorder(src Source, capacity int) *BoundedReorder {
	if capacity < 1 {
		capacity = 1
	}
	return &BoundedReorder{src: src, buf: make([]Tuple, 0, 2*capacity), cap: capacity}
}

// Schema implements Source.
func (r *BoundedReorder) Schema() *Schema { return r.src.Schema() }

// Next implements Source.
func (r *BoundedReorder) Next() (Tuple, error) {
	for !r.eof && len(r.buf)-r.head < r.cap {
		t, err := r.src.Next()
		if err == io.EOF {
			r.eof = true
			break
		}
		if err != nil {
			return Tuple{}, err
		}
		r.insert(t)
	}
	if r.head == len(r.buf) {
		return Tuple{}, io.EOF
	}
	out := r.buf[r.head]
	r.buf[r.head] = Tuple{}
	r.head++
	return out, nil
}

func (r *BoundedReorder) insert(t Tuple) {
	if len(r.buf) == cap(r.buf) {
		n := copy(r.buf, r.buf[r.head:])
		clear(r.buf[n:])
		r.buf, r.head = r.buf[:n], 0
	}
	win := r.buf[r.head:]
	i := r.head + sort.Search(len(win), func(i int) bool { return arrivalOrder(&win[i], &t) > 0 })
	r.buf = append(r.buf, Tuple{})
	copy(r.buf[i+1:], r.buf[i:])
	r.buf[i] = t
}
