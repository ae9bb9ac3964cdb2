package stream

import (
	"io"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// reslicingReorder is the reference model: BoundedReorder as a buffer
// that pops with buf = buf[1:] and grows by append.
type reslicingReorder struct {
	src Source
	buf []Tuple
	cap int
	eof bool
}

func (r *reslicingReorder) Schema() *Schema { return r.src.Schema() }

func (r *reslicingReorder) Next() (Tuple, error) {
	for !r.eof && len(r.buf) < r.cap {
		t, err := r.src.Next()
		if err == io.EOF {
			r.eof = true
			break
		}
		if err != nil {
			return Tuple{}, err
		}
		i := sort.Search(len(r.buf), func(i int) bool {
			b := r.buf[i]
			if !b.Arrival.Equal(t.Arrival) {
				return b.Arrival.After(t.Arrival)
			}
			return b.ID > t.ID
		})
		r.buf = append(r.buf, Tuple{})
		copy(r.buf[i+1:], r.buf[i:])
		r.buf[i] = t
	}
	if len(r.buf) == 0 {
		return Tuple{}, io.EOF
	}
	out := r.buf[0]
	r.buf = r.buf[1:]
	return out, nil
}

// delayedTuples returns n tuples in ID order whose arrivals are their
// event times plus a random delay of up to maxDelay steps, so arrivals
// tie and overtake each other.
func delayedTuples(s *Schema, n, maxDelay int, rnd *rand.Rand) []Tuple {
	ts := makeTuples(s, n)
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range ts {
		ts[i].ID = uint64(i)
		ts[i].Arrival = base.Add(time.Duration(i+rnd.Intn(maxDelay+1)) * time.Second)
	}
	return ts
}

func TestBoundedReorderOrder(t *testing.T) {
	s := testSchema(t)
	rnd := rand.New(rand.NewSource(7))
	for _, capacity := range []int{1, 2, 64} {
		for _, maxDelay := range []int{0, 3, 100} {
			in := delayedTuples(s, 1000, maxDelay, rnd)
			got, err := Drain(NewBoundedReorder(NewSliceSource(s, in), capacity))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := Drain(&reslicingReorder{src: NewSliceSource(s, in), cap: capacity})
			if len(got) != len(want) {
				t.Fatalf("cap %d delay %d: %d tuples, want %d", capacity, maxDelay, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Fatalf("cap %d delay %d: position %d holds tuple %d, want %d", capacity, maxDelay, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

// cycleSource replays a fixed slice forever without allocating.
type cycleSource struct {
	s  *Schema
	ts []Tuple
	i  int
}

func (c *cycleSource) Schema() *Schema { return c.s }

func (c *cycleSource) Next() (Tuple, error) {
	t := c.ts[c.i%len(c.ts)]
	c.i++
	return t, nil
}

func TestBoundedReorderAllocFree(t *testing.T) {
	s := testSchema(t)
	src := &cycleSource{s: s, ts: delayedTuples(s, 500, 50, rand.New(rand.NewSource(1)))}
	r := NewBoundedReorder(src, 64)
	// AllocsPerRun truncates its average, so each run pops enough tuples
	// to span several refills of the window.
	next := func() {
		for range 256 {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	next()
	if n := testing.AllocsPerRun(100, next); n != 0 {
		t.Fatalf("256 steady-state Nexts allocate %v times", n)
	}
}
