package stream

import (
	"runtime"
	"sync/atomic"
	"time"
)

// SPSC is a bounded lock-free single-producer/single-consumer queue: a
// power-of-two ring with monotonically increasing head/tail positions.
// Exactly one goroutine may push and exactly one may pop; under that
// contract every operation is wait-free in the uncontended case — one
// atomic store per push/pop, with the counterpart position cached so a
// hot producer/consumer pair touches each other's cache line only when
// the ring looks full (or empty).
//
// The queue is the shard handoff primitive of the sharded pollution
// runner: per-tuple channel send/recv used to dominate the keyed hot
// path, while a batch pointer through an SPSC ring costs a few
// nanoseconds amortised over the whole batch.
//
// Lifecycle: the producer calls Close when it will push no more; the
// consumer observes Drained (closed and empty) as end-of-stream. The
// consumer may call Abandon to tell the producer it will pop no more;
// Push then fails fast instead of blocking forever.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	_         [8]uint64     // pad out the hot fields onto distinct cache lines
	head      atomic.Uint64 // next slot to pop; written by the consumer only
	_         [7]uint64
	tail      atomic.Uint64 // next slot to push; written by the producer only
	_         [7]uint64
	headCache uint64 // producer's last observed head
	_         [7]uint64
	tailCache uint64 // consumer's last observed tail
	_         [7]uint64
	closed    atomic.Bool
	abandoned atomic.Bool
}

// NewSPSC returns an empty queue holding at least capacity elements
// (rounded up to a power of two, minimum 2).
func NewSPSC[T any](capacity int) *SPSC[T] {
	if capacity < 2 {
		capacity = 2
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &SPSC[T]{buf: make([]T, size), mask: uint64(size - 1)}
}

// Cap returns the ring capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Len returns the approximate number of queued elements; exact when
// called from either endpoint goroutine, a consistent snapshot
// otherwise (used for occupancy gauges).
func (q *SPSC[T]) Len() int {
	t := q.tail.Load()
	h := q.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}

// TryPush enqueues v and reports success; it fails when the ring is
// full or the consumer abandoned the queue. Producer goroutine only.
func (q *SPSC[T]) TryPush(v T) bool {
	if q.abandoned.Load() {
		return false
	}
	t := q.tail.Load()
	if t-q.headCache == uint64(len(q.buf)) {
		q.headCache = q.head.Load()
		if t-q.headCache == uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	return true
}

// Push blocks until v is enqueued, done is closed, or the consumer
// abandoned the queue; it reports whether v was enqueued. Producer
// goroutine only.
func (q *SPSC[T]) Push(v T, done <-chan struct{}) bool {
	for spins := 0; ; spins++ {
		if q.TryPush(v) {
			return true
		}
		if q.abandoned.Load() || !spscWait(spins, done) {
			return false
		}
	}
}

// TryPop dequeues the oldest element. Consumer goroutine only.
func (q *SPSC[T]) TryPop() (T, bool) {
	var zero T
	h := q.head.Load()
	if h == q.tailCache {
		q.tailCache = q.tail.Load()
		if h == q.tailCache {
			return zero, false
		}
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero // release the reference for GC
	q.head.Store(h + 1)
	return v, true
}

// Pop blocks until an element is available, the queue is closed and
// drained, or done is closed; ok is false in the latter two cases.
// Consumer goroutine only.
func (q *SPSC[T]) Pop(done <-chan struct{}) (T, bool) {
	for spins := 0; ; spins++ {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		if q.closed.Load() {
			// The producer may have pushed between TryPop and the
			// closed load; drain before reporting end-of-stream.
			return q.TryPop()
		}
		if !spscWait(spins, done) {
			var zero T
			return zero, false
		}
	}
}

// Close marks the queue as complete. Producer goroutine only; elements
// already queued remain poppable.
func (q *SPSC[T]) Close() { q.closed.Store(true) }

// Drained reports whether the queue is closed and empty — the
// consumer's end-of-stream condition.
func (q *SPSC[T]) Drained() bool {
	if !q.closed.Load() {
		return false
	}
	return q.head.Load() == q.tail.Load()
}

// Abandon tells the producer the consumer will pop no more; subsequent
// pushes fail fast. Consumer goroutine only.
func (q *SPSC[T]) Abandon() { q.abandoned.Store(true) }

// Abandoned reports whether Abandon was called.
func (q *SPSC[T]) Abandoned() bool { return q.abandoned.Load() }

// spscMultiCore gates the busy-spin phase: on a single-core host the
// counterpart cannot be mid-operation, so spinning only delays it.
var spscMultiCore = runtime.NumCPU() > 1

// spscWait escalates from busy spinning through cooperative yields to
// short sleeps, checking done once per sleep. Returning false aborts
// the blocking operation. The phases are deliberately short: a starved
// endpoint parks quickly instead of flooding the scheduler with
// yields, which is what dominates when shards exceed cores.
func spscWait(spins int, done <-chan struct{}) bool {
	switch {
	case spins < 32 && spscMultiCore:
		// busy spin: the counterpart is likely mid-operation
	case spins < 64:
		runtime.Gosched()
	default:
		select {
		case <-done:
			return false
		default:
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}
