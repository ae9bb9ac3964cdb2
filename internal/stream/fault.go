package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"icewafl/internal/obs"
)

// This file is the fault-tolerance layer of the stream engine. The
// contract it adds on top of Source:
//
//   - Cancellation: a cancelled source returns ErrStopped (never io.EOF)
//     from every subsequent Next call. WithContext adapts any source.
//   - Tuple-level failure: a source MAY return a *TupleError to report
//     that one tuple failed (malformed row, panicking operator, …) while
//     the stream itself remains usable — callers may keep calling Next.
//     Any other error is fatal and terminates the stream.
//   - Quarantine: the Quarantine wrapper converts tuple-level failures
//     into dead-letter records and keeps the pipeline flowing.

// TupleError reports the failure of a single tuple. Sources returning a
// *TupleError remain usable: the failed tuple is skipped and subsequent
// Next calls continue with the rest of the stream.
type TupleError struct {
	// Tuple is the failing tuple, when it was materialised before the
	// failure (zero otherwise, e.g. for unparsable input rows).
	Tuple Tuple
	// Offset is the 0-based position of the failure in the source.
	Offset uint64
	// Stage names the pipeline stage that failed (e.g. "map", "pollute").
	Stage string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *TupleError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("stream: tuple %d failed in %s: %v", e.Offset, e.Stage, e.Err)
	}
	return fmt.Sprintf("stream: tuple %d failed: %v", e.Offset, e.Err)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *TupleError) Unwrap() error { return e.Err }

// AsTupleError extracts a *TupleError from err, if any.
func AsTupleError(err error) (*TupleError, bool) {
	var te *TupleError
	if errors.As(err, &te) {
		return te, true
	}
	return nil, false
}

// IsEndOfStream reports whether err terminates a stream normally:
// io.EOF (exhausted) or ErrStopped (cancelled).
func IsEndOfStream(err error) bool {
	return err == io.EOF || errors.Is(err, ErrStopped)
}

// DeadLetter is one quarantined tuple: the failure cause plus enough
// position information to locate the tuple in the input.
type DeadLetter struct {
	// Offset is the 0-based position of the failed tuple in its source.
	Offset uint64 `json:"offset"`
	// TupleID is the prepared tuple ID, when known (0 otherwise).
	TupleID uint64 `json:"tuple_id,omitempty"`
	// Stage names the failing pipeline stage.
	Stage string `json:"stage,omitempty"`
	// Cause is the rendered failure cause.
	Cause string `json:"cause"`
	// Values is the textual rendering of the tuple, when it was
	// materialised before the failure.
	Values []string `json:"values,omitempty"`
}

// DeadLetterQueue collects quarantined tuples. It is safe for concurrent
// use, so parallel operators may share one queue.
type DeadLetterQueue struct {
	mu      sync.Mutex
	letters []DeadLetter
	reg     *obs.Registry
}

// NewDeadLetterQueue returns an empty queue.
func NewDeadLetterQueue() *DeadLetterQueue { return &DeadLetterQueue{} }

// Instrument wires the queue into a metrics registry: every quarantined
// tuple increments dead_letters_total, and a dlq_depth gauge exposes
// the current queue length at snapshot time. Call before the run
// starts; a nil queue or registry is a no-op.
func (q *DeadLetterQueue) Instrument(reg *obs.Registry) {
	if q == nil || reg == nil {
		return
	}
	q.mu.Lock()
	q.reg = reg
	q.mu.Unlock()
	reg.RegisterFunc("dlq_depth", func() uint64 { return uint64(q.Len()) })
}

// Add records one dead letter. A nil queue discards silently, so
// quarantining operators work without a configured queue.
func (q *DeadLetterQueue) Add(d DeadLetter) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.letters = append(q.letters, d)
	reg := q.reg
	q.mu.Unlock()
	reg.Inc(obs.CDeadLetters)
}

// AddError records err as a dead letter, extracting tuple and position
// information when err is a *TupleError.
func (q *DeadLetterQueue) AddError(err error) {
	if q == nil {
		return
	}
	d := DeadLetter{Cause: err.Error()}
	if te, ok := AsTupleError(err); ok {
		d.Offset = te.Offset
		d.Stage = te.Stage
		if te.Err != nil {
			d.Cause = te.Err.Error()
		}
		if te.Tuple.Schema() != nil {
			d.TupleID = te.Tuple.ID
			d.Values = renderValues(te.Tuple)
		}
	}
	q.Add(d)
}

// Len returns the number of quarantined tuples.
func (q *DeadLetterQueue) Len() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.letters)
}

// Letters returns a copy of the quarantined records in arrival order.
func (q *DeadLetterQueue) Letters() []DeadLetter {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]DeadLetter(nil), q.letters...)
}

func renderValues(t Tuple) []string {
	out := make([]string, t.Len())
	for i := 0; i < t.Len(); i++ {
		out[i] = t.At(i).String()
	}
	return out
}

// ErrQuarantineOverflow is returned (wrapped) by Quarantine when more
// tuples fail than the configured maximum allows.
var ErrQuarantineOverflow = errors.New("stream: quarantine limit exceeded")

// Quarantine wraps src so that tuple-level failures — *TupleError values
// returned from Next — are recorded in q and skipped instead of
// terminating the stream. maxLetters caps the number of quarantined
// tuples (0 means unlimited); exceeding it fails the stream with
// ErrQuarantineOverflow, so a systematically broken input cannot degrade
// into silently dropping everything. Fatal (non-tuple) errors still pass
// through unchanged.
func Quarantine(src Source, q *DeadLetterQueue, maxLetters int) Source {
	return &quarantineSource{src: src, q: q, max: maxLetters}
}

type quarantineSource struct {
	src  Source
	q    *DeadLetterQueue
	max  int
	seen int
}

func (s *quarantineSource) Schema() *Schema { return s.src.Schema() }

func (s *quarantineSource) Next() (Tuple, error) {
	for {
		t, err := s.src.Next()
		if err == nil || IsEndOfStream(err) {
			return t, err
		}
		te, ok := AsTupleError(err)
		if !ok {
			return Tuple{}, err // fatal
		}
		s.seen++
		if s.max > 0 && s.seen > s.max {
			return Tuple{}, fmt.Errorf("%w: %d tuples failed (last: %v)", ErrQuarantineOverflow, s.seen, te)
		}
		s.q.AddError(te)
	}
}

// WithContext wraps src so that Next returns ErrStopped once ctx is
// cancelled. The check happens before delegating, so a source blocked
// inside Next is not interrupted — a blocking producer must watch the
// context itself. A background context (or nil) returns src unchanged,
// keeping the hot path free of overhead.
func WithContext(ctx context.Context, src Source) Source {
	if ctx == nil || ctx.Done() == nil {
		return src
	}
	return &ctxSource{ctx: ctx, src: src}
}

type ctxSource struct {
	ctx context.Context
	src Source
}

func (s *ctxSource) Schema() *Schema { return s.src.Schema() }

func (s *ctxSource) Next() (Tuple, error) {
	select {
	case <-s.ctx.Done():
		return Tuple{}, ErrStopped
	default:
	}
	t, err := s.src.Next()
	if err != nil && s.ctx.Err() != nil {
		// The inner source observed the cancellation through its own
		// means (e.g. a closed connection); normalise to ErrStopped.
		return Tuple{}, ErrStopped
	}
	return t, err
}

// Stop implements Stopper by forwarding to the inner source.
func (s *ctxSource) Stop() { stopSource(s.src) }

// Stopper is implemented by sources that own goroutines or other
// resources requiring prompt release when a consumer abandons the stream
// before exhausting it.
type Stopper interface {
	// Stop releases the source's resources. Subsequent Next calls return
	// ErrStopped. Stop is idempotent.
	Stop()
}

// stopSource stops src if it supports stopping.
func stopSource(src Source) {
	if st, ok := src.(Stopper); ok {
		st.Stop()
	}
}
