package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"icewafl/internal/obs"
	"icewafl/internal/rng"
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

// PermanentError marks an error as non-transient: retrying the failed
// operation can never succeed (e.g. a replay gap — the server no longer
// retains the requested resume point). Retry layers must surface such
// errors instead of looping on them.
type PermanentError interface {
	error
	// Permanent reports that no retry can succeed.
	Permanent() bool
}

// IsPermanent reports whether any error in err's chain is marked
// permanent.
func IsPermanent(err error) bool {
	var pe PermanentError
	return errors.As(err, &pe) && pe.Permanent()
}

// RetryPolicy configures RetrySource. The zero value retries 3 times
// with a 10ms base delay, doubling per attempt up to 1s, with ±50%
// deterministic jitter and no per-attempt timeout.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the initial failure
	// (so MaxRetries = 3 means up to 4 attempts). Values < 0 disable
	// retrying entirely.
	MaxRetries int
	// BaseDelay is the delay before the first retry; each subsequent
	// retry doubles it (exponential backoff).
	BaseDelay time.Duration
	// MaxDelay caps the backoff.
	MaxDelay time.Duration
	// Jitter is the fraction of the delay randomised symmetrically
	// around it (0.5 → delay drawn from [0.5d, 1.5d)). Values outside
	// [0, 1] are clamped.
	Jitter float64
	// AttemptTimeout bounds how long one Next attempt may block (0 = no
	// bound). A timed-out attempt counts as a failure; because sources
	// are single-consumer, the in-flight call is not abandoned — the
	// next attempt resumes waiting for it.
	AttemptTimeout time.Duration
	// Retryable decides whether an error is transient. nil retries every
	// error except end-of-stream, tuple-level errors (which callers
	// handle via Quarantine instead), and errors marked permanent via
	// PermanentError.
	Retryable func(error) bool
	// Sleep replaces time.Sleep, letting tests run without real delays.
	Sleep func(time.Duration)
	// Rand drives the jitter; nil derives a fixed-seed stream, keeping
	// retry timing deterministic for a given policy.
	Rand *rng.Stream
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.Retryable == nil {
		p.Retryable = func(err error) bool {
			if IsEndOfStream(err) {
				return false
			}
			if IsPermanent(err) {
				return false
			}
			_, isTuple := AsTupleError(err)
			return !isTuple
		}
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if p.Rand == nil {
		p.Rand = rng.Derive(0x1ce3af1, "stream/retry")
	}
	return p
}

// delay returns the backoff before retry attempt i (0-based), with
// exponential growth and symmetric jitter.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay << uint(attempt)
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		spread := p.Jitter * float64(d)
		d = time.Duration(float64(d) + spread*(2*p.Rand.Float64()-1))
		if d < 0 {
			d = 0
		}
	}
	return d
}

// ErrAttemptTimeout is wrapped into the error returned when a source
// attempt exceeds RetryPolicy.AttemptTimeout.
var ErrAttemptTimeout = errors.New("stream: source attempt timed out")

// RetrySource wraps a flaky source, retrying transient Next failures
// with exponential backoff and jitter. End-of-stream conditions and
// tuple-level errors pass through untouched; only errors the policy
// deems retryable are re-attempted. If all attempts fail, the last error
// is returned (wrapped with the attempt count).
type RetrySource struct {
	src    Source
	policy RetryPolicy

	// pending holds the result channel of an in-flight Next call that
	// previously timed out; the next attempt resumes waiting on it
	// because sources are single-consumer.
	pending chan retryResult
	// Attempts counts total underlying Next invocations (observability).
	attempts uint64
	retries  uint64
	reg      *obs.Registry
}

type retryResult struct {
	t   Tuple
	err error
}

// NewRetrySource wraps src with the given retry policy.
func NewRetrySource(src Source, policy RetryPolicy) *RetrySource {
	return &RetrySource{src: src, policy: policy.withDefaults()}
}

// Schema implements Source.
func (r *RetrySource) Schema() *Schema { return r.src.Schema() }

// Attempts returns the number of underlying Next invocations so far.
func (r *RetrySource) Attempts() uint64 { return r.attempts }

// Retries returns the number of re-attempts performed so far.
func (r *RetrySource) Retries() uint64 { return r.retries }

// Instrument wires the source into a metrics registry: underlying Next
// attempts count toward retry_attempts_total, re-attempts toward
// retries_total. Call before the run starts.
func (r *RetrySource) Instrument(reg *obs.Registry) { r.reg = reg }

// Next implements Source.
func (r *RetrySource) Next() (Tuple, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > r.policy.MaxRetries {
			return Tuple{}, fmt.Errorf("stream: source failed after %d attempts: %w", attempt, lastErr)
		}
		if attempt > 0 {
			r.retries++
			r.reg.Inc(obs.CRetries)
			r.policy.Sleep(r.policy.delay(attempt - 1))
		}
		t, err := r.attemptNext()
		if err == nil {
			return t, nil
		}
		if !r.policy.Retryable(err) {
			return Tuple{}, err
		}
		lastErr = err
	}
}

// attemptNext performs one underlying Next call, bounded by the
// per-attempt timeout when configured.
func (r *RetrySource) attemptNext() (Tuple, error) {
	if r.policy.AttemptTimeout <= 0 {
		r.attempts++
		r.reg.Inc(obs.CRetryAttempts)
		return r.src.Next()
	}
	ch := r.pending
	if ch == nil {
		ch = make(chan retryResult, 1)
		r.attempts++
		r.reg.Inc(obs.CRetryAttempts)
		go func(ch chan retryResult) {
			t, err := r.src.Next()
			ch <- retryResult{t: t, err: err}
		}(ch)
		r.pending = ch
	}
	timer := time.NewTimer(r.policy.AttemptTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		r.pending = nil
		return res.t, res.err
	case <-timer.C:
		return Tuple{}, ErrAttemptTimeout
	}
}

// FlakySource injects failures into a source according to a
// deterministic plan — the unit-testable half of the fault-injection
// harness. plan is consulted once per Next call with the 0-based call
// index; a non-nil return is injected as a transient error (the
// underlying source is not advanced), nil delegates to the real source.
type FlakySource struct {
	src  Source
	plan func(call uint64) error
	call uint64
}

// NewFlakySource wraps src with the failure plan.
func NewFlakySource(src Source, plan func(call uint64) error) *FlakySource {
	return &FlakySource{src: src, plan: plan}
}

// FailEveryN returns a plan failing every n-th call (1-based phase) with
// err.
func FailEveryN(n uint64, err error) func(uint64) error {
	return func(call uint64) error {
		if n > 0 && (call+1)%n == 0 {
			return err
		}
		return nil
	}
}

// FailFirstN returns a plan failing the first n calls with err — the
// "source still warming up" shape that exercises backoff.
func FailFirstN(n uint64, err error) func(uint64) error {
	return func(call uint64) error {
		if call < n {
			return err
		}
		return nil
	}
}

// Schema implements Source.
func (f *FlakySource) Schema() *Schema { return f.src.Schema() }

// Next implements Source.
func (f *FlakySource) Next() (Tuple, error) {
	call := f.call
	f.call++
	if f.plan != nil {
		if err := f.plan(call); err != nil {
			return Tuple{}, err
		}
	}
	return f.src.Next()
}

// ChaosOptions configures ChaosSource.
type ChaosOptions struct {
	// ErrorRate is the per-call probability of a transient error.
	ErrorRate float64
	// TupleErrorRate is the per-tuple probability of a tuple-level
	// failure (*TupleError): the tuple is consumed from the underlying
	// source and reported as poisoned.
	TupleErrorRate float64
	// Seed drives the chaos deterministically.
	Seed int64
}

// ChaosSource injects random transient and tuple-level failures — the
// probabilistic half of the fault-injection harness. All chaos is
// derived from the seed, so a failing test reproduces exactly.
type ChaosSource struct {
	src    Source
	opts   ChaosOptions
	rand   *rng.Stream
	offset uint64
}

// NewChaosSource wraps src with seeded random fault injection.
func NewChaosSource(src Source, opts ChaosOptions) *ChaosSource {
	return &ChaosSource{src: src, opts: opts, rand: rng.Derive(opts.Seed, "stream/chaos")}
}

// ErrChaos is the transient error injected by ChaosSource.
var ErrChaos = errors.New("stream: injected chaos failure")

// Schema implements Source.
func (c *ChaosSource) Schema() *Schema { return c.src.Schema() }

// Next implements Source.
func (c *ChaosSource) Next() (Tuple, error) {
	if c.rand.Bernoulli(c.opts.ErrorRate) {
		return Tuple{}, ErrChaos
	}
	t, err := c.src.Next()
	if err != nil {
		return t, err
	}
	off := c.offset
	c.offset++
	if c.rand.Bernoulli(c.opts.TupleErrorRate) {
		return Tuple{}, &TupleError{Tuple: t, Offset: off, Stage: "chaos", Err: ErrChaos}
	}
	return t, nil
}
