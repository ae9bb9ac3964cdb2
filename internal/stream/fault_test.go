package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"icewafl/internal/rng"
)

// --- TupleError / DeadLetterQueue -----------------------------------

func TestTupleErrorUnwrap(t *testing.T) {
	cause := errors.New("boom")
	var err error = &TupleError{Offset: 7, Stage: "map", Err: cause}
	if !errors.Is(err, cause) {
		t.Error("TupleError does not unwrap to its cause")
	}
	te, ok := AsTupleError(fmt.Errorf("wrapped: %w", err))
	if !ok || te.Offset != 7 || te.Stage != "map" {
		t.Errorf("AsTupleError through wrapping = %+v, %v", te, ok)
	}
	if _, ok := AsTupleError(cause); ok {
		t.Error("plain error recognised as TupleError")
	}
}

func TestIsEndOfStream(t *testing.T) {
	if !IsEndOfStream(io.EOF) || !IsEndOfStream(ErrStopped) {
		t.Error("EOF/ErrStopped not end-of-stream")
	}
	if IsEndOfStream(errors.New("x")) {
		t.Error("arbitrary error treated as end-of-stream")
	}
}

func TestDeadLetterQueueNilSafe(t *testing.T) {
	var q *DeadLetterQueue
	q.Add(DeadLetter{})
	q.AddError(errors.New("x"))
	if q.Len() != 0 || q.Letters() != nil {
		t.Error("nil queue not inert")
	}
}

func TestDeadLetterQueueAddError(t *testing.T) {
	s := testSchema(t)
	tup := makeTuples(s, 1)[0]
	tup.ID = 42
	q := NewDeadLetterQueue()
	q.AddError(&TupleError{Tuple: tup, Offset: 3, Stage: "pollute", Err: errors.New("bad")})
	q.AddError(errors.New("plain"))
	ls := q.Letters()
	if len(ls) != 2 {
		t.Fatalf("Len = %d", len(ls))
	}
	if ls[0].Offset != 3 || ls[0].TupleID != 42 || ls[0].Stage != "pollute" || ls[0].Cause != "bad" {
		t.Errorf("dead letter = %+v", ls[0])
	}
	if len(ls[0].Values) != tup.Len() {
		t.Errorf("values not rendered: %v", ls[0].Values)
	}
	if ls[1].Cause != "plain" {
		t.Errorf("plain cause = %q", ls[1].Cause)
	}
}

// --- Quarantine ------------------------------------------------------

// faultySource yields tuples interleaved with scripted errors.
type faultySource struct {
	schema *Schema
	script []any // Tuple or error
	pos    int
}

func (f *faultySource) Schema() *Schema { return f.schema }

func (f *faultySource) Next() (Tuple, error) {
	if f.pos >= len(f.script) {
		return Tuple{}, io.EOF
	}
	item := f.script[f.pos]
	f.pos++
	if err, ok := item.(error); ok {
		return Tuple{}, err
	}
	return item.(Tuple), nil
}

func TestQuarantineSkipsTupleErrors(t *testing.T) {
	s := testSchema(t)
	ts := makeTuples(s, 3)
	src := &faultySource{schema: s, script: []any{
		ts[0],
		&TupleError{Offset: 1, Stage: "decode", Err: errors.New("malformed")},
		ts[1],
		&TupleError{Offset: 3, Stage: "decode", Err: errors.New("malformed too")},
		ts[2],
	}}
	q := NewDeadLetterQueue()
	got, err := Drain(Quarantine(src, q, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("delivered %d tuples, want 3", len(got))
	}
	if q.Len() != 2 {
		t.Errorf("quarantined %d, want 2", q.Len())
	}
}

func TestQuarantineFatalErrorPassesThrough(t *testing.T) {
	s := testSchema(t)
	fatal := errors.New("disk on fire")
	src := &faultySource{schema: s, script: []any{fatal}}
	_, err := Drain(Quarantine(src, NewDeadLetterQueue(), 0))
	if !errors.Is(err, fatal) {
		t.Errorf("err = %v, want fatal passthrough", err)
	}
}

func TestQuarantineOverflow(t *testing.T) {
	s := testSchema(t)
	script := []any{}
	for i := 0; i < 5; i++ {
		script = append(script, &TupleError{Offset: uint64(i), Err: errors.New("bad")})
	}
	src := &faultySource{schema: s, script: script}
	q := NewDeadLetterQueue()
	_, err := Drain(Quarantine(src, q, 3))
	if !errors.Is(err, ErrQuarantineOverflow) {
		t.Errorf("err = %v, want ErrQuarantineOverflow", err)
	}
	if q.Len() != 3 {
		t.Errorf("quarantined %d before overflow, want 3", q.Len())
	}
}

// --- Tuple-level failures from a live source ------------------------

// flakySource injects failures into a source by plan: plan is consulted
// once per Next call with the 0-based call index; a non-nil return is
// reported instead of advancing the underlying source.
type flakySource struct {
	src  Source
	plan func(call uint64) error
	call uint64
}

func (f *flakySource) Schema() *Schema { return f.src.Schema() }

func (f *flakySource) Next() (Tuple, error) {
	call := f.call
	f.call++
	if err := f.plan(call); err != nil {
		return Tuple{}, err
	}
	return f.src.Next()
}

// tupleErrorAt is a flakySource plan reporting a tuple-level failure on
// the given calls.
func tupleErrorAt(calls ...uint64) func(uint64) error {
	return func(call uint64) error {
		for _, c := range calls {
			if c == call {
				return &TupleError{Offset: call, Stage: "decode", Err: fmt.Errorf("poison %d", call)}
			}
		}
		return nil
	}
}

func TestTupleErrorLeavesSourceUsable(t *testing.T) {
	s := testSchema(t)
	src := &flakySource{src: NewSliceSource(s, makeTuples(s, 4)), plan: tupleErrorAt(2)}
	var delivered int
	var tupleErrs int
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			te, ok := AsTupleError(err)
			if !ok {
				t.Fatalf("fatal error: %v", err)
			}
			if te.Stage != "decode" || te.Offset != 2 {
				t.Errorf("tuple error = %+v", te)
			}
			tupleErrs++
			continue // source must remain usable
		}
		delivered++
	}
	if delivered != 4 || tupleErrs != 1 {
		t.Errorf("delivered=%d tupleErrs=%d, want 4/1", delivered, tupleErrs)
	}
}

func TestFlakySourceWithQuarantine(t *testing.T) {
	s := testSchema(t)
	q := NewDeadLetterQueue()
	pipeline := Quarantine(&flakySource{src: NewSliceSource(s, makeTuples(s, 10)), plan: tupleErrorAt(3, 7)}, q, 0)
	got, err := Drain(pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || q.Len() != 2 {
		t.Errorf("delivered=%d quarantined=%d, want 10/2", len(got), q.Len())
	}
}

// --- WithContext / cancellation --------------------------------------

func TestWithContextBackgroundIsFree(t *testing.T) {
	s := testSchema(t)
	src := NewSliceSource(s, nil)
	if WithContext(context.Background(), src) != Source(src) {
		t.Error("background context should not wrap")
	}
}

func TestWithContextCancellation(t *testing.T) {
	s := testSchema(t)
	src := NewSliceSource(s, makeTuples(s, 100))
	ctx, cancel := context.WithCancel(context.Background())
	cs := WithContext(ctx, src)
	if _, err := cs.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	for i := 0; i < 3; i++ {
		if _, err := cs.Next(); !errors.Is(err, ErrStopped) {
			t.Fatalf("Next after cancel = %v, want ErrStopped (call %d)", err, i)
		}
	}
}

// TestWithContextPassesEOF: under a live context the end of the stream
// stays io.EOF on every later call and never turns into ErrStopped.
func TestWithContextPassesEOF(t *testing.T) {
	s := testSchema(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := WithContext(ctx, NewSliceSource(s, makeTuples(s, 2)))
	got, err := Drain(src)
	if err != nil || len(got) != 2 {
		t.Fatalf("Drain = %d tuples, %v", len(got), err)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("Next after EOF = %v", err)
	}
}

// stalledSource is a producer that never delivers: Next blocks until the
// context it watches is cancelled.
type stalledSource struct {
	schema *Schema
	done   <-chan struct{}
}

func (s *stalledSource) Schema() *Schema { return s.schema }

func (s *stalledSource) Next() (Tuple, error) {
	<-s.done
	return Tuple{}, errors.New("producer gave up")
}

// TestWithContextCancelUnblocksStalledSource: WithContext does not
// interrupt a blocked Next itself, but once a context-aware producer
// returns, whatever it reported is normalised to a sticky ErrStopped.
func TestWithContextCancelUnblocksStalledSource(t *testing.T) {
	s := testSchema(t)
	ctx, cancel := context.WithCancel(context.Background())
	src := WithContext(ctx, &stalledSource{schema: s, done: ctx.Done()})

	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := src.Next()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the reader block
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("blocked Next unblocked with %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled source stayed blocked")
	}
	// Cancellation is sticky and never turns into EOF.
	for i := 0; i < 3; i++ {
		if _, err := src.Next(); !errors.Is(err, ErrStopped) {
			t.Fatalf("Next after cancel = %v, want ErrStopped", err)
		}
	}
	assertNoGoroutineLeak(t, before)
}

func TestGeneratorSourceShutdownViaContext(t *testing.T) {
	s := testSchema(t)
	tuples := makeTuples(s, 1)
	gen := NewGeneratorSource(s, -1, func(i int) Tuple { return tuples[0] }) // unbounded
	ctx, cancel := context.WithCancel(context.Background())
	src := WithContext(ctx, gen)
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if _, err := src.Next(); !errors.Is(err, ErrStopped) {
		t.Errorf("Next after cancel = %v, want ErrStopped", err)
	}
	if _, err := src.Next(); errors.Is(err, io.EOF) {
		t.Error("cancelled stream reported io.EOF")
	}
	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak polls because goroutine teardown is asynchronous.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d before, %d after", before, now)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- Fault-injection harness ----------------------------------------

// errChaos is the cause chaosSource reports.
var errChaos = errors.New("stream: injected chaos failure")

// chaosSource reports each tuple of src as a tuple-level failure with
// probability rate; the draws come from seed, so a failing test
// reproduces exactly.
type chaosSource struct {
	src    Source
	rate   float64
	rand   *rng.Stream
	offset uint64
}

func newChaosSource(src Source, rate float64, seed int64) *chaosSource {
	return &chaosSource{src: src, rate: rate, rand: rng.Derive(seed, "stream/chaos")}
}

func (c *chaosSource) Schema() *Schema { return c.src.Schema() }

func (c *chaosSource) Next() (Tuple, error) {
	t, err := c.src.Next()
	if err != nil {
		return t, err
	}
	off := c.offset
	c.offset++
	if c.rand.Bernoulli(c.rate) {
		return Tuple{}, &TupleError{Tuple: t, Offset: off, Stage: "chaos", Err: errChaos}
	}
	return t, nil
}

func TestChaosSourceDeterministic(t *testing.T) {
	s := testSchema(t)
	run := func() (int, int) {
		src := newChaosSource(NewSliceSource(s, makeTuples(s, 200)), 0.05, 7)
		tuples, tupleErrs := 0, 0
		for {
			_, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if _, ok := AsTupleError(err); !ok {
					t.Fatalf("fatal error: %v", err)
				}
				tupleErrs++
				continue
			}
			tuples++
		}
		return tuples, tupleErrs
	}
	t1, te1 := run()
	t2, te2 := run()
	if t1 != t2 || te1 != te2 {
		t.Fatalf("chaos not deterministic: (%d,%d) vs (%d,%d)", t1, te1, t2, te2)
	}
	if te1 == 0 {
		t.Error("chaos injected nothing")
	}
	if t1+te1 != 200 {
		t.Errorf("tuples+tupleErrs = %d, want 200 (tuple errors consume a tuple)", t1+te1)
	}
}

// End-to-end: chaos + quarantine delivers exactly the non-poisoned
// tuples, in order.
func TestChaosQuarantinePipeline(t *testing.T) {
	s := testSchema(t)
	const n = 500
	chaos := newChaosSource(NewSliceSource(s, makeTuples(s, n)), 0.02, 99)
	q := NewDeadLetterQueue()
	got, err := Drain(Quarantine(chaos, q, 0))
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() == 0 || len(got)+q.Len() != n {
		t.Errorf("delivered %d + quarantined %d, want %d with some quarantined", len(got), q.Len(), n)
	}
	prev := -1.0
	for _, tp := range got {
		v, _ := tp.GetFloat("v")
		if v <= prev {
			t.Fatalf("order broken: %v after %v", v, prev)
		}
		prev = v
	}
}
