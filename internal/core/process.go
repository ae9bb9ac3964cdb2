package core

import (
	"context"
	"fmt"
	"time"

	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

// FaultPolicy configures how a pollution run reacts to tuple-level
// failures: malformed input rows and panicking pipeline components.
// The zero value is fail-fast: a malformed row is returned as its
// tuple error, and a pipeline panic ends the run with a sticky error.
type FaultPolicy struct {
	// Quarantine skips failing tuples instead of aborting: malformed
	// input rows and tuples whose pollution panics are recorded as dead
	// letters (with cause and position) and excluded from the output.
	Quarantine bool
	// MaxQuarantined caps the number of dead letters (0 = unlimited);
	// exceeding it aborts with stream.ErrQuarantineOverflow so a
	// systematically broken input cannot silently drop everything.
	MaxQuarantined int
	// DLQ receives the dead letters. nil with Quarantine set allocates
	// a fresh queue per run (readable via Result.Quarantined or
	// Checkpointer.DeadLetters).
	DLQ *stream.DeadLetterQueue
}

// queue returns the dead-letter queue for one run.
func (f FaultPolicy) queue() *stream.DeadLetterQueue {
	if !f.Quarantine {
		return nil
	}
	if f.DLQ != nil {
		return f.DLQ
	}
	return stream.NewDeadLetterQueue()
}

// Process executes the end-to-end pollution workflow of Algorithm 1:
//
//	Step 1 — prepare: assign IDs, replicate the timestamp into τ, and
//	          extract m (overlapping) sub-streams;
//	Step 2 — pollute: pass every tuple of sub-stream i through pipeline i;
//	Step 3 — integrate: union the sub-streams (attaching the sub-stream
//	          identifier), sort by delivery time, and return both the
//	          clean stream D and the polluted stream D^p.
//
// Every run goes through Stream, the one dispatch from an execution shape
// to a runner. Batch Run is the streaming reference drained and sorted by
// delivery time.
type Process struct {
	// Pipelines holds one pollution pipeline per sub-stream; m =
	// len(Pipelines).
	Pipelines []*Pipeline
	// Route extracts the sub-streams. Nil with m == 1 routes everything
	// to the single pipeline; nil with m > 1 routes every tuple to every
	// sub-stream (full overlap).
	Route stream.RouteFunc
	// FirstID numbers the prepared tuples starting here (default 1).
	FirstID uint64
	// KeepClean controls whether Run returns the clean stream D.
	// Experiments that only need D^p can switch it off.
	KeepClean bool
	// DisableLog switches off the pollution log (it is an optional
	// output per Figure 2). Without the log there is no ground truth,
	// but pure throughput workloads avoid its allocation cost.
	DisableLog bool
	// Fault selects the fault-tolerance behaviour (zero = fail fast).
	Fault FaultPolicy
	// Obs, when non-nil, receives per-stage metrics and sampled traces
	// for every run of this process. All hooks are nil-safe, so the
	// uninstrumented hot path pays only a nil check.
	Obs *obs.Registry
	// CleanTap, when non-nil, observes every prepared (clean) tuple
	// before pollution. It lets a caller — the network server in
	// particular — stream the clean side D without a second pass over
	// the input, even in streaming mode where no runner materialises
	// it. The tap runs synchronously on the runner goroutine, and the
	// runner pollutes the tuple's values in place once it returns: a tap
	// that retains the tuple must Clone it.
	CleanTap func(stream.Tuple)
}

// Result is the output of one pollution run.
type Result struct {
	// Clean is the prepared input stream D (nil unless KeepClean).
	Clean []stream.Tuple
	// Polluted is the merged polluted stream D^p, sorted by delivery
	// time; dropped tuples are excluded.
	Polluted []stream.Tuple
	// Log is the pollution log in stream order (nil under DisableLog).
	Log *Log
	// DroppedTuples counts tuples removed by drop errors.
	DroppedTuples int
	// Quarantined holds the dead letters of tuples the fault policy
	// skipped: malformed input rows and tuples whose pollution failed.
	Quarantined []stream.DeadLetter
}

// NewProcess returns a single-pipeline process that keeps the clean
// stream.
func NewProcess(p *Pipeline) *Process {
	return &Process{Pipelines: []*Pipeline{p}, FirstID: 1, KeepClean: true}
}

// Run executes the workflow over a bounded source.
func (pr *Process) Run(src stream.Source) (*Result, error) {
	return pr.RunContext(context.Background(), src)
}

// RunContext executes the workflow with cancellation: once ctx is done,
// the run stops promptly and returns an error satisfying
// errors.Is(err, stream.ErrStopped). It is RunStream at reorder 1
// drained and sorted by delivery time (step 3), so the log and the dead
// letters come out in stream order; D is collected through the clean
// tap. The caller's tuples are never mutated: each is copied once on the
// way in.
func (pr *Process) RunContext(ctx context.Context, src stream.Source) (*Result, error) {
	res := &Result{}
	run := *pr
	if pr.KeepClean {
		run.CleanTap = func(t stream.Tuple) {
			res.Clean = append(res.Clean, t.Clone())
			if pr.CleanTap != nil {
				pr.CleanTap(t)
			}
		}
	}
	run.Fault.DLQ = pr.Fault.queue()
	out, err := run.start(ownedSource{stream.WithContext(ctx, src)}, StreamSpec{}, &res.DroppedTuples)
	if err != nil {
		return nil, err
	}
	if res.Polluted, err = stream.Drain(out.Source); err != nil {
		return nil, fmt.Errorf("core: run: %w", err)
	}
	stream.SortByArrival(res.Polluted)
	res.Log, res.Quarantined = out.Log, run.Fault.DLQ.Letters()
	return res, nil
}

// ownedSource hands on a copy of every tuple of its source, so a runner
// that pollutes in place never writes the caller's tuples.
type ownedSource struct{ stream.Source }

// Next implements stream.Source.
func (s ownedSource) Next() (stream.Tuple, error) {
	t, err := s.Source.Next()
	return t.Clone(), err
}

// rowStep is Algorithm 1's step 2 for one row of sub-stream sub: the
// per-tuple pollution of both runners (the tuple-wise runner and each
// shard worker) and the only code that applies a pipeline to a row.
type rowStep struct {
	p     *Pipeline
	log   *Log
	sub   int
	fault FaultPolicy
	dlq   *stream.DeadLetterQueue
	reg   *obs.Registry
	trace bool
}

// step returns the row step of sub-stream i.
func (pr *Process) step(i int, log *Log, dlq *stream.DeadLetterQueue) rowStep {
	return rowStep{p: pr.Pipelines[i], log: log, sub: i, fault: pr.Fault, dlq: dlq, reg: pr.Obs, trace: pr.Obs.TraceEnabled()}
}

// pollute applies the pipeline to t at its event time, inside a sampled
// StagePollute span, and tags t and the log entries it produced with the
// sub-stream. A panic in any polluter, condition or error function rolls
// the log back to the mark taken before t, so the ground truth only
// describes delivered tuples. Under quarantine t is then marked
// Quarantined and its dead letter is returned, booked into s.dlq (a step
// without a queue leaves the booking to its caller). Without quarantine
// the panic is the returned error. A non-nil error is fatal: the run
// stops before t.
func (s *rowStep) pollute(t *stream.Tuple) (*stream.DeadLetter, error) {
	mark := s.log.Len()
	var err error
	if s.trace && s.reg.Sampled(t.ID) {
		start := time.Now()
		err = s.apply(t)
		s.reg.ObserveSpan(obs.StagePollute, t.ID, time.Since(start))
	} else {
		err = s.apply(t)
	}
	if err != nil {
		s.log.Truncate(mark)
		if !s.fault.Quarantine {
			return nil, fmt.Errorf("core: pollute tuple %d: %w", t.ID, err)
		}
		t.Quarantined = true
		dl := deadLetterFor(*t, "pollute", err)
		return &dl, s.fault.record(s.dlq, dl)
	}
	if s.sub != 0 {
		t.SubStream = s.sub
		for i := mark; i < s.log.Len(); i++ {
			s.log.Entries[i].SubStream = s.sub
		}
	}
	return nil, nil
}

// apply runs the pipeline over t, converting a panic into an error.
func (s *rowStep) apply(t *stream.Tuple) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("panic: %w", e)
				return
			}
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	s.p.Apply(t, t.EventTime, s.log)
	return nil
}

// deadLetterFor renders a quarantined tuple into a dead-letter record.
func deadLetterFor(t stream.Tuple, stage string, cause error) stream.DeadLetter {
	d := stream.DeadLetter{Offset: t.ID, TupleID: t.ID, Stage: stage, Cause: cause.Error()}
	if t.Schema() != nil {
		d.Values = make([]string, t.Len())
		for i := 0; i < t.Len(); i++ {
			d.Values[i] = t.At(i).String()
		}
	}
	return d
}

// RunStream executes the workflow in a streaming fashion — the
// constant-memory analogue of Run for unbounded sources, and the
// reference engine every other execution shape is compared against. It
// is Stream's plain tuple-wise shape.
//
// Streaming mode pollutes tuples in place, taking ownership of whatever
// the source emits. Readers and generators mint a fresh tuple per Next
// call and are safe; to stream over a shared []Tuple slice whose contents
// must survive, clone the tuples first (batch Run does this for you).
func (pr *Process) RunStream(src stream.Source, reorderWindow int) (stream.Source, *Log, error) {
	run, err := pr.Stream(src, StreamSpec{Reorder: reorderWindow})
	if err != nil {
		return nil, nil, err
	}
	return run.Source, run.Log, nil
}

// RunStreamColumnar is RunStream.
//
// Deprecated: there is one tuple-wise engine; the name stays only
// because bench/ compiles against it, and ROADMAP.md item 1(a) deletes
// it.
func (pr *Process) RunStreamColumnar(src stream.Source, reorderWindow int) (stream.Source, *Log, error) {
	return pr.RunStream(src, reorderWindow)
}

// runStream is the plain tuple-wise runner behind Stream. One pipeline
// pollutes the prepared stream tuple by tuple; with m > 1 the stream is
// split into the m (possibly overlapping) sub-streams, each polluted by
// its pipeline, and k-way merged. Each branch is re-sorted within the
// bounded window. Dropped tuples are filtered out and, when dropped is
// non-nil, counted there. The log (nil under DisableLog) is complete once
// the returned source is exhausted. When the spec asks for a checkpointed
// run (m = 1, no window), it also returns the run's Checkpointer.
func (pr *Process) runStream(src stream.Source, spec StreamSpec, dropped *int) (stream.Source, *Log, *Checkpointer, error) {
	var ck *Checkpointer
	var firstID uint64
	if spec.checkpointed() {
		var err error
		if ck, err = pr.checkpointer(src, spec.Resume); err != nil {
			return nil, nil, nil, err
		}
		src, firstID = ck.input, ck.base.NextID
	}
	in := pr.openStream(src, firstID)
	prep := pr.tapped(in.prep)
	m := len(pr.Pipelines)
	if m == 1 {
		r := pr.runner(prep, 0, in, dropped)
		if ck != nil {
			if err := ck.bind(in, r, spec.Resume); err != nil {
				return nil, nil, nil, err
			}
		}
		return reordered(r, spec.Reorder), in.log, ck, nil
	}
	route := pr.Route
	if route == nil {
		route = stream.RouteAll
	}
	// Split hands each sub-stream its own clones, so in-place pollution
	// of one branch never reaches another.
	subs := stream.Split(prep, m, route)
	branches := make([]stream.Source, m)
	for i := range subs {
		branches[i] = reordered(pr.runner(subs[i], i, in, dropped), spec.Reorder)
	}
	merged, err := stream.NewKWayMerge(branches)
	if err != nil {
		return nil, nil, nil, err
	}
	return merged, in.log, nil, nil
}

// runner builds the tuple-wise operator that pollutes src with pipeline
// i, counting drops into dropped when it is non-nil.
func (pr *Process) runner(src stream.Source, i int, in streamInput, dropped *int) *streamRunner {
	return &streamRunner{src: src, rowStep: pr.step(i, in.log, in.dlq), dropped: dropped}
}

// reordered wraps a runner in the bounded reordering window, when one is
// asked for.
func reordered(src stream.Source, window int) stream.Source {
	if window > 1 {
		return stream.NewBoundedReorder(src, window)
	}
	return src
}

// tapped interposes Process.CleanTap on the prepared stream. Every
// tuple-wise runner takes its input through it (the multi-pipeline one
// before Split fans the stream out), so the tap sees each prepared tuple
// once, before pollution.
func (pr *Process) tapped(prep stream.Source) stream.Source {
	if pr.CleanTap == nil {
		return prep
	}
	return &tapSource{src: prep, tap: pr.CleanTap}
}

// tapSource forwards its inner source unchanged while handing every
// tuple to the tap.
type tapSource struct {
	src stream.Source
	tap func(stream.Tuple)
}

// Schema implements stream.Source.
func (s *tapSource) Schema() *stream.Schema { return s.src.Schema() }

// Next implements stream.Source.
func (s *tapSource) Next() (stream.Tuple, error) {
	t, err := s.src.Next()
	if err == nil {
		s.tap(t)
	}
	return t, err
}

// streamRunner is the pollute → drop-filter operator of streaming mode:
// the whole single-pipeline run (checkpointed or not) and one branch of a
// multi-pipeline run.
type streamRunner struct {
	src stream.Source
	rowStep
	dropped *int
	// emitted counts the delivered tuples: a checkpoint's output position.
	emitted uint64
	err     error // the sticky fatal error

	// cur is the tuple in flight. Polluters receive *Tuple through an
	// interface call, which would force a stack-local tuple to escape —
	// one heap allocation per tuple. Hoisting it into the (already
	// heap-allocated) runner makes the hot loop allocation-free.
	cur stream.Tuple
}

// Schema implements stream.Source.
func (r *streamRunner) Schema() *stream.Schema { return r.src.Schema() }

// Next implements stream.Source.
func (r *streamRunner) Next() (stream.Tuple, error) {
	for r.err == nil {
		t, err := r.src.Next()
		if err != nil {
			return t, err
		}
		r.cur = t
		r.reg.Inc(obs.CTuplesIn)
		var dl *stream.DeadLetter
		if dl, r.err = r.pollute(&r.cur); r.err != nil || dl != nil {
			continue
		}
		if r.cur.Dropped {
			r.reg.Inc(obs.CTuplesDropped)
			if r.dropped != nil {
				*r.dropped++
			}
			continue
		}
		r.reg.Inc(obs.CTuplesOut)
		r.emitted++
		return r.cur, nil
	}
	return stream.Tuple{}, r.err
}

// record books a dead letter into the run's queue and enforces the
// MaxQuarantined bound; a non-nil error is fatal (quarantine overflow).
func (f FaultPolicy) record(dlq *stream.DeadLetterQueue, dl stream.DeadLetter) error {
	dlq.Add(dl)
	if f.MaxQuarantined > 0 && dlq.Len() > f.MaxQuarantined {
		return fmt.Errorf("%w: %d tuples failed (last: tuple %d: %s)",
			stream.ErrQuarantineOverflow, dlq.Len(), dl.TupleID, dl.Cause)
	}
	return nil
}
