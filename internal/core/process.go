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
// The zero value is fail-fast (first failure aborts the run), matching
// the historical behaviour.
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
	// Parallel, when > 1, pollutes the sub-streams concurrently. The
	// result is identical to sequential execution because each
	// sub-stream owns its pipelines, RNG streams and log.
	Parallel bool
	// KeepClean controls whether the clean stream is materialised and
	// returned. Experiments that only need D^p can switch it off.
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
	// CleanTap, when non-nil, observes a clone of every prepared (clean)
	// tuple before pollution. It lets a caller — the network server in
	// particular — stream the clean side D without a second pass over
	// the input, even in streaming mode where no runner materialises
	// it. The tap runs synchronously on the runner goroutine; it must
	// not retain the clone beyond its own use.
	CleanTap func(stream.Tuple)

	// columnarBatch is RunStreamColumnar's micro-batch size in rows
	// (<= 0 = DefaultColumnarBatch).
	columnarBatch int
}

// Result is the output of one pollution run.
type Result struct {
	// Clean is the prepared input stream D (nil unless KeepClean).
	Clean []stream.Tuple
	// Polluted is the merged polluted stream D^p, sorted by delivery
	// time; dropped tuples are excluded.
	Polluted []stream.Tuple
	// Log is the merged pollution log across all sub-streams.
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
// errors.Is(err, stream.ErrStopped). A background context adds no
// per-tuple overhead.
func (pr *Process) RunContext(ctx context.Context, src stream.Source) (*Result, error) {
	m := len(pr.Pipelines)
	if m == 0 {
		return nil, fmt.Errorf("core: process needs at least one pipeline")
	}
	// Step 1: prepare and materialise. Materialising the prepared stream
	// keeps the clean copy D and feeds the sub-stream extraction. With
	// quarantine enabled, malformed input rows become dead letters
	// instead of aborting the run.
	in := pr.openStream(stream.WithContext(ctx, src), 0)
	dlq := in.dlq
	prepared, err := stream.Drain(in.prep)
	if err != nil {
		return nil, fmt.Errorf("core: prepare: %w", err)
	}
	if pr.CleanTap != nil {
		for _, t := range prepared {
			pr.CleanTap(t.Clone())
		}
	}

	route := pr.Route
	if route == nil {
		if m == 1 {
			route = func(stream.Tuple, int) []int { return []int{0} }
		} else {
			route = stream.RouteAll
		}
	}

	subs := make([][]stream.Tuple, m)
	tuplesIn := uint64(0)
	for _, t := range prepared {
		for _, tgt := range route(t, m) {
			if tgt < 0 || tgt >= m {
				continue
			}
			subs[tgt] = append(subs[tgt], t.Clone())
			tuplesIn++
		}
	}
	pr.Obs.Add(obs.CTuplesIn, tuplesIn)

	// Step 2: pollute every sub-stream with its pipeline.
	logs := make([]*Log, m)
	if pr.Parallel && m > 1 {
		errs := make(chan error, m)
		for i := 0; i < m; i++ {
			go func(i int) {
				logs[i] = &Log{Obs: pr.Obs}
				errs <- polluteSub(subs[i], pr.step(i, logs[i], dlq))
			}(i)
		}
		for i := 0; i < m; i++ {
			if e := <-errs; e != nil && err == nil {
				err = e
			}
		}
		if err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < m; i++ {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("core: pollute: %w", stream.ErrStopped)
			}
			logs[i] = &Log{Obs: pr.Obs}
			if err := polluteSub(subs[i], pr.step(i, logs[i], dlq)); err != nil {
				return nil, err
			}
		}
	}

	// Step 3: integrate — union with sub-stream identifiers, drop
	// removed and quarantined tuples, sort by delivery time.
	res := &Result{Log: NewLog(), Quarantined: dlq.Letters()}
	for i := 0; i < m; i++ {
		res.Log.Merge(logs[i], i)
		for _, t := range subs[i] {
			if t.Quarantined {
				continue
			}
			if t.Dropped {
				res.DroppedTuples++
				pr.Obs.Inc(obs.CTuplesDropped)
				continue
			}
			t.SubStream = i
			res.Polluted = append(res.Polluted, t)
			pr.Obs.Inc(obs.CTuplesOut)
		}
	}
	stream.SortByArrival(res.Polluted)
	if pr.KeepClean {
		res.Clean = prepared
	}
	return res, nil
}

func polluteSub(tuples []stream.Tuple, step rowStep) error {
	if step.p == nil {
		return fmt.Errorf("core: nil pipeline")
	}
	for i := range tuples {
		if _, err := step.pollute(&tuples[i]); err != nil {
			return err
		}
	}
	return nil
}

// rowStep is Algorithm 1's step 2 for one row of sub-stream sub: the
// per-tuple pollution of every row-at-a-time runner (batch Run, the
// streaming and checkpointed runners, the columnar collapse path).
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

// pollute applies the pipeline to t under the fault policy, inside a
// sampled StagePollute span, and tags t and the log entries it produced
// with the sub-stream. It reports whether t survived (a skipped tuple
// carries Quarantined); a non-nil error is fatal (quarantine overflow).
func (s *rowStep) pollute(t *stream.Tuple) (bool, error) {
	mark := 0
	if s.log != nil {
		mark = len(s.log.Entries)
	}
	var ok bool
	var err error
	if s.trace && s.reg.Sampled(t.ID) {
		start := time.Now()
		ok, err = applyWithFault(s.p, t, s.log, s.fault, s.dlq, mark)
		s.reg.ObserveSpan(obs.StagePollute, t.ID, time.Since(start))
	} else {
		ok, err = applyWithFault(s.p, t, s.log, s.fault, s.dlq, mark)
	}
	if s.sub != 0 {
		t.SubStream = s.sub
		for i := mark; s.log != nil && i < len(s.log.Entries); i++ {
			s.log.Entries[i].SubStream = s.sub
		}
	}
	return ok, err
}

// safePollute applies the pipeline, converting a panic in any polluter,
// condition, or error function into an error.
func safePollute(p *Pipeline, t *stream.Tuple, tau time.Time, log *Log) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("panic: %w", e)
				return
			}
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	p.Apply(t, tau, log)
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
// reference engine every other execution shape is compared against.
// With one pipeline, prepared tuples flow through it one by one and are
// re-ordered only within a bounded window. With m > 1 the prepared
// stream is split into the m (possibly overlapping) sub-streams, each
// flows through its pipeline tuple-wise, is re-sorted within the window,
// and the sub-streams are merged with a k-way merge. Dropped tuples are
// filtered out. The returned log is nil when DisableLog is set and only
// complete once the returned source is exhausted.
//
// Streaming mode pollutes tuples in place, taking ownership of whatever
// the source emits. Readers and generators mint a fresh tuple per Next
// call and are safe; to stream over a shared []Tuple slice whose contents
// must survive, clone the tuples first (batch Run does this for you).
func (pr *Process) RunStream(src stream.Source, reorderWindow int) (stream.Source, *Log, error) {
	m := len(pr.Pipelines)
	if m == 0 {
		return nil, nil, fmt.Errorf("core: process needs at least one pipeline")
	}
	in := pr.openStream(src, 0)
	prep := pr.tapped(in.prep)
	if m == 1 {
		return reordered(pr.runner(prep, 0, in), reorderWindow), in.log, nil
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
		branches[i] = reordered(pr.runner(subs[i], i, in), reorderWindow)
	}
	merged, err := stream.NewKWayMerge(branches)
	if err != nil {
		return nil, nil, err
	}
	return merged, in.log, nil
}

// runner builds the tuple-wise operator that pollutes src with pipeline
// i over the preamble's log and dead-letter queue.
func (pr *Process) runner(src stream.Source, i int, in streamInput) *streamRunner {
	return &streamRunner{src: src, rowStep: pr.step(i, in.log, in.dlq)}
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

// tapSource forwards its inner source unchanged while handing a clone of
// every tuple to the tap.
type tapSource struct {
	src stream.Source
	tap func(stream.Tuple)
}

// Schema implements stream.Source.
func (s *tapSource) Schema() *stream.Schema { return s.src.Schema() }

// Next implements stream.Source.
func (s *tapSource) Next() (stream.Tuple, error) {
	t, err := s.src.Next()
	if err != nil {
		return t, err
	}
	s.tap(t.Clone())
	return t, nil
}

// streamRunner is the pollute → drop-filter operator of streaming mode:
// the whole single-pipeline run, one branch of a multi-pipeline run, and
// the checkpointed run.
type streamRunner struct {
	src stream.Source
	rowStep

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
	for {
		t, err := r.src.Next()
		if err != nil {
			return t, err
		}
		r.cur = t
		r.reg.Inc(obs.CTuplesIn)
		ok, err := r.pollute(&r.cur)
		if err != nil {
			return stream.Tuple{}, err
		}
		if !ok {
			continue
		}
		if r.cur.Dropped {
			r.reg.Inc(obs.CTuplesDropped)
			continue
		}
		r.reg.Inc(obs.CTuplesOut)
		return r.cur, nil
	}
}

// polluteOne is THE single fault/rollback code path of every runner —
// rowStep.pollute (batch, streaming, checkpointed, columnar collapse)
// and the sharded workers. It
// applies p to t at its event time under the fault policy, rolling the
// log back to logMark when pollution fails so the ground truth only
// describes delivered tuples. It reports whether the tuple survived
// and, when it did not, returns its dead letter (with t marked
// Quarantined). Without quarantine, a pipeline panic propagates to the
// caller unchanged — the historical fail-fast contract.
func polluteOne(p *Pipeline, t *stream.Tuple, log *Log, logMark int, fault FaultPolicy) (bool, *stream.DeadLetter) {
	if !fault.Quarantine {
		p.Apply(t, t.EventTime, log)
		return true, nil
	}
	if err := safePollute(p, t, t.EventTime, log); err != nil {
		log.Truncate(logMark)
		t.Quarantined = true
		dl := deadLetterFor(*t, "pollute", err)
		return false, &dl
	}
	return true, nil
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

// applyWithFault runs the pipeline over t honouring the fault policy.
// It reports whether the tuple survived; a non-nil error is fatal
// (quarantine overflow).
func applyWithFault(p *Pipeline, t *stream.Tuple, log *Log, fault FaultPolicy, dlq *stream.DeadLetterQueue, logMark int) (bool, error) {
	ok, dl := polluteOne(p, t, log, logMark, fault)
	if ok {
		return true, nil
	}
	return false, fault.record(dlq, *dl)
}
