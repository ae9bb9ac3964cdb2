package core

import (
	"fmt"
	"io"
	"time"

	"icewafl/internal/obs"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// This file implements RunStreamColumnar, the columnar end-to-end hot
// path: instead of pulling tuples one by one through the pipeline, the
// runner fills a reused ColumnBatch, executes the pipeline as
// vectorised sweeps over the column arrays (kernel.go), and emits the
// surviving rows. The output is byte-identical to RunStream — same
// tuples, same pollution-log entries in the same order, same dead
// letters, same observability counter totals — which the differential
// suite in columnar_diff_test.go asserts over randomised configurations.
//
// The compiler is conservative: whenever a pipeline component's
// semantics could observe the execution order difference between
// tuple-major and polluter-major traversal (an RNG stream reached from
// two places, a component whose table entry is not row-local — such as
// the cascade and deviation conditions, which couple rows through the
// log and observer state — or one the table does not know, or
// quarantine fault attribution), the whole plan collapses to row-wise
// execution over the batch — still batched ingest and emission, but
// per-row pollution through the row step every runner uses.
// Collapse changes performance, never output.
//
// Span tracing follows the execution shape: the vectorised path emits
// one batch-granular obs.StagePollute span per kernel invocation —
// identified by the batch's first tuple ID and tagged with the batch
// row count (Span.Rows) — while the row-wise collapse path emits the
// same per-tuple sampled spans as the scalar runner. Span counts
// therefore differ between the paths by design; span presence and the
// latency histogram totals do not.

// DefaultColumnarBatch is RunStreamColumnar's micro-batch size in rows.
const DefaultColumnarBatch = 256

// colStep is one top-level pipeline step of a compiled columnar plan:
// either a vectorised standard polluter (cond+err kernels) or a
// row-major shim around an opaque-but-safe polluter (composites).
type colStep struct {
	// Vectorised form (shim == nil).
	cond    condKernel
	err     errKernel
	name    string
	errKind string
	attrs   []string
	hits    stream.Selection

	// Row-major shim form.
	shim Polluter

	// Per-batch log scratch: entries this step recorded, with the batch
	// row of each entry. Counters tick at Record time (scratch.Obs);
	// the merge appends entries without recounting.
	scratch *Log
	rows    []int32
	cursor  int
}

// run executes the step over all rows of b.
func (s *colStep) run(b *stream.ColumnBatch, all stream.Selection, rowBuf *[]stream.Value) {
	if s.shim != nil {
		taus := b.EventTimes()
		for _, r := range all {
			t := b.RowInto(*rowBuf, int(r))
			*rowBuf = t.Values()
			mark := 0
			if s.scratch != nil {
				mark = len(s.scratch.Entries)
			}
			s.shim.Pollute(&t, taus[r], s.scratch)
			if s.scratch != nil {
				for i := mark; i < len(s.scratch.Entries); i++ {
					s.rows = append(s.rows, r)
				}
			}
			b.SetRow(int(r), t)
		}
		return
	}
	s.hits = s.cond(b, all, s.hits[:0])
	if s.scratch != nil && s.scratch.Obs != nil {
		// Bulk form of the per-tuple condHit/condMiss bookkeeping.
		s.scratch.Obs.Add(obs.CCondHits, uint64(len(s.hits)))
		s.scratch.Obs.Add(obs.CCondMisses, uint64(len(all)-len(s.hits)))
	}
	s.err(b, s.hits)
	if s.scratch != nil {
		ids := b.IDs()
		taus := b.EventTimes()
		for _, r := range s.hits {
			s.scratch.Record(Entry{
				TupleID:   ids[r],
				EventTime: taus[r],
				Polluter:  s.name,
				Error:     s.errKind,
				Attrs:     s.attrs,
			})
			s.rows = append(s.rows, r)
		}
	}
}

// mergeStepLogs folds the per-step scratch logs into the run log in
// row-major order — the order the tuple-wise runner records entries —
// and resets the scratches for the next batch. Entries were already
// counted at Record time, so the merge appends without recounting.
func mergeStepLogs(steps []colStep, log *Log, n int) {
	if log == nil {
		return
	}
	for row := int32(0); row < int32(n); row++ {
		for si := range steps {
			st := &steps[si]
			for st.cursor < len(st.rows) && st.rows[st.cursor] == row {
				log.Entries = append(log.Entries, st.scratch.Entries[st.cursor])
				st.cursor++
			}
		}
	}
	for si := range steps {
		st := &steps[si]
		st.scratch.Entries = st.scratch.Entries[:0]
		st.rows = st.rows[:0]
		st.cursor = 0
	}
}

// compileColumnarPlan compiles p into vectorised steps. A non-empty
// reason means the plan cannot run polluter-major and the runner must
// collapse to row-wise execution (reason is diagnostic only). It
// collapses on exactly three conditions: (a) quarantine; (b) a component
// anywhere in the pipeline whose table entry is not row-local, or that
// has none (observers, keyed polluters, cascade and deviation
// conditions, custom components); (c) one RNG stream reached at two
// paths of the component walk, whose draws a sweep would interleave
// differently from tuple-major execution. One walk decides (b) and (c),
// so every top-level polluter left is a standard or a composite one.
func compileColumnarPlan(p *Pipeline, schema *stream.Schema, quarantine bool) (steps []colStep, reason string) {
	if quarantine {
		// Quarantine attributes pipeline panics to single rows and rolls
		// the log back per tuple; only row-at-a-time execution can do
		// that.
		return nil, "quarantine requires per-row fault attribution"
	}
	seen := make(map[*rng.Stream]string)
	err := walkPipeline(p, visitor{
		node: func(path string, c any, e *Component) error {
			if e == nil || !e.RowLocal {
				return fmt.Errorf("%T at %s requires row-wise execution", c, path)
			}
			return nil
		},
		rand: func(path string, r *rng.Stream) error {
			if prev, dup := seen[r]; dup {
				return fmt.Errorf("rng stream shared by %s and %s", prev, path)
			}
			seen[r] = path
			return nil
		},
	})
	if err != nil {
		return nil, err.Error()
	}
	for _, pol := range p.Polluters {
		switch v := pol.(type) {
		case *Standard:
			steps = append(steps, colStep{
				cond:    compileCond(v.Cond, schema),
				err:     compileErr(v.Err, v.Attrs, schema),
				name:    v.PolluterName,
				errKind: v.Err.Kind(),
				attrs:   v.Attrs,
			})
		case *Composite:
			// A composite dispatches per tuple (mode, choice draws,
			// sequence of children); it runs as one row-major shim step.
			steps = append(steps, colStep{shim: v})
		}
	}
	return steps, ""
}

// RunStreamColumnar is Stream's columnar shape: the single-pipeline
// workflow of RunStream over columnar micro-batches. The emitted stream,
// the pollution log, the dead-letter queue and the observability counter
// totals are byte-identical to RunStream over the same source; only
// throughput differs. The wrapper chain is RunStream's (openStream →
// pollution → optional bounded reorder).
//
// When the raw source implements stream.ColumnBatchReader and
// quarantine is off, ingest is batch-native: rows decode straight into
// the runner's column buffers and preparation (ID assignment, τ
// extraction) runs as column sweeps, bypassing per-tuple
// materialisation entirely.
//
// Ownership: the runner owns one ColumnBatch and pollutes it in place;
// source tuples are copied into it, never written. A ReadBatch consumer
// receives bulk column copies into its own dst batch (which it may
// Reset and reuse between calls); a Next consumer receives freshly
// materialised tuples it may retain.
func (pr *Process) RunStreamColumnar(src stream.Source, reorderWindow int) (stream.Source, *Log, error) {
	run, err := pr.Stream(src, StreamSpec{Reorder: reorderWindow, Columnar: true})
	if err != nil {
		return nil, nil, err
	}
	return run.Source, run.Log, nil
}

// runStreamColumnar is the columnar runner behind Stream.
func (pr *Process) runStreamColumnar(src stream.Source, reorderWindow int) (stream.Source, *Log, error) {
	in := pr.openStream(src, 0)
	log := in.log
	schema := src.Schema()
	batchSize := pr.columnarBatch
	if batchSize <= 0 {
		batchSize = DefaultColumnarBatch
	}

	steps, collapse := compileColumnarPlan(pr.Pipelines[0], schema, pr.Fault.Quarantine)
	if collapse == "" && log != nil {
		for i := range steps {
			steps[i].scratch = &Log{Obs: log.Obs}
		}
	}

	runner := &columnarRunner{
		schema:    schema,
		src:       in.prep,
		steps:     steps,
		rowWise:   collapse != "",
		rowStep:   pr.step(0, log, in.dlq),
		tap:       pr.CleanTap,
		batchSize: batchSize,
		batch:     stream.NewColumnBatch(schema, batchSize),
	}
	if cbr, ok := src.(stream.ColumnBatchReader); ok && !pr.Fault.Quarantine {
		// Batch-native ingest replicates the wrapper chain's per-row
		// effects (source counting, ID/τ/arrival assignment) itself.
		runner.batchSrc = cbr
		runner.nextID = in.prep.NextID()
		runner.tsIdx = schema.TimestampIndex()
	}
	return reordered(runner, reorderWindow), log, nil
}

// columnarRunner is the fused batch-fill → pollute → emit operator of
// columnar streaming mode.
type columnarRunner struct {
	schema   *stream.Schema
	src      *stream.Prepare
	batchSrc stream.ColumnBatchReader
	nextID   uint64
	tsIdx    int

	steps   []colStep
	rowWise bool
	rowStep
	tap func(stream.Tuple)

	batchSize int
	batch     *stream.ColumnBatch
	all       stream.Selection
	rowBuf    []stream.Value

	// pos..limit are the processed rows still to emit; pendingErr is a
	// source or fault error stashed until the rows that precede it have
	// been delivered, preserving the tuple/error order of the scalar
	// runner.
	pos, limit int
	pendingErr error
	done       bool
}

// Schema implements stream.Source.
func (r *columnarRunner) Schema() *stream.Schema { return r.schema }

// Next implements stream.Source.
func (r *columnarRunner) Next() (stream.Tuple, error) {
	for {
		for r.pos < r.limit {
			row := r.pos
			r.pos++
			if r.batch.QuarantinedMask()[row] {
				continue
			}
			if r.batch.DroppedMask()[row] {
				r.reg.Inc(obs.CTuplesDropped)
				continue
			}
			r.reg.Inc(obs.CTuplesOut)
			return r.batch.Row(row), nil
		}
		if r.pendingErr != nil {
			err := r.pendingErr
			if !r.done {
				r.pendingErr = nil
			}
			return stream.Tuple{}, err
		}
		if r.done {
			return stream.Tuple{}, io.EOF
		}
		r.fill()
		r.process()
	}
}

// ReadBatch implements stream.ColumnBatchReader: the runner serves its
// processed rows batch-at-a-time, so a batch-native consumer (the
// netstream columnar encoder, batch sinks) never materialises tuples.
// Emission semantics and counter effects are exactly those of Next —
// quarantined rows are filtered, dropped rows are filtered and counted
// — delivered as bulk column copies of the surviving row runs. Note
// the returned rows are appended to dst, so interleaving ReadBatch and
// Next is well-defined (each row is delivered exactly once).
func (r *columnarRunner) ReadBatch(dst *stream.ColumnBatch, max int) (int, error) {
	appended := 0
	for appended < max {
		if r.pos < r.limit {
			quar := r.batch.QuarantinedMask()
			drop := r.batch.DroppedMask()
			row := r.pos
			if quar[row] {
				r.pos++
				continue
			}
			if drop[row] {
				r.reg.Inc(obs.CTuplesDropped)
				r.pos++
				continue
			}
			end := row + 1
			for end < r.limit && appended+(end-row) < max && !quar[end] && !drop[end] {
				end++
			}
			if err := dst.AppendBatchRows(r.batch, row, end); err != nil {
				return appended, err
			}
			r.reg.Add(obs.CTuplesOut, uint64(end-row))
			appended += end - row
			r.pos = end
			continue
		}
		if r.pendingErr != nil {
			// Rows read before the failure stay appended, per the
			// ColumnBatchReader contract.
			err := r.pendingErr
			if !r.done {
				r.pendingErr = nil
			}
			return appended, err
		}
		if r.done {
			if appended == 0 {
				return 0, io.EOF
			}
			return appended, nil
		}
		r.fill()
		r.process()
	}
	return appended, nil
}

// fill pulls the next micro-batch. A mid-batch source error is stashed
// as pendingErr so the rows read before it still flow — the scalar
// runner would have delivered them before surfacing the error.
func (r *columnarRunner) fill() {
	r.batch.Reset()
	r.pos, r.limit = 0, 0
	if r.batchSrc != nil {
		r.fillNative()
		return
	}
	for r.batch.Len() < r.batchSize {
		t, err := r.src.Next()
		if err != nil {
			if stream.IsEndOfStream(err) {
				r.done = true
			} else {
				r.pendingErr = err
			}
			return
		}
		if r.tap != nil {
			r.tap(t)
		}
		r.reg.Inc(obs.CTuplesIn)
		if aerr := r.batch.AppendTuple(t); aerr != nil {
			r.pendingErr = aerr
			return
		}
	}
}

// fillNative is the batch-native ingest path: the source decodes rows
// directly into the column buffers and the per-row effects of the
// tuple-wise wrapper chain — ObserveSource counting, Prepare's ID/τ/
// arrival assignment, the clean tap, the tuples-in counter — are
// replicated as column sweeps.
func (r *columnarRunner) fillNative() {
	_, err := r.batchSrc.ReadBatch(r.batch, r.batchSize)
	n := r.batch.Len()
	r.reg.Add(obs.CSourceRows, uint64(n))
	for row := 0; row < n; row++ {
		r.batch.SetID(row, r.nextID)
		r.nextID++
		tau, ok := r.batch.Value(row, r.tsIdx).AsTime()
		if !ok {
			tau = time.Time{}
		}
		r.batch.SetEventTime(row, tau)
		r.batch.SetArrival(row, tau)
		if r.tap != nil {
			r.tap(r.batch.Row(row))
		}
	}
	r.reg.Add(obs.CTuplesIn, uint64(n))
	if err != nil {
		if stream.IsEndOfStream(err) {
			r.done = true
			return
		}
		if _, ok := stream.AsTupleError(err); ok {
			// ObserveSource counts a malformed row as a source row too.
			r.reg.Inc(obs.CSourceRows)
			r.reg.Inc(obs.CSourceErrors)
		}
		r.pendingErr = err
	}
}

// process pollutes the filled batch in place and sets the emission
// window.
func (r *columnarRunner) process() {
	n := r.batch.Len()
	r.limit = n
	if n == 0 {
		return
	}
	if r.rowWise {
		for row := 0; row < n; row++ {
			t := r.batch.RowInto(r.rowBuf, row)
			r.rowBuf = t.Values()
			// A skipped tuple carries Quarantined and is filtered at
			// emission.
			_, ferr := r.pollute(&t)
			r.batch.SetRow(row, t)
			if ferr != nil {
				// Fatal (quarantine overflow): deliver the rows before the
				// failure, then surface the error and stop.
				r.limit = row
				r.pendingErr = ferr
				r.done = true
				return
			}
		}
		return
	}
	r.all = r.all.FillAll(n)
	if r.trace {
		// Batch-granular tracing: one StagePollute span per kernel
		// invocation, identified by the batch's first tuple ID and tagged
		// with the batch row count. Clock reads stay off the untraced
		// path.
		firstID := r.batch.IDs()[0]
		for si := range r.steps {
			start := time.Now()
			r.steps[si].run(r.batch, r.all, &r.rowBuf)
			r.reg.ObserveBatchSpan(obs.StagePollute, firstID, n, time.Since(start))
		}
	} else {
		for si := range r.steps {
			r.steps[si].run(r.batch, r.all, &r.rowBuf)
		}
	}
	mergeStepLogs(r.steps, r.log, n)
}
