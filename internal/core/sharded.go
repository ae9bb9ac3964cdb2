package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

// This file implements hash-sharded keyed execution: the pollution hot
// path of a keyed pipeline partitioned across N shard workers. Tuples
// are routed by a deterministic hash of their key attribute, each shard
// owns an independent pipeline instance (per-key state, sticky holds,
// frozen values, RNG streams), and a sequence-number merge re-emits
// tuples — and their pollution-log entries, dead letters and drops — in
// exactly the prepared input order.
//
// Handoff architecture. The feeder accumulates routed tuples into
// per-shard batches and hands each batch to its worker over a lock-free
// SPSC ring (stream.SPSC); the worker pollutes the batch in place and
// hands it to the merger over a second SPSC ring; the merger returns
// exhausted batches through a third ring so batch buffers (items, log
// entries, value arenas) recycle without allocation. Every
// synchronisation cost — two ring operations and a couple of counter
// updates — is paid once per batch (cfg.BatchSize tuples), not once per
// tuple, which is what makes the parallelism win back more than the
// fan-out/fan-in costs.
//
// Determinism argument. A keyed pipeline whose per-key instances derive
// ALL their state and randomness from the key (KeyedPolluter with a
// key-deriving factory, e.g. rng.Derive(seed, "noise/"+key)) computes a
// function of the per-key subsequence only. Hash sharding partitions
// the stream by key, so every shard sees each of its keys' subsequences
// in the original order; the per-tuple results are therefore identical
// to the sequential run, and the merge (by prepared sequence number)
// re-serialises tuples, log entries and dead letters into the
// sequential order. The output is byte-identical to RunStream —
// property-tested for 2/4/8 shards under -race. Batch boundaries are a
// function of the deterministic routing alone, and the merge never
// depends on them, so batching does not perturb the guarantee.
//
// Deadlock-freedom of the bounded merge. The merger holds at most one
// in-progress batch per shard and consumes strictly in sequence order,
// so it can stall only while the next sequence number is still inside
// the feeder's accumulators. The feeder therefore flushes accumulators
// oldest-first (by their first pending sequence number): whenever it
// blocks pushing a batch B, every sequence number below B's first is
// already in the rings, the merger drains them (per-shard ring order is
// sequence order), reaches B's first, and by then has emptied the very
// ring B is blocked on. No cycle, bounded memory.

// shardConfig configures runStreamSharded. Stream sets KeyAttr and
// Shards from the spec; the remaining knobs exist for the in-package
// property suites.
type shardConfig struct {
	// KeyAttr names the attribute whose value routes tuples to shards.
	// It should match the KeyAttr of the pipeline's keyed polluters.
	KeyAttr string
	// Shards is the number of parallel workers (Stream dispatches here
	// only for Shards > 1; RunStream is the sequential engine).
	Shards int
	// BatchSize is the number of tuples per ring handoff (default 128).
	// Larger batches amortise the fan-out/fan-in synchronisation
	// further at the cost of latency and per-shard memory.
	BatchSize int
	// Buffer is the per-shard in-flight tuple budget (default
	// 2*BatchSize). Tuples travel in batches over rings of
	// Buffer/BatchSize slots (minimum 2), so Buffer bounds memory and
	// sets how far a fast shard may run ahead of the merge.
	Buffer int
}

// runStreamSharded is the sharded runner behind Stream: the
// single-pipeline streaming workflow with the keyed hot path partitioned
// across cfg.Shards workers. The pipeline must consist of KeyedPolluters
// only; each shard pollutes through its own row step over fresh keyed
// polluters sharing the pipeline's per-key factories. Semantics match
// RunStream exactly — same output, same pollution log, same dead-letter
// order, same fail-fast error at the same tuple.
//
// Ownership: each shard has a private value arena. Workers clone incoming
// tuples into recycled per-batch value blocks instead of writing the
// source's buffers, so the source is never mutated and the steady state
// allocates nothing per tuple. Emitted tuples are loans — the consumer
// must be done with a tuple before its next Next call (clone to retain).
func (pr *Process) runStreamSharded(src stream.Source, reorderWindow int, cfg shardConfig) (stream.Source, *Log, error) {
	proto := pr.Pipelines[0]
	for _, p := range proto.Polluters {
		if _, ok := p.(*KeyedPolluter); !ok {
			return nil, nil, fmt.Errorf("core: sharded streaming needs a pipeline factory unless every polluter is keyed")
		}
	}
	if err := (StreamSpec{Shards: cfg.Shards, ShardKey: cfg.KeyAttr}).Validate(src.Schema()); err != nil {
		return nil, nil, err
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 128
	}
	buffer := cfg.Buffer
	if buffer <= 0 {
		buffer = 2 * batch
	}
	depth := buffer / batch
	if depth < 2 {
		depth = 2
	}
	in := pr.openStream(src, 0)
	// A shard's step has no dead-letter queue, so it returns its dead
	// letters for the merger to book in prepared order.
	steps := make([]rowStep, cfg.Shards)
	for i := range steps {
		pols := make([]Polluter, len(proto.Polluters))
		for j, p := range proto.Polluters {
			pols[j] = p.(*KeyedPolluter).CloneEmpty()
		}
		var scratch *Log
		if in.log != nil {
			// The scratch log carries the registry, so entry counts (and
			// condition hit/miss tallies) are booked — and rolled back — at
			// recording time; the merger then appends the surviving entries
			// to the uncounted merged log.
			scratch = &Log{Obs: pr.Obs}
		}
		steps[i] = pr.step(0, scratch, nil)
		steps[i].p = NewPipeline(pols...)
	}
	if in.log != nil {
		// The merged log deliberately carries no registry: its entries are
		// recorded (and counted) by the per-worker scratch logs and
		// appended here by the merger, so attaching the registry twice
		// would double count.
		in.log.Obs = nil
	}
	pr.Obs.SetShards(cfg.Shards)
	wrapped := reorderWindow > 1
	sh := &shardedSource{
		src:    pr.tapped(in.prep),
		schema: src.Schema(),
		steps:  steps,
		keyIdx: src.Schema().Index(cfg.KeyAttr),
		batch:  batch,
		depth:  depth,
		width:  src.Schema().Len(),
		// An arena batch may be reused only after the consumer can no
		// longer reference its tuples. With the merger emitting straight
		// to the consumer that bound is the one loaned tuple; a bounded
		// reorder buffer downstream voids any emission-count bound (a
		// heavily delayed tuple stays buffered while arbitrarily many
		// later arrivals stream past it), so under a reorder window
		// retired batches are left to the GC instead of recycled.
		recycle: !wrapped,
		log:     in.log,
		dlq:     in.dlq,
		reg:     pr.Obs,
	}
	return reordered(sh, reorderWindow), in.log, nil
}

// shardItem is one tuple in flight to a shard worker.
type shardItem struct {
	seq uint64
	t   stream.Tuple
}

// shardBatch is the unit of handoff between the feeder, one worker and
// the merger. It carries the routed tuples, their sequence numbers, the
// pollution-log entries the worker recorded (a flat arena indexed by
// per-item offsets, replacing a per-tuple entry-slice allocation), any
// dead letters, and the value block backing the polluted tuples.
// Batches recycle through a per-shard free ring, so the steady state
// allocates nothing.
type shardBatch struct {
	items    []shardItem
	entryBuf []Entry              // flat log-entry arena for the whole batch
	entryOff []int32              // entryOff[i]..entryOff[i+1] are item i's entries
	dls      []*stream.DeadLetter // per-item dead letters (nil when none in batch)
	vals     []stream.Value       // arena block backing the cloned tuples
	err      error                // fatal pipeline error; items holds the valid prefix
	errSeq   uint64               // sequence number of the failing tuple
}

// reset prepares a batch for reuse. The items are not cleared: their
// tuples point into b.vals, which the batch retains (and overwrites)
// anyway.
func (b *shardBatch) reset() {
	b.items = b.items[:0]
	b.entryBuf = b.entryBuf[:0]
	b.entryOff = b.entryOff[:0]
	b.dls = nil
	b.err = nil
	b.errSeq = 0
}

// retiredBatch is an exhausted arena batch awaiting recycling; mark is
// the merger's emission count at retirement (see shardedSource.margin).
type retiredBatch struct {
	shard int
	b     *shardBatch
	mark  uint64
}

// shardedSource fans prepared tuples out to shard workers over SPSC
// rings and merges the results back by sequence number. It is a
// consumer-driven state machine: lazily started, stopping promptly on
// the first fatal error, releasing all goroutines on Stop.
type shardedSource struct {
	src     stream.Source
	schema  *stream.Schema
	steps   []rowStep // one per shard, owned by its worker
	keyIdx  int
	batch   int
	depth   int
	width   int
	recycle bool // arena batches may be recycled (no reorder buffer downstream)
	log     *Log
	dlq     *stream.DeadLetterQueue
	reg     *obs.Registry

	started  bool
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	ins      []*stream.SPSC[*shardBatch] // feeder -> worker
	outs     []*stream.SPSC[*shardBatch] // worker -> merger
	frees    []*stream.SPSC[*shardBatch] // merger -> feeder (recycling)
	srcErr   error                       // feeder's fatal source error; written before ins close

	// merger state; touched by the consumer goroutine only
	cur      []*shardBatch
	pos      []int
	finished []bool
	nFin     int
	nextSeq  uint64
	emitted  uint64
	retired  []retiredBatch
	err      error
	closed   bool
}

// Schema implements stream.Source.
func (s *shardedSource) Schema() *stream.Schema { return s.schema }

func (s *shardedSource) start() {
	s.started = true
	n := len(s.steps)
	s.done = make(chan struct{})
	s.ins = make([]*stream.SPSC[*shardBatch], n)
	s.outs = make([]*stream.SPSC[*shardBatch], n)
	s.frees = make([]*stream.SPSC[*shardBatch], n)
	for i := 0; i < n; i++ {
		s.ins[i] = stream.NewSPSC[*shardBatch](s.depth)
		s.outs[i] = stream.NewSPSC[*shardBatch](s.depth)
		// The free ring must absorb every batch the other two rings,
		// the feeder, the merger and the retirement margin can hold.
		s.frees[i] = stream.NewSPSC[*shardBatch](3*s.depth + 2)
	}
	s.cur = make([]*shardBatch, n)
	s.pos = make([]int, n)
	s.finished = make([]bool, n)
	for i := 0; i < n; i++ {
		in, out := s.ins[i], s.outs[i]
		s.reg.RegisterFunc(fmt.Sprintf("shard%d_in_ring_occupancy", i),
			func() uint64 { return uint64(in.Len()) })
		s.reg.RegisterFunc(fmt.Sprintf("shard%d_out_ring_occupancy", i),
			func() uint64 { return uint64(out.Len()) })
	}
	s.wg.Add(n + 1)
	for w := 0; w < n; w++ {
		go s.worker(w)
	}
	go s.feed()
}

// grab returns a recycled batch for a shard, or a fresh one when the
// free ring is empty (startup, or the merger is holding everything).
func (s *shardedSource) grab(shard int) *shardBatch {
	if b, ok := s.frees[shard].TryPop(); ok {
		return b
	}
	return &shardBatch{items: make([]shardItem, 0, s.batch)}
}

// feed routes prepared tuples into per-shard batch accumulators and
// dispatches full batches to the workers. Accumulators are flushed
// oldest-first by their first pending sequence number — the invariant
// the merge's deadlock-freedom rests on (see the file comment).
func (s *shardedSource) feed() {
	defer s.wg.Done()
	n := len(s.steps)
	acc := make([]*shardBatch, n)
	first := make([]uint64, n)
	order := make([]int, 0, n)
	var seq uint64

	dispatch := func(shard int) bool {
		b := acc[shard]
		acc[shard] = nil
		s.reg.Add(obs.CTuplesIn, uint64(len(b.items)))
		s.reg.AddShard(shard, uint64(len(b.items)))
		if !s.ins[shard].Push(b, s.done) {
			// An abandoned ring means the worker hit a fatal error:
			// every sequence number still routed here lies beyond the
			// failure point, so the batch is discarded and feeding
			// continues for the other shards. A done close means the
			// whole run is stopping.
			return s.ins[shard].Abandoned()
		}
		return true
	}
	// flushUpTo dispatches every accumulator whose first pending
	// sequence number is <= limit, oldest first.
	flushUpTo := func(limit uint64) bool {
		order = order[:0]
		for sh, b := range acc {
			if b != nil && len(b.items) > 0 && first[sh] <= limit {
				order = append(order, sh)
			}
		}
		// Insertion sort by first pending seq: n is tiny and this
		// avoids a sort.Slice closure allocation per flush.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && first[order[j]] < first[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for _, sh := range order {
			if !dispatch(sh) {
				return false
			}
		}
		return true
	}

feed:
	for {
		select {
		case <-s.done:
			break feed
		default:
		}
		t, err := s.src.Next()
		if err != nil {
			if err != io.EOF {
				s.srcErr = err
			}
			break
		}
		shard := int(hashKey(t.At(s.keyIdx)) % uint64(n))
		b := acc[shard]
		if b == nil {
			b = s.grab(shard)
			acc[shard] = b
			first[shard] = seq
		}
		b.items = append(b.items, shardItem{seq: seq, t: t})
		seq++
		if len(b.items) >= s.batch && !flushUpTo(first[shard]) {
			break feed
		}
	}
	flushUpTo(seq)
	for _, in := range s.ins {
		in.Close()
	}
}

// worker pollutes the batches of one shard in place through the shard's
// row step, then forwards them to the merger. Each tuple is first cloned
// into the batch's value block, so the source's buffers are never
// written, and the step's scratch log records straight into the batch's
// flat entry arena. On a fatal error it ships the batch's valid prefix
// with the error attached, so the merge stops exactly where the
// sequential run would, abandons its inbound ring so the feeder stops
// queueing for it, and exits.
func (s *shardedSource) worker(shard int) {
	defer s.wg.Done()
	in, out := s.ins[shard], s.outs[shard]
	defer out.Close()
	step := &s.steps[shard]
	for {
		b, ok := in.Pop(s.done)
		if !ok {
			return
		}
		if need := len(b.items) * s.width; cap(b.vals) < need {
			b.vals = make([]stream.Value, need)
		}
		if step.log != nil {
			step.log.Entries = b.entryBuf[:0]
		}
		b.entryOff = append(b.entryOff[:0], 0)
		for i := range b.items {
			item := &b.items[i]
			item.t.CloneValuesInto(b.vals[i*s.width : i*s.width : (i+1)*s.width])
			dl, err := step.pollute(&item.t)
			if err != nil {
				b.err, b.errSeq, b.items = err, item.seq, b.items[:i]
				break
			}
			if dl != nil {
				if b.dls == nil {
					b.dls = make([]*stream.DeadLetter, len(b.items))
				}
				b.dls[i] = dl
			}
			b.entryOff = append(b.entryOff, int32(step.log.Len()))
		}
		if step.log != nil {
			b.entryBuf = step.log.Entries
		}
		fatal := b.err != nil
		if !out.Push(b, s.done) {
			return
		}
		if fatal {
			in.Abandon()
			return
		}
	}
}

// Next implements stream.Source: the merge. It restores prepared order
// by scanning the <= Shards current batch heads for the next sequence
// number (each prepared seq is owned by exactly one shard and per-shard
// output is seq-ordered, so the scan is exact), appends the per-tuple
// log entries and dead letters in emission order, filters dropped and
// quarantined tuples, and — after the first fatal error — consistently
// returns that error.
func (s *shardedSource) Next() (stream.Tuple, error) {
	if !s.started {
		if s.err != nil {
			return stream.Tuple{}, s.err
		}
		s.start()
	}
	s.recycleRetired()
	for spins := 0; ; {
		if s.err != nil {
			return stream.Tuple{}, s.err
		}
		if s.closed {
			return stream.Tuple{}, io.EOF
		}
		progress := s.advance()
		t, emitted, consumed := s.serve()
		if emitted {
			return t, nil
		}
		if consumed {
			spins = 0
			continue
		}
		if s.nFin == len(s.cur) {
			// All workers done and everything merged.
			if s.srcErr != nil {
				s.fail(s.srcErr)
				continue
			}
			s.closed = true
			continue
		}
		if progress {
			spins = 0
			continue
		}
		// Starved: the next batch is still being polluted. Yield
		// briefly, then park in short sleeps — flooding the scheduler
		// with spins is counterproductive when shards exceed cores.
		spins++
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// advance retires exhausted current batches and pulls newly available
// ones from the out rings, reporting whether anything changed. A batch
// carrying a fatal error is held after exhaustion until the merge
// reaches its error position.
func (s *shardedSource) advance() bool {
	progress := false
	for sh := range s.cur {
		b := s.cur[sh]
		if b != nil && s.pos[sh] >= len(b.items) && b.err == nil {
			s.retire(sh)
			b = nil
			progress = true
		}
		if b == nil && !s.finished[sh] {
			if nb, ok := s.outs[sh].TryPop(); ok {
				s.cur[sh], s.pos[sh] = nb, 0
				progress = true
			} else if s.outs[sh].Drained() {
				s.finished[sh] = true
				s.nFin++
				progress = true
			}
		}
	}
	return progress
}

// serve consumes the item carrying the next sequence number, if it is
// available. Returns the tuple (when one was emitted), whether a
// tuple was emitted, and whether any item was consumed.
func (s *shardedSource) serve() (stream.Tuple, bool, bool) {
	for sh := range s.cur {
		b := s.cur[sh]
		if b == nil {
			continue
		}
		if s.pos[sh] < len(b.items) {
			if b.items[s.pos[sh]].seq == s.nextSeq {
				t, ok := s.consume(sh)
				return t, ok, true
			}
		} else if b.err != nil && b.errSeq == s.nextSeq {
			// Every sequence number below the failure has been
			// emitted; surface the error at exactly its position.
			s.fail(b.err)
			return stream.Tuple{}, false, true
		}
	}
	return stream.Tuple{}, false, false
}

// consume takes the current item of shard sh: books its log entries
// and dead letter, filters drops and quarantines, and returns the
// tuple when it survives.
func (s *shardedSource) consume(sh int) (stream.Tuple, bool) {
	b := s.cur[sh]
	i := s.pos[sh]
	it := &b.items[i]
	s.pos[sh] = i + 1
	s.nextSeq = it.seq + 1
	if s.log != nil && len(b.entryOff) > i+1 {
		lo, hi := b.entryOff[i], b.entryOff[i+1]
		if hi > lo {
			s.log.Entries = append(s.log.Entries, b.entryBuf[lo:hi]...)
		}
	}
	if b.dls != nil && b.dls[i] != nil {
		if err := s.steps[sh].fault.record(s.dlq, *b.dls[i]); err != nil {
			s.fail(err)
			return stream.Tuple{}, false
		}
	}
	if it.t.Quarantined {
		return stream.Tuple{}, false
	}
	if it.t.Dropped {
		s.reg.Inc(obs.CTuplesDropped)
		return stream.Tuple{}, false
	}
	s.reg.Inc(obs.CTuplesOut)
	s.emitted++
	return it.t, true
}

// arenaMargin is how many merger emissions must pass after an arena
// batch retires before its value block may be reused: the consumer's
// one loaned tuple, plus slack for the emission in flight.
const arenaMargin = 3

// retire hands an exhausted batch back for recycling: it waits in a
// small FIFO until the consumer can no longer hold a loaned tuple
// backed by its value block — unless a reorder buffer sits downstream
// (s.recycle false), in which case tuple lifetimes are unbounded in
// emissions and the batch is simply dropped to the GC.
func (s *shardedSource) retire(sh int) {
	b := s.cur[sh]
	s.cur[sh] = nil
	if !s.recycle {
		return
	}
	s.retired = append(s.retired, retiredBatch{shard: sh, b: b, mark: s.emitted})
}

// recycleRetired returns arena batches whose retirement margin has
// passed to their shard's free ring. Called at the top of Next, when
// the consumer has relinquished the previously loaned tuple.
func (s *shardedSource) recycleRetired() {
	n := 0
	for _, rb := range s.retired {
		if s.emitted-rb.mark < arenaMargin {
			break
		}
		rb.b.reset()
		s.frees[rb.shard].TryPush(rb.b) // a full free ring drops the batch to the GC
		n++
	}
	if n > 0 {
		s.retired = append(s.retired[:0], s.retired[n:]...)
	}
}

func (s *shardedSource) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.stop()
}

func (s *shardedSource) stop() {
	s.stopOnce.Do(func() { close(s.done) })
}

// Stop implements stream.Stopper: it releases the feeder and worker
// goroutines of an abandoned stream. Subsequent Next calls return
// stream.ErrStopped (or the earlier fatal error, if any).
func (s *shardedSource) Stop() {
	if !s.started {
		if s.err == nil {
			s.err = stream.ErrStopped
		}
		return
	}
	if s.err == nil {
		s.err = stream.ErrStopped
	}
	s.stop()
	s.wg.Wait()
}

// hashKey maps a key value to a deterministic 64-bit hash (FNV-1a over
// the kind tag and raw payload), allocation-free for every kind — in
// particular it never renders floats or timestamps to strings on the
// hot path.
func hashKey(v stream.Value) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	h ^= uint64(v.Kind())
	h *= prime64
	switch v.Kind() {
	case stream.KindFloat:
		f, _ := v.AsFloat()
		mix(math.Float64bits(f))
	case stream.KindInt:
		i, _ := v.AsInt()
		mix(uint64(i))
	case stream.KindString:
		str, _ := v.AsString()
		for i := 0; i < len(str); i++ {
			h ^= uint64(str[i])
			h *= prime64
		}
	case stream.KindBool:
		b, _ := v.AsBool()
		if b {
			mix(1)
		} else {
			mix(0)
		}
	case stream.KindTime:
		t, _ := v.AsTime()
		mix(uint64(t.UnixNano()))
	}
	return h
}
