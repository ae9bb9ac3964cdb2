package core

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

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
// per-shard batches and sends each to its worker over a buffered
// channel; the worker pollutes it in place and sends it on to the
// merger; the merger returns exhausted batches over a third channel,
// so batch buffers (items, log entries, value arenas) recycle without
// allocation. With each batch the feeder sends its shard on the
// tickets channel, which tells the merger where the next sequence
// number is. Synchronisation is paid once per batch (cfg.BatchSize
// tuples), not once per tuple.
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
// property-tested for 2/4/8 shards under -race. Batch boundaries never
// reach the output, so neither batching nor early flushes perturb the
// guarantee.
//
// Tickets and deadlock-freedom. The feeder dispatches batches
// oldest-first (by first sequence number), so tickets arrive in that
// order. Everything below nextSeq has been emitted, so when no batch
// the merger holds carries nextSeq, the next ticket is the batch that
// starts at it, and the merger blocks only on the batch it needs. A
// feeder blocked sending batch B has already ticketed everything below
// B's first sequence number; the merger drains those, and with them
// the channel B waits on. No cycle, bounded memory.
//
// Live sources. A merger that finds no ticket sets the waiting flag and
// flushes the pending accumulators itself if the feeder does not hold
// them; otherwise the feeder sees the flag once it lets them go and
// flushes before it reads the source again. A tuple therefore never
// waits for its batch to fill while the source blocks.

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
	// BatchSize is the number of tuples per handoff (default 128).
	// Larger batches amortise synchronisation further, costing memory.
	BatchSize int
	// Buffer is the per-shard in-flight tuple budget (default
	// 2*BatchSize). Tuples travel in batches over channels of
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
	depth := max(buffer/batch, 2)
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
		recycle: reorderWindow <= 1,
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
// pollution-log entries the worker recorded (entry blocks indexed by
// per-item offsets, replacing a per-tuple entry-slice allocation), any
// dead letters, and the value block backing the polluted tuples.
// Batches recycle through a per-shard free channel, so the steady state
// allocates nothing.
type shardBatch struct {
	items    []shardItem
	entries  entryBlocks          // log-entry arena for the whole batch
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
	b.entries.n = 0
	b.entryOff = b.entryOff[:0]
	b.dls, b.err, b.errSeq = nil, nil, 0
}

// retiredBatch is an exhausted arena batch awaiting recycling; mark is
// the merger's emission count at retirement (see arenaMargin).
type retiredBatch struct {
	shard int
	b     *shardBatch
	mark  uint64
}

// shardedSource fans prepared tuples out to shard workers over
// channels and merges the results back by sequence number. It is a
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
	ins      []chan *shardBatch // feeder -> worker
	outs     []chan *shardBatch // worker -> merger
	frees    []chan *shardBatch // merger -> feeder (recycling)
	tickets  chan int           // shard of each dispatched batch, oldest first
	srcErr   error              // feeder's fatal source error; written before tickets close

	// pending accumulators, flushed by the feeder or a starved merger
	mu      sync.Mutex
	acc     []*shardBatch
	first   []uint64 // first[sh] is acc[sh]'s first sequence number
	order   []int    // flush scratch
	waiting atomic.Bool

	// merger state; touched by the consumer goroutine only
	cur     []*shardBatch
	pos     []int
	nextSeq uint64
	emitted uint64
	retired []retiredBatch
	err     error
	closed  bool
}

// Schema implements stream.Source.
func (s *shardedSource) Schema() *stream.Schema { return s.schema }

func (s *shardedSource) start() {
	s.started = true
	n := len(s.steps)
	s.done = make(chan struct{})
	s.ins, s.outs, s.frees = make([]chan *shardBatch, n), make([]chan *shardBatch, n), make([]chan *shardBatch, n)
	// Until the merger takes its ticket, a dispatched batch sits in ins,
	// its worker or outs, so live workers never fill the tickets channel.
	s.tickets = make(chan int, n*(2*s.depth+1))
	for i := range n {
		in, out := make(chan *shardBatch, s.depth), make(chan *shardBatch, s.depth)
		s.ins[i], s.outs[i] = in, out
		// Room for every batch the others, feeder, merger and margin hold.
		s.frees[i] = make(chan *shardBatch, 3*s.depth+2)
		s.reg.RegisterFunc(fmt.Sprintf("shard%d_in_ring_occupancy", i),
			func() uint64 { return uint64(len(in)) })
		s.reg.RegisterFunc(fmt.Sprintf("shard%d_out_ring_occupancy", i),
			func() uint64 { return uint64(len(out)) })
	}
	s.acc, s.first, s.order = make([]*shardBatch, n), make([]uint64, n), make([]int, 0, n)
	s.cur, s.pos = make([]*shardBatch, n), make([]int, n)
	s.wg.Add(n + 1)
	for w := range n {
		go s.worker(w)
	}
	go s.feed()
}

// grab returns a recycled batch for a shard, or a fresh one when the
// free channel is empty (startup, or the merger is holding everything).
func (s *shardedSource) grab(shard int) *shardBatch {
	select {
	case b := <-s.frees[shard]:
		return b
	default:
		return &shardBatch{items: make([]shardItem, 0, s.batch)}
	}
}

// feed routes prepared tuples into per-shard batch accumulators and
// dispatches full batches to the workers, and every pending one when
// the merger is waiting (see the file comment).
func (s *shardedSource) feed() {
	defer s.wg.Done()
	n, seq := uint64(len(s.steps)), uint64(0)
	for ok := true; ok; {
		select {
		case <-s.done:
			ok = false
			continue
		default:
		}
		t, err := s.src.Next()
		if err != nil {
			if err != io.EOF {
				s.srcErr = err
			}
			break
		}
		shard := int(hashKey(t.At(s.keyIdx)) % n)
		s.mu.Lock()
		b := s.acc[shard]
		if b == nil {
			b = s.grab(shard)
			s.acc[shard], s.first[shard] = b, seq
		}
		b.items = append(b.items, shardItem{seq: seq, t: t})
		seq++
		ok = len(b.items) < s.batch || s.flushUpTo(s.first[shard])
		s.mu.Unlock()
		// The merger may have asked while the lock was held.
		if ok && s.waiting.Load() {
			s.mu.Lock()
			ok = s.flushUpTo(math.MaxUint64)
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushUpTo(math.MaxUint64)
	clear(s.acc)
	for _, in := range s.ins {
		close(in)
	}
	close(s.tickets)
}

// flushUpTo dispatches every accumulator whose first pending sequence
// number is <= limit, oldest first. The caller holds s.mu across the
// sends: the merger only ever TryLocks it, so a feeder blocked here
// holds up no one who could unblock it.
func (s *shardedSource) flushUpTo(limit uint64) bool {
	s.order = s.order[:0]
	for sh, b := range s.acc {
		if b != nil && s.first[sh] <= limit {
			s.order = append(s.order, sh)
		}
	}
	// Insertion sort by first pending seq: n is tiny and this avoids a
	// sort.Slice closure allocation per flush.
	for i := 1; i < len(s.order); i++ {
		for j := i; j > 0 && s.first[s.order[j]] < s.first[s.order[j-1]]; j-- {
			s.order[j], s.order[j-1] = s.order[j-1], s.order[j]
		}
	}
	for _, sh := range s.order {
		b := s.acc[sh]
		s.acc[sh] = nil
		s.reg.Add(obs.CTuplesIn, uint64(len(b.items)))
		s.reg.AddShard(sh, uint64(len(b.items)))
		// Cleared before the ticket goes out, so a request the merger
		// makes after taking it cannot be lost.
		s.waiting.Store(false)
		select {
		case s.ins[sh] <- b:
		case <-s.done:
			return false
		}
		select {
		case s.tickets <- sh:
		case <-s.done:
			return false
		}
	}
	return true
}

// worker pollutes the batches of one shard in place through the shard's
// row step, then forwards them to the merger. Each tuple is first cloned
// into the batch's value block, so the source's buffers are never
// written, and the step's scratch log records straight into the batch's
// entry arena. On a fatal error it ships the batch's valid prefix
// with the error attached, so the merge stops exactly where the
// sequential run would, and drops every later batch: they lie beyond
// the failure, and the merge fails before it asks for them.
func (s *shardedSource) worker(shard int) {
	defer s.wg.Done()
	in, out := s.ins[shard], s.outs[shard]
	step := &s.steps[shard]
	for dead := false; ; {
		var b *shardBatch
		select {
		case b = <-in:
		case <-s.done:
		}
		if b == nil {
			return
		}
		if dead {
			continue
		}
		if need := len(b.items) * s.width; cap(b.vals) < need {
			b.vals = make([]stream.Value, need)
		}
		if step.log != nil {
			step.log.entries = b.entries
			step.log.entries.n = 0
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
			b.entries = step.log.entries
		}
		dead = b.err != nil
		select {
		case out <- b:
		case <-s.done:
			return
		}
	}
}

// Next implements stream.Source: the merge. It restores prepared order
// by scanning the <= Shards current batch heads for the next sequence
// number (each prepared seq is owned by exactly one shard and per-shard
// output is seq-ordered, so the scan is exact), takes the next ticket's
// batch when none holds it, appends the per-tuple log entries and dead
// letters in emission order, filters dropped and quarantined tuples,
// and — after the first fatal error — consistently returns that error.
func (s *shardedSource) Next() (stream.Tuple, error) {
	if !s.started {
		if s.err != nil {
			return stream.Tuple{}, s.err
		}
		s.start()
	}
	s.recycleRetired()
	for s.err == nil && !s.closed {
		if t, emitted, consumed := s.serve(); emitted {
			return t, nil
		} else if !consumed {
			s.take()
		}
	}
	if s.err != nil {
		return stream.Tuple{}, s.err
	}
	return stream.Tuple{}, io.EOF
}

// serve consumes the item carrying the next sequence number, if a
// current batch holds it, retiring exhausted batches on the way.
// Returns the tuple (when one was emitted), whether a tuple was
// emitted, and whether any item was consumed. A batch carrying a fatal
// error is held after exhaustion until the merge reaches its error
// position.
func (s *shardedSource) serve() (stream.Tuple, bool, bool) {
	for sh, b := range s.cur {
		switch {
		case b == nil:
		case s.pos[sh] < len(b.items):
			if b.items[s.pos[sh]].seq == s.nextSeq {
				t, ok := s.consume(sh)
				return t, ok, true
			}
		case b.err == nil:
			s.retire(sh)
		case b.errSeq == s.nextSeq:
			// Every sequence number below the failure has been
			// emitted; surface the error at exactly its position.
			s.fail(b.err)
			return stream.Tuple{}, false, true
		}
	}
	return stream.Tuple{}, false, false
}

// take receives the batch that starts at nextSeq: it takes the next
// ticket and waits on that shard's out channel. Finding no ticket, it
// asks the feeder for its pending accumulators, flushing them itself
// when the feeder does not hold the lock (it is reading the source).
// With nothing in flight the tickets channel is empty, every channel is
// drained, and that flush cannot block. Closed tickets end the stream.
func (s *shardedSource) take() {
	var sh int
	var ok bool
	select {
	case sh, ok = <-s.tickets:
	default:
		s.waiting.Store(true)
		if s.mu.TryLock() {
			if len(s.tickets) == 0 {
				s.flushUpTo(math.MaxUint64)
			}
			s.mu.Unlock()
		}
		select {
		case sh, ok = <-s.tickets:
		case <-s.done:
			s.fail(stream.ErrStopped)
			return
		}
	}
	if !ok {
		s.closed = true
		if s.srcErr != nil {
			s.fail(s.srcErr)
		}
		return
	}
	select {
	case s.cur[sh] = <-s.outs[sh]:
		s.pos[sh] = 0
	case <-s.done:
		s.fail(stream.ErrStopped)
	}
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
		for k := b.entryOff[i]; k < b.entryOff[i+1]; k++ {
			s.log.entries.push(b.entries.at(int(k)))
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
// passed to their shard's free channel. Called at the top of Next,
// when the consumer has relinquished the previously loaned tuple.
func (s *shardedSource) recycleRetired() {
	n := 0
	for _, rb := range s.retired {
		if s.emitted-rb.mark < arenaMargin {
			break
		}
		rb.b.reset()
		select {
		case s.frees[rb.shard] <- rb.b:
		default: // a full free channel drops the batch to the GC
		}
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
