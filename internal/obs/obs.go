// Package obs is the zero-dependency observability layer of the engine:
// lock-free counters, log2-bucketed latency histograms, and a sampled
// per-tuple pollution trace, exported as Prometheus text exposition or
// JSON snapshots.
//
// Design constraints (DESIGN.md §9):
//
//   - Nil-safe: every hot-path method is a no-op on a nil *Registry, so
//     instrumentation hooks compile into the engine unconditionally while
//     the uninstrumented path stays allocation-free (a single predictable
//     nil check per hook).
//   - Lock-free updates: counters are atomic and cache-line padded;
//     contended counters offer per-worker cells (AddAt) so shard workers
//     never bounce a cache line between cores.
//   - Exact counters, sampled latencies: counts are always exact;
//     per-stage latency histograms and trace spans are recorded only for
//     tuples selected by the deterministic 1-in-N sampler, keeping clock
//     reads off the common path.
//   - Deterministic exports: a snapshot of a seeded run (with sampling
//     off) is byte-identical across runs, so metrics files can be
//     golden-tested like any other engine output.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CounterID identifies one of the engine's well-known counters. Fixed
// IDs keep the hot path to a single array index — no map lookups.
type CounterID int

// The well-known counters, one per stage of the pollution workflow.
const (
	// CSourceRows counts raw rows pulled from the source, including
	// malformed rows that later quarantine (tuple-level failures).
	CSourceRows CounterID = iota
	// CSourceErrors counts tuple-level source failures (malformed rows).
	CSourceErrors
	// CTuplesIn counts prepared tuples entering a pollution pipeline
	// (per sub-stream occurrence when routing overlaps).
	CTuplesIn
	// CTuplesOut counts tuples emitted downstream of pollution.
	CTuplesOut
	// CTuplesDropped counts tuples removed by drop errors.
	CTuplesDropped
	// CDeadLetters counts quarantined tuples (source + pollution stage).
	CDeadLetters
	// CLogEntries counts pollution-log entries net of fault rollbacks,
	// so it always equals the length of the delivered ground-truth log.
	CLogEntries
	// CCondHits / CCondMisses count polluter-gate condition evaluations.
	CCondHits
	CCondMisses
	// CCheckpointWrites counts captured checkpoints.
	CCheckpointWrites
	// CSinkWrites counts tuples written by an observed sink.
	CSinkWrites

	// NumCounters is the number of well-known counters.
	NumCounters
)

// counterNames are the Prometheus exposition names, index-aligned with
// the CounterID constants.
var counterNames = [NumCounters]string{
	"icewafl_source_rows_total",
	"icewafl_source_errors_total",
	"icewafl_tuples_in_total",
	"icewafl_tuples_out_total",
	"icewafl_tuples_dropped_total",
	"icewafl_dead_letters_total",
	"icewafl_log_entries_total",
	"icewafl_condition_hits_total",
	"icewafl_condition_misses_total",
	"icewafl_checkpoint_writes_total",
	"icewafl_sink_writes_total",
}

// CounterName returns the exposition name of a well-known counter.
func CounterName(id CounterID) string { return counterNames[id] }

// numCells is the number of per-worker cells of a counter (power of
// two). Workers pick cell worker&(numCells-1), so up to numCells
// concurrent writers update disjoint cache lines.
const numCells = 8

// cell is one cache-line-padded atomic counter cell.
type cell struct {
	n atomic.Uint64
	_ [56]byte // pad to a 64-byte cache line
}

// Counter is a lock-free, per-worker-sharded monotonic counter. The
// zero value is ready to use. Single-writer paths use Add (cell 0);
// concurrent workers use AddAt with their worker index.
type Counter struct {
	cells [numCells]cell
}

// Add increments the counter by n (cell 0 — the single-writer fast
// path).
func (c *Counter) Add(n uint64) { c.cells[0].n.Add(n) }

// AddAt increments the counter by n on the worker's private cell, so
// concurrent workers never contend on one cache line.
func (c *Counter) AddAt(worker int, n uint64) {
	c.cells[worker&(numCells-1)].n.Add(n)
}

// Sub decrements the counter by n (two's-complement wrap keeps the
// summed value exact as long as the counter never goes net-negative).
func (c *Counter) Sub(n uint64) { c.cells[0].n.Add(^(n - 1)) }

// Value sums the cells.
func (c *Counter) Value() uint64 {
	var v uint64
	for i := range c.cells {
		v += c.cells[i].n.Load()
	}
	return v
}

// GaugeFunc reads an externally maintained value at snapshot time —
// the zero-hot-path-cost hook for components that already keep their
// own statistics (shard channel occupancy, DLQ depth).
type GaugeFunc func() uint64

// Registry is the per-run metrics registry wired through every runner.
// All update methods are safe on a nil receiver (no-ops), so the engine
// is instrumented unconditionally and pays only a nil check when
// observability is off.
//
// Configuration methods (SetTraceSampling, SetShards, RegisterFunc)
// must be called before the run starts; update methods are safe for
// concurrent use during the run.
type Registry struct {
	counters [NumCounters]Counter
	hists    [numStages]Histogram

	// sampleN selects 1-in-N deterministic trace sampling (0 = off).
	// Written only before the run starts.
	sampleN uint64
	traces  traceBuffer

	mu       sync.RWMutex
	polluted map[string]*Counter
	dqEval   map[string]*Counter
	dqUnexp  map[string]*Counter
	shards   []*Counter
	funcs    map[string]GaugeFunc

	// Per-tenant families of the session service: frames and payload
	// bytes delivered to a tenant's subscribers, and quota rejections
	// issued to the tenant (icewafl_tenant_*_total).
	tenantFrames map[string]*Counter
	tenantBytes  map[string]*Counter
	tenantQuota  map[string]*Counter

	// tenantWAL gauges each tenant's durable WAL bytes on disk
	// (icewafl_tenant_wal_bytes) — read at snapshot time like funcs, but
	// keyed per tenant.
	tenantWAL map[string]GaugeFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		polluted: make(map[string]*Counter),
		dqEval:   make(map[string]*Counter),
		dqUnexp:  make(map[string]*Counter),
		funcs:    make(map[string]GaugeFunc),
	}
}

// Inc increments a well-known counter by one.
func (r *Registry) Inc(id CounterID) {
	if r == nil {
		return
	}
	r.counters[id].cells[0].n.Add(1)
}

// Add increments a well-known counter by n.
func (r *Registry) Add(id CounterID, n uint64) {
	if r == nil {
		return
	}
	r.counters[id].cells[0].n.Add(n)
}

// AddAt increments a well-known counter on the worker's private cell.
func (r *Registry) AddAt(id CounterID, worker int, n uint64) {
	if r == nil {
		return
	}
	r.counters[id].AddAt(worker, n)
}

// Sub decrements a well-known counter by n (fault rollback).
func (r *Registry) Sub(id CounterID, n uint64) {
	if r == nil {
		return
	}
	r.counters[id].Sub(n)
}

// Counter returns the current value of a well-known counter (0 on nil).
func (r *Registry) Counter(id CounterID) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[id].Value()
}

// AddPolluted adjusts the per-polluter pollution count by delta
// (negative deltas roll back quarantined entries).
func (r *Registry) AddPolluted(name string, delta int64) {
	if r == nil {
		return
	}
	r.polCounter(name).Add(uint64(delta))
}

func (r *Registry) polCounter(name string) *Counter {
	r.mu.RLock()
	c := r.polluted[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.polluted[name]; c == nil {
		c = &Counter{}
		r.polluted[name] = c
	}
	return c
}

// AddDQ accumulates one window's evaluated/unexpected row counts for
// the named expectation — the per-expectation counter families of the
// streaming DQ monitor (dq_evaluated_total / dq_unexpected_total).
func (r *Registry) AddDQ(expectation string, evaluated, unexpected uint64) {
	if r == nil {
		return
	}
	r.namedCounter(&r.dqEval, expectation).Add(evaluated)
	r.namedCounter(&r.dqUnexp, expectation).Add(unexpected)
}

// namedCounter lazily creates a counter in a named family map (same
// double-checked pattern as polCounter).
func (r *Registry) namedCounter(m *map[string]*Counter, name string) *Counter {
	r.mu.RLock()
	c := (*m)[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if *m == nil {
		*m = make(map[string]*Counter)
	}
	if c = (*m)[name]; c == nil {
		c = &Counter{}
		(*m)[name] = c
	}
	return c
}

// AddTenantDelivery accumulates frames/bytes delivered to one tenant's
// subscribers — the per-tenant throughput families of the session
// service.
func (r *Registry) AddTenantDelivery(tenant string, frames, bytes uint64) {
	if r == nil {
		return
	}
	if frames > 0 {
		r.namedCounter(&r.tenantFrames, tenant).Add(frames)
	}
	if bytes > 0 {
		r.namedCounter(&r.tenantBytes, tenant).Add(bytes)
	}
}

// AddTenantQuotaRejection counts one quota rejection issued to the
// tenant (session creation, subscribe, or rate limit).
func (r *Registry) AddTenantQuotaRejection(tenant string) {
	if r == nil {
		return
	}
	r.namedCounter(&r.tenantQuota, tenant).Add(1)
}

// RegisterTenantWALBytes registers the gauge reporting one tenant's
// durable WAL bytes (read at snapshot time). Later registrations for
// the same tenant replace earlier ones.
func (r *Registry) RegisterTenantWALBytes(tenant string, fn GaugeFunc) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tenantWAL == nil {
		r.tenantWAL = make(map[string]GaugeFunc)
	}
	r.tenantWAL[tenant] = fn
}

// TenantWALBytes evaluates the per-tenant WAL-byte gauges (nil when no
// tenant registered one).
func (r *Registry) TenantWALBytes() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fns := make(map[string]GaugeFunc, len(r.tenantWAL))
	for name, fn := range r.tenantWAL {
		fns[name] = fn
	}
	r.mu.RUnlock()
	if len(fns) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// TenantCounts returns the per-tenant delivered frame/byte counts and
// quota rejections.
func (r *Registry) TenantCounts() (frames, bytes, quota map[string]uint64) {
	if r == nil {
		return nil, nil, nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	value := func(m map[string]*Counter) map[string]uint64 {
		if len(m) == 0 {
			return nil
		}
		out := make(map[string]uint64, len(m))
		for name, c := range m {
			out[name] = c.Value()
		}
		return out
	}
	return value(r.tenantFrames), value(r.tenantBytes), value(r.tenantQuota)
}

// DQCounts returns the per-expectation evaluated and unexpected counts.
func (r *Registry) DQCounts() (evaluated, unexpected map[string]uint64) {
	if r == nil {
		return nil, nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	evaluated = make(map[string]uint64, len(r.dqEval))
	for name, c := range r.dqEval {
		evaluated[name] = c.Value()
	}
	unexpected = make(map[string]uint64, len(r.dqUnexp))
	for name, c := range r.dqUnexp {
		unexpected[name] = c.Value()
	}
	return evaluated, unexpected
}

// PollutedCounts returns the per-polluter pollution counts.
func (r *Registry) PollutedCounts() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]uint64, len(r.polluted))
	for name, c := range r.polluted {
		out[name] = c.Value()
	}
	return out
}

// SetShards sizes the per-shard tuple counters (skew detection). Call
// before the sharded run starts.
func (r *Registry) SetShards(n int) {
	if r == nil || n < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shards = make([]*Counter, n)
	for i := range r.shards {
		r.shards[i] = &Counter{}
	}
}

// AddShard counts n tuples processed by the given shard. Unknown
// shards (SetShards not called or out of range) are ignored.
func (r *Registry) AddShard(shard int, n uint64) {
	if r == nil {
		return
	}
	r.mu.RLock()
	var c *Counter
	if shard >= 0 && shard < len(r.shards) {
		c = r.shards[shard]
	}
	r.mu.RUnlock()
	if c != nil {
		c.AddAt(shard, n)
	}
}

// ShardCounts returns the per-shard tuple counts (nil when sharding
// was never configured).
func (r *Registry) ShardCounts() []uint64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.shards) == 0 {
		return nil
	}
	out := make([]uint64, len(r.shards))
	for i, c := range r.shards {
		out[i] = c.Value()
	}
	return out
}

// RegisterFunc registers a gauge read at snapshot time under the given
// name (exported as "icewafl_<name>"). Later registrations under the
// same name replace earlier ones.
func (r *Registry) RegisterFunc(name string, fn GaugeFunc) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Unregister removes a gauge previously registered under name with
// RegisterFunc. Components with bounded lifetimes (network subscribers)
// must unregister on close so a long-lived registry does not accumulate
// dead gauge closures.
func (r *Registry) Unregister(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.funcs, name)
}

// SetTraceSampling enables deterministic 1-in-n trace sampling with a
// span ring buffer of the given capacity (<=0 selects the default).
// n = 0 disables sampling, n = 1 samples every tuple. Must be called
// before the run starts.
func (r *Registry) SetTraceSampling(n uint64, bufCap int) {
	if r == nil {
		return
	}
	r.sampleN = n
	r.traces.reset(bufCap)
}

// TraceEnabled reports whether trace sampling is on.
func (r *Registry) TraceEnabled() bool {
	return r != nil && r.sampleN != 0
}

// Sampled reports whether the tuple with the given ID is selected by
// the deterministic 1-in-N sampler. The decision is a pure function of
// the ID, so re-running a seeded workload traces the same tuples.
func (r *Registry) Sampled(id uint64) bool {
	if r == nil || r.sampleN == 0 {
		return false
	}
	return mix64(id)%r.sampleN == 0
}

// mix64 is the splitmix64 finaliser: a cheap, high-quality bijection so
// sequential tuple IDs sample uniformly instead of periodically.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ObserveSpan records one stage timing of a sampled tuple: the duration
// lands in the stage's latency histogram and a Span is appended to the
// trace ring buffer. Callers gate the surrounding clock reads on
// Sampled / TraceEnabled.
func (r *Registry) ObserveSpan(stage StageID, tupleID uint64, d time.Duration) {
	if r == nil {
		return
	}
	r.hists[stage].Observe(d)
	r.traces.add(Span{TupleID: tupleID, Stage: stageNames[stage], DurNs: int64(d)})
}

// ObserveStage records one stage duration in the latency histogram
// without a trace span (rare, non-per-tuple stages: checkpoints).
func (r *Registry) ObserveStage(stage StageID, d time.Duration) {
	if r == nil {
		return
	}
	r.hists[stage].Observe(d)
}

// Spans returns the sampled trace spans in recording order (oldest
// first, bounded by the ring-buffer capacity).
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.traces.spans()
}

// Histogram returns a snapshot of one stage's latency histogram.
func (r *Registry) Histogram(stage StageID) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.hists[stage].snapshot()
}

// Snapshot captures every metric into an exportable, deterministic
// structure. Counters are always present (zeros included) so snapshots
// of identical seeded runs are byte-identical; empty histogram stages,
// gauges, shard counts and spans are omitted.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{Counters: map[string]uint64{}}
	}
	s := &Snapshot{Counters: make(map[string]uint64, NumCounters)}
	for id := CounterID(0); id < NumCounters; id++ {
		s.Counters[counterNames[id]] = r.counters[id].Value()
	}
	if pc := r.PollutedCounts(); len(pc) > 0 {
		s.PollutedBy = pc
	}
	if ev, un := r.DQCounts(); len(ev) > 0 || len(un) > 0 {
		if len(ev) > 0 {
			s.DQEvaluated = ev
		}
		if len(un) > 0 {
			s.DQUnexpected = un
		}
	}
	if tf, tb, tq := r.TenantCounts(); len(tf) > 0 || len(tb) > 0 || len(tq) > 0 {
		s.TenantFrames = tf
		s.TenantBytes = tb
		s.TenantQuotaRejections = tq
	}
	if tw := r.TenantWALBytes(); len(tw) > 0 {
		s.TenantWALBytes = tw
	}
	s.ShardTuples = r.ShardCounts()
	r.mu.RLock()
	funcs := make(map[string]GaugeFunc, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	r.mu.RUnlock()
	if len(funcs) > 0 {
		s.Gauges = make(map[string]uint64, len(funcs))
		for name, fn := range funcs {
			s.Gauges["icewafl_"+name] = fn()
		}
	}
	for st := StageID(0); st < numStages; st++ {
		h := r.hists[st].snapshot()
		if h.Count == 0 {
			continue
		}
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistSnapshot, int(numStages))
		}
		s.Histograms[stageNames[st]] = h
	}
	s.Spans = r.Spans()
	return s
}

// traceBuffer is a mutex-guarded ring of sampled spans. Only sampled
// tuples reach it, so the lock is off the common path by construction.
type traceBuffer struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	wrapped bool
}

// DefaultTraceCap is the default span ring-buffer capacity.
const DefaultTraceCap = 1024

func (b *traceBuffer) reset(capacity int) {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	b.mu.Lock()
	b.buf = make([]Span, 0, capacity)
	b.next = 0
	b.wrapped = false
	b.mu.Unlock()
}

func (b *traceBuffer) add(s Span) {
	b.mu.Lock()
	if cap(b.buf) == 0 {
		b.buf = make([]Span, 0, DefaultTraceCap)
	}
	if len(b.buf) < cap(b.buf) {
		b.buf = append(b.buf, s)
	} else {
		b.buf[b.next] = s
		b.next = (b.next + 1) % len(b.buf)
		b.wrapped = true
	}
	b.mu.Unlock()
}

func (b *traceBuffer) spans() []Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.buf) == 0 {
		return nil
	}
	out := make([]Span, 0, len(b.buf))
	if b.wrapped {
		out = append(out, b.buf[b.next:]...)
		out = append(out, b.buf[:b.next]...)
	} else {
		out = append(out, b.buf...)
	}
	return out
}

// sortedKeys returns the keys of m in sorted order (deterministic
// exposition).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
