package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Inc(CTuplesIn)
	r.Add(CTuplesOut, 3)
	r.AddAt(CTuplesIn, 5, 2)
	r.Sub(CLogEntries, 1)
	r.AddPolluted("noise", 1)
	r.SetShards(4)
	r.AddShard(1, 2)
	r.RegisterFunc("pool_hits", func() uint64 { return 1 })
	r.SetTraceSampling(8, 16)
	r.ObserveSpan(StagePollute, 42, time.Millisecond)
	r.ObserveStage(StageCheckpoint, time.Millisecond)
	if r.Counter(CTuplesIn) != 0 {
		t.Fatalf("nil registry counter = %d, want 0", r.Counter(CTuplesIn))
	}
	if r.Sampled(0) {
		t.Fatal("nil registry must never sample")
	}
	if r.TraceEnabled() {
		t.Fatal("nil registry must report tracing off")
	}
	if got := r.PollutedCounts(); got != nil {
		t.Fatalf("nil registry polluted counts = %v, want nil", got)
	}
	if got := r.ShardCounts(); got != nil {
		t.Fatalf("nil registry shard counts = %v, want nil", got)
	}
	if got := r.Spans(); got != nil {
		t.Fatalf("nil registry spans = %v, want nil", got)
	}
	s := r.Snapshot()
	if s == nil || len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot = %+v, want empty counters", s)
	}
}

func TestCounterShardedCells(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.AddAt(CTuplesIn, w, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter(CTuplesIn); got != workers*perWorker {
		t.Fatalf("sharded counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterSubRollsBack(t *testing.T) {
	r := NewRegistry()
	r.Add(CLogEntries, 10)
	r.Sub(CLogEntries, 4)
	if got := r.Counter(CLogEntries); got != 6 {
		t.Fatalf("after sub: %d, want 6", got)
	}
	r.AddPolluted("noise", 5)
	r.AddPolluted("noise", -2)
	if got := r.PollutedCounts()["noise"]; got != 3 {
		t.Fatalf("polluted after rollback: %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second) // clamps to zero
	h.Observe(1)            // bucket le=1
	h.Observe(2)            // bucket le=3
	h.Observe(3)            // bucket le=3
	h.Observe(1000)         // bucket le=1023
	s := h.snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.SumNs != 0+0+1+2+3+1000 {
		t.Fatalf("sum = %d, want 1006", s.SumNs)
	}
	want := []Bucket{{Le: 0, N: 2}, {Le: 1, N: 1}, {Le: 3, N: 2}, {Le: 1023, N: 1}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
}

func TestSamplerDeterministicAndRoughlyUniform(t *testing.T) {
	r := NewRegistry()
	r.SetTraceSampling(16, 64)
	first := make([]bool, 10000)
	n := 0
	for id := range first {
		first[id] = r.Sampled(uint64(id))
		if first[id] {
			n++
		}
	}
	// Deterministic: same decisions on a second pass and on a fresh registry.
	r2 := NewRegistry()
	r2.SetTraceSampling(16, 64)
	for id := range first {
		if r2.Sampled(uint64(id)) != first[id] {
			t.Fatalf("sampling decision for id %d not deterministic", id)
		}
	}
	// Roughly 1-in-16 of 10000 = 625; allow a wide band.
	if n < 400 || n > 900 {
		t.Fatalf("sampled %d of 10000 at 1-in-16, want roughly 625", n)
	}
	// Sampling off.
	r3 := NewRegistry()
	if r3.Sampled(0) || r3.TraceEnabled() {
		t.Fatal("sampling must default to off")
	}
	// 1-in-1 samples everything.
	r4 := NewRegistry()
	r4.SetTraceSampling(1, 4)
	for id := uint64(0); id < 100; id++ {
		if !r4.Sampled(id) {
			t.Fatalf("1-in-1 sampler skipped id %d", id)
		}
	}
}

func TestTraceRingWraps(t *testing.T) {
	r := NewRegistry()
	r.SetTraceSampling(1, 4)
	for id := uint64(0); id < 6; id++ {
		r.ObserveSpan(StagePollute, id, time.Duration(id))
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := uint64(i + 2); sp.TupleID != want {
			t.Fatalf("span %d tuple = %d, want %d (oldest-first after wrap)", i, sp.TupleID, want)
		}
	}
}

func TestShardCountsAndSkew(t *testing.T) {
	r := NewRegistry()
	r.SetShards(3)
	r.AddShard(0, 10)
	r.AddShard(1, 10)
	r.AddShard(2, 40)
	r.AddShard(7, 5) // out of range: ignored
	got := r.ShardCounts()
	if !reflect.DeepEqual(got, []uint64{10, 10, 40}) {
		t.Fatalf("shard counts = %v", got)
	}
	// The snapshot exports the same counts; shard skew is read off them
	// (here max 40 / mean 20).
	if s := r.Snapshot(); !reflect.DeepEqual(s.ShardTuples, got) {
		t.Fatalf("snapshot shard tuples = %v, want %v", s.ShardTuples, got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add(CTuplesIn, 100)
	r.Add(CTuplesOut, 97)
	r.Add(CTuplesDropped, 3)
	r.AddPolluted("noise", 12)
	r.AddPolluted("outlier", 7)
	r.SetShards(2)
	r.AddShard(0, 50)
	r.AddShard(1, 50)
	r.RegisterFunc("pool_hits", func() uint64 { return 99 })
	r.SetTraceSampling(1, 8)
	r.ObserveSpan(StagePollute, 5, 100*time.Nanosecond)

	s := r.Snapshot()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back := new(Snapshot)
	if err := json.Unmarshal(buf.Bytes(), back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("JSON round trip mismatch:\n got %+v\nwant %+v", back, s)
	}

	// Deterministic bytes for identical registries.
	var buf2 bytes.Buffer
	if err := s.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot JSON not deterministic")
	}
}

// expositionRegistry populates every family WritePrometheus emits:
// counters, a gauge, polluted_by (with a label value that needs every
// escape), both dq families, shards, the tenant counters and WAL gauge,
// and two stage histograms. Its spans are JSON-only. FuzzMetricsJSON
// seeds its corpus from the same registry.
func expositionRegistry() *Registry {
	r := NewRegistry()
	r.Add(CTuplesIn, 100)
	r.Add(CTuplesOut, 97)
	r.AddPolluted("noise", 12)
	r.AddPolluted(`we"ird\name`+"\n", 3)
	r.AddDQ("bpm_in_range", 100, 4)
	r.AddDQ("steps_not_null", 100, 0)
	r.SetShards(2)
	r.AddShard(0, 60)
	r.AddShard(1, 40)
	r.AddTenantDelivery("alpha", 30, 2048)
	r.AddTenantDelivery("beta", 5, 300)
	r.AddTenantQuotaRejection("beta")
	r.RegisterTenantWALBytes("alpha", func() uint64 { return 4096 })
	r.RegisterFunc("dlq_depth", func() uint64 { return 4 })
	r.SetTraceSampling(1, 8)
	r.ObserveSpan(StagePollute, 1, 7*time.Nanosecond)
	r.ObserveSpan(StagePollute, 2, 900*time.Nanosecond)
	r.ObserveStage(StageCheckpoint, time.Microsecond)
	return r
}

// TestPrometheusExposition pins the text format byte for byte; -update
// rewrites the golden.
func TestPrometheusExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := expositionRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.prom.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

func TestMetricsSinkTicksAndFinalFlush(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var got []uint64
	sink, err := NewMetricsSink(r, 5*time.Millisecond, func(s *Snapshot) error {
		mu.Lock()
		got = append(got, s.Counters[CounterName(CTuplesIn)])
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sink.Start()
	r.Add(CTuplesIn, 7)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	r.Add(CTuplesIn, 3)
	if err := sink.Stop(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 || got[len(got)-1] != 10 {
		t.Fatalf("final flush saw %v, want trailing 10", got)
	}
}

func TestMetricsSinkValidation(t *testing.T) {
	if _, err := NewMetricsSink(nil, 0, func(*Snapshot) error { return nil }); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := NewMetricsSink(nil, time.Second, nil); err == nil {
		t.Fatal("nil func accepted")
	}
}

func TestFileSink(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	r.Add(CTuplesIn, 5)

	jsonPath := filepath.Join(dir, "m.json")
	fn, err := FileSink(jsonPath, "json")
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	back := new(Snapshot)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Counters[CounterName(CTuplesIn)] != 5 {
		t.Fatalf("file sink JSON counters = %v", back.Counters)
	}

	promPath := filepath.Join(dir, "m.prom")
	fn, err = FileSink(promPath, "prom")
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Fatalf("file sink prom =\n%s\nwant\n%s", data, want.Bytes())
	}

	if _, err := FileSink("x", "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestStageAndCounterNames(t *testing.T) {
	for id := CounterID(0); id < NumCounters; id++ {
		if CounterName(id) == "" {
			t.Fatalf("counter %d has no name", id)
		}
	}
	seen := map[string]bool{}
	for st := StageID(0); st < numStages; st++ {
		n := StageName(st)
		if n == "" || seen[n] {
			t.Fatalf("stage %d name %q empty or duplicate", st, n)
		}
		seen[n] = true
	}
}
