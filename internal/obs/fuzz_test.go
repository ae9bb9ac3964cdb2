package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// fuzzSeedSnapshot builds a populated registry snapshot so the fuzzers
// start from realistic corpus entries.
func fuzzSeedSnapshot() *Snapshot {
	r := NewRegistry()
	r.Add(CSourceRows, 1060)
	r.Add(CTuplesIn, 1060)
	r.Add(CTuplesOut, 1058)
	r.Add(CTuplesDropped, 2)
	r.AddPolluted("noise", 964)
	r.AddPolluted(`we"ird\name`, 13)
	r.SetShards(4)
	r.AddShard(0, 300)
	r.AddShard(3, 760)
	r.SetTraceSampling(1, 16)
	r.ObserveSpan(StagePollute, 42, 1500*time.Nanosecond)
	r.ObserveStage(StageCheckpoint, 2*time.Millisecond)
	return r.Snapshot()
}

// FuzzPrometheusExposition feeds arbitrary text into the Prometheus
// parser and asserts the canonical-form fixed point: any input the
// parser accepts must re-serialize to an exposition that parses again
// and re-serializes to the exact same bytes. This pins the
// parser/writer pair against asymmetries (label escaping, bucket
// cumulation, ordering) without assuming anything about the input.
func FuzzPrometheusExposition(f *testing.F) {
	var seed bytes.Buffer
	if err := fuzzSeedSnapshot().WritePrometheus(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("# TYPE icewafl_tuples_in_total counter\nicewafl_tuples_in_total 7\n"))
	f.Add([]byte("# TYPE icewafl_polluted_tuples_total counter\n" +
		`icewafl_polluted_tuples_total{polluter="a\\b\"c"} 3` + "\n"))
	f.Add([]byte("# TYPE icewafl_stage_latency_ns histogram\n" +
		`icewafl_stage_latency_ns_bucket{stage="pollute",le="1"} 2` + "\n" +
		`icewafl_stage_latency_ns_bucket{stage="pollute",le="+Inf"} 2` + "\n" +
		`icewafl_stage_latency_ns_sum{stage="pollute"} 9` + "\n" +
		`icewafl_stage_latency_ns_count{stage="pollute"} 2` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s1, err := ParsePrometheus(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as we didn't panic
		}
		var first bytes.Buffer
		if err := s1.WritePrometheus(&first); err != nil {
			t.Fatalf("serialize accepted input: %v", err)
		}
		s2, err := ParsePrometheus(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-parse own output: %v\noutput:\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := s2.WritePrometheus(&second); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("exposition is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzMetricsJSON is the same fixed-point property for the JSON codec.
func FuzzMetricsJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := fuzzSeedSnapshot().WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"counters":{"icewafl_tuples_in_total":7}}`))
	f.Add([]byte(`{"counters":{},"shard_tuples":[1,2,3],"spans":[{"tuple_id":9,"stage":"pollute","dur_ns":100}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s1 Snapshot
		if err := json.Unmarshal(data, &s1); err != nil {
			return
		}
		var first bytes.Buffer
		if err := s1.WriteJSON(&first); err != nil {
			return // unrepresentable values (e.g. NaN via float fields) may refuse to marshal
		}
		var s2 Snapshot
		if err := json.Unmarshal(first.Bytes(), &s2); err != nil {
			t.Fatalf("re-parse own output: %v\noutput:\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := s2.WriteJSON(&second); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("JSON snapshot is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
	})
}
