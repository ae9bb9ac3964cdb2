package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzMetricsJSON asserts the canonical-form fixed point of the JSON
// codec: any input json.Unmarshal accepts must re-serialize to bytes
// that parse again and re-serialize to the exact same bytes.
func FuzzMetricsJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := expositionRegistry().Snapshot().WriteJSON(&seed); err != nil {
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
