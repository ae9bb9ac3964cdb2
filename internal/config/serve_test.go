package config

import (
	"reflect"
	"strings"
	"testing"
)

// TestServeSpecDefaults: a nil or empty serve block yields the full
// documented defaults.
func TestServeSpecDefaults(t *testing.T) {
	want := ServeSpec{
		Buffer: 256, Replay: 65536, Policy: "block",
		Reorder: 64, Shards: 1, DrainTimeout: "5s",
		CheckpointEvery: 256,
	}
	var nilSpec *ServeSpec
	got, err := nilSpec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("nil spec: got %+v, want %+v", got, want)
	}
	got, err = (&ServeSpec{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty spec: got %+v, want %+v", got, want)
	}
}

// TestServeSpecOverridesAndValidation: explicit fields win, invalid ones
// are rejected with a field-naming error.
func TestServeSpecOverridesAndValidation(t *testing.T) {
	got, err := (&ServeSpec{
		Buffer:       8,
		Replay:       1024,
		Policy:       "disconnect-slow",
		Reorder:      1,
		Shards:       8,
		ShardKey:     "sensor",
		DrainTimeout: "250ms",
	}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := ServeSpec{
		Buffer: 8, Replay: 1024,
		Policy: "disconnect-slow", Reorder: 1, Shards: 8,
		ShardKey: "sensor", DrainTimeout: "250ms",
		CheckpointEvery: 256,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}

	bad := []struct {
		spec ServeSpec
		want string
	}{
		{ServeSpec{Buffer: -1}, "serve.buffer"},
		{ServeSpec{Replay: -2}, "serve.replay"},
		{ServeSpec{Policy: "bogus"}, "serve.policy"},
		{ServeSpec{Reorder: -1}, "serve.reorder"},
		{ServeSpec{Shards: -4}, "serve.shards"},
		// The execution-shape rules live in core.StreamSpec (see its shape
		// matrix test); this layer only has to surface core's verdict.
		{ServeSpec{Shards: 4}, "config: serve: core: shards > 1 requires a shard key"},
		{ServeSpec{DrainTimeout: "fast"}, "serve.drain_timeout"},
		{ServeSpec{DrainTimeout: "-1s"}, "serve.drain_timeout"},
		{ServeSpec{WALSegmentBytes: -1}, "serve.wal_segment_bytes"},
		{ServeSpec{WALRetainBytes: -1}, "serve.wal_retain_bytes"},
		{ServeSpec{WALFsyncEvery: -1}, "serve.wal_fsync_every"},
		{ServeSpec{CheckpointEvery: -5}, "serve.checkpoint_every"},
		{ServeSpec{Tenants: []TenantSpec{{}}}, "needs a name"},
		{ServeSpec{Tenants: []TenantSpec{{Name: "a"}, {Name: "a"}}}, "duplicate name"},
		{ServeSpec{Tenants: []TenantSpec{{Name: "a", MaxSessions: -1}}}, "non-negative"},
		{ServeSpec{Tenants: []TenantSpec{{Name: "a", Burst: 64}}}, "burst without bytes_per_sec"},
	}
	for _, tc := range bad {
		if _, err := tc.spec.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want mention of %s", tc.spec, err, tc.want)
		}
	}
}

// TestServeBlockParses: the serve block round-trips through the JSON
// configuration parser.
func TestServeBlockParses(t *testing.T) {
	doc, err := Parse(strings.NewReader(`{
		"pipelines": [{"name": "p", "polluters": [
			{"name": "x", "error": {"type": "missing_value"}, "attrs": ["v"]}
		]}],
		"serve": {"policy": "drop-oldest", "buffer": 32}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Serve == nil {
		t.Fatal("serve block not parsed")
	}
	spec, err := doc.Serve.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Policy != "drop-oldest" || spec.Buffer != 32 {
		t.Errorf("unexpected spec %+v", spec)
	}
	if spec.Replay != 65536 || spec.Reorder != 64 {
		t.Errorf("defaults not applied: %+v", spec)
	}
}

// TestServeSpecDurability: the WAL tuning and checkpoint cadence fields
// parse from JSON and normalize with their documented defaults. Where
// the state lives is the daemon's -state-dir, not a key.
func TestServeSpecDurability(t *testing.T) {
	doc, err := Parse(strings.NewReader(`{
		"pipelines": [{"name": "p", "polluters": [
			{"name": "x", "error": {"type": "missing_value"}, "attrs": ["v"]}
		]}],
		"serve": {
			"wal_segment_bytes": 1048576,
			"wal_fsync_every": 8,
			"checkpoint_every": 64
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Serve.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.WALSegmentBytes != 1048576 || spec.WALFsyncEvery != 8 {
		t.Errorf("WAL fields not normalized: %+v", spec)
	}
	if spec.CheckpointEvery != 64 {
		t.Errorf("checkpoint fields not normalized: %+v", spec)
	}
}
