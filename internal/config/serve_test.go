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
		Listen: ":7077", Buffer: 256, Replay: 65536, Policy: "block",
		Reorder: 64, Shards: 1, DrainTimeout: "5s",
		CheckpointEvery: 256,
		RestartBudget:   3, RestartWindow: "1m", RestartBackoff: "100ms",
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
		Listen:       ":9999",
		HTTP:         ":9998",
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
		Listen: ":9999", HTTP: ":9998", Buffer: 8, Replay: 1024,
		Policy: "disconnect-slow", Reorder: 1, Shards: 8,
		ShardKey: "sensor", DrainTimeout: "250ms",
		CheckpointEvery: 256, RestartBudget: 3,
		RestartWindow: "1m", RestartBackoff: "100ms",
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
		{ServeSpec{WALDir: "d", WALRetainAge: "never"}, "serve.wal_retain_age"},
		{ServeSpec{WALDir: "d", WALFsyncEvery: -1}, "serve.wal_fsync_every"},
		{ServeSpec{Checkpoint: "ck.json"}, "serve.checkpoint"},
		{ServeSpec{CheckpointEvery: -5}, "serve.checkpoint_every"},
		{ServeSpec{RestartBudget: -1}, "serve.restart_budget"},
		{ServeSpec{RestartWindow: "-1m"}, "serve.restart_window"},
		{ServeSpec{RestartBackoff: "soon"}, "serve.restart_backoff"},
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
		"serve": {"listen": ":7171", "policy": "drop-oldest", "buffer": 32}
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
	if spec.Listen != ":7171" || spec.Policy != "drop-oldest" || spec.Buffer != 32 {
		t.Errorf("unexpected spec %+v", spec)
	}
	if spec.Replay != 65536 || spec.Reorder != 64 {
		t.Errorf("defaults not applied: %+v", spec)
	}
}

// TestServeSpecDurability: the WAL/checkpoint/supervision fields parse
// from JSON, normalize with their documented defaults, and the
// checkpoint-requires-wal coupling is enforced.
func TestServeSpecDurability(t *testing.T) {
	doc, err := Parse(strings.NewReader(`{
		"pipelines": [{"name": "p", "polluters": [
			{"name": "x", "error": {"type": "missing_value"}, "attrs": ["v"]}
		]}],
		"serve": {
			"wal_dir": "/var/lib/icewafl/wal",
			"wal_segment_bytes": 1048576,
			"wal_fsync_every": 8,
			"checkpoint": "/var/lib/icewafl/ck.json",
			"checkpoint_every": 64,
			"supervise": true,
			"restart_budget": 5,
			"restart_window": "30s",
			"restart_backoff": "50ms"
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Serve.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.WALDir != "/var/lib/icewafl/wal" || spec.WALSegmentBytes != 1048576 || spec.WALFsyncEvery != 8 {
		t.Errorf("WAL fields not normalized: %+v", spec)
	}
	if spec.Checkpoint != "/var/lib/icewafl/ck.json" || spec.CheckpointEvery != 64 {
		t.Errorf("checkpoint fields not normalized: %+v", spec)
	}
	if !spec.Supervise || spec.RestartBudget != 5 || spec.RestartWindow != "30s" || spec.RestartBackoff != "50ms" {
		t.Errorf("supervision fields not normalized: %+v", spec)
	}
}
