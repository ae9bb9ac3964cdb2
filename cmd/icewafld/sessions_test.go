package main

import (
	"encoding/json"
	"strings"
	"testing"

	"icewafl/internal/obs"
)

// TestSessionBuilderRejects: a session spec that asks for something a
// session cannot have fails its create with a diagnostic, instead of
// running without it.
func TestSessionBuilderRejects(t *testing.T) {
	const schema = `{"timestamp": "Time", "fields": [{"name": "Time", "kind": "time"}, {"name": "Val", "kind": "float"}]}`
	const csv = "Time,Val\n2026-03-01T00:00:00Z,1.5\n"
	spec := func(serve string) json.RawMessage {
		cfg := `{"seed": 1, "pipelines": [{"polluters": [{"name": "m", "error": {"type": "missing_value"}, "attrs": ["Val"]}]}]` + serve + `}`
		raw, err := json.Marshal(map[string]any{"schema": json.RawMessage(schema), "config": json.RawMessage(cfg), "csv": csv})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	build := sessionBuilder(obs.NewRegistry())
	if _, err := build(spec(`, "serve": {"reorder": 1, "wal_fsync_every": 8}`)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		spec json.RawMessage
		want string
	}{
		{"unknown spec field", json.RawMessage(`{"schema": {}, "config": {}, "csv": "x", "wal": "w"}`), `unknown field "wal"`},
		{"missing csv", json.RawMessage(`{"schema": {}, "config": {}}`), "needs schema, config and csv"},
		// Quotas are the daemon's own -config setting; a session's would
		// otherwise be dropped without a word.
		{"tenants", spec(`, "serve": {"tenants": [{"name": "alpha", "max_sessions": 1}]}`), "serve.tenants"},
		// The state layout is the daemon's -state-dir; no key names a path.
		{"wal_dir", spec(`, "serve": {"wal_dir": "/tmp/w"}`), `unknown field "wal_dir"`},
		{"checkpoint", spec(`, "serve": {"checkpoint": "/tmp/ck.json"}`), `unknown field "checkpoint"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := build(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("build = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
