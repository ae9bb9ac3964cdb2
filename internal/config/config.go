// Package config implements Icewafl's declarative error-configuration
// language (the "Define Error Conditions" input of Figure 2, addressing
// Challenge C3): pollution scenarios are described as JSON documents and
// compiled into core pipelines. Inexperienced users combine predefined
// error types and conditions; experts nest composite polluters and
// sub-pipelines.
//
// All randomness is derived from the document's root seed and the
// polluter's path within the document, so a configuration is a complete,
// reproducible specification of a pollution run.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// Document is the root of a pollution configuration.
type Document struct {
	// Seed drives every random draw of the compiled process.
	Seed int64 `json:"seed"`
	// Route selects how tuples are distributed over the pipelines:
	// "all" (default for m > 1), "round_robin", or "by:<attribute>".
	Route string `json:"route,omitempty"`
	// Fault configures the fault-tolerance behaviour of the run.
	Fault *FaultPolicySpec `json:"fault_policy,omitempty"`
	// Pipelines holds one pollution pipeline per sub-stream.
	Pipelines []PipelineSpec `json:"pipelines"`
	// Serve sets the engine knobs: the execution shape and checkpoint
	// cadence (read by cmd/icewafl -stream too), and a served run's
	// replay, backpressure, drain and WAL tuning (cmd/icewafld).
	Serve *ServeSpec `json:"serve,omitempty"`
}

// ServeSpec is the JSON form of a run's engine knobs, consumed by
// cmd/icewafld and cmd/icewafl -stream. Each setting has this one
// spelling: no flag of either binary restates a key, and deployment
// (files, listeners, the state directory) is set only by their flags.
type ServeSpec struct {
	// Buffer is the per-subscriber send queue capacity in frames
	// (default 256).
	Buffer int `json:"buffer,omitempty"`
	// Replay is the number of frames a memory-only session retains per
	// channel for late subscribers and reconnects (default 65536); a
	// durable session serves replay from its WAL instead.
	Replay int `json:"replay,omitempty"`
	// Policy selects the backpressure behaviour towards slow
	// subscribers: "block" (default), "drop-oldest" or
	// "disconnect-slow".
	Policy string `json:"policy,omitempty"`
	// Reorder is the streaming runner's bounded reordering window
	// (default 64).
	Reorder int `json:"reorder,omitempty"`
	// Shards partitions the keyed pollution hot path across this many
	// parallel workers (default 1 = sequential). Which combinations of
	// reorder and shards are valid, and which a durable run can
	// checkpoint, is core.StreamSpec's call.
	Shards int `json:"shards,omitempty"`
	// ShardKey names the attribute whose value routes tuples to shards.
	ShardKey string `json:"shard_key,omitempty"`
	// DrainTimeout bounds the graceful drain on SIGTERM (Go duration,
	// default "5s").
	DrainTimeout string `json:"drain_timeout,omitempty"`
	// WALSegmentBytes, WALRetainBytes and WALFsyncEvery tune the
	// write-ahead log of a durable run (icewafld -state-dir): one session
	// log holding all three channels and the checkpoints.
	//
	// WALSegmentBytes rotates WAL segments at this size (0 = the
	// netstream default, 8 MiB).
	WALSegmentBytes int64 `json:"wal_segment_bytes,omitempty"`
	// WALRetainBytes caps the session log's size; the oldest closed
	// segments go first (0 = the netstream default, 256 MiB).
	WALRetainBytes int64 `json:"wal_retain_bytes,omitempty"`
	// WALFsyncEvery bounds the frames of one channel appended but not yet
	// durable: the log fsyncs once a channel has this many, and that one
	// fsync covers every channel (0 = the netstream default, 64).
	WALFsyncEvery int `json:"wal_fsync_every,omitempty"`
	// CheckpointEvery captures a checkpoint every this many emitted
	// tuples (default 256). A durable run checkpoints exactly when its
	// shape is checkpointable (reorder 1, one shard); icewafl -stream
	// also flushes its pollution log at this cadence.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Tenants configures per-tenant quotas for session mode, read from
	// the daemon's own -config (icewafld -sessions). Tenants not listed
	// get the zero quota (unlimited). A session spec may not set it.
	Tenants []TenantSpec `json:"tenants,omitempty"`
}

// TenantSpec is one tenant's quota configuration for session mode.
// Zero fields are unlimited.
type TenantSpec struct {
	// Name identifies the tenant ([A-Za-z0-9._-], required).
	Name string `json:"name"`
	// MaxSessions caps the tenant's concurrently running sessions.
	MaxSessions int `json:"max_sessions,omitempty"`
	// MaxSubscribers caps the tenant's concurrently open subscriptions
	// across all its sessions.
	MaxSubscribers int `json:"max_subscribers,omitempty"`
	// BytesPerSec rate-limits frame delivery to the tenant's
	// subscribers via a shared token bucket.
	BytesPerSec int64 `json:"bytes_per_sec,omitempty"`
	// Burst is the token-bucket depth in bytes (default: one second of
	// bytes_per_sec).
	Burst int64 `json:"burst,omitempty"`
	// MaxWALBytes caps the tenant's total durable WAL bytes across its
	// sessions (session mode with -state-dir): the retention sweep drops
	// the tenant's oldest closed segments over the cap, and creates are
	// rejected while the tenant is at or over budget.
	MaxWALBytes int64 `json:"max_wal_bytes,omitempty"`
}

// Shape is the execution shape the block describes.
func (s ServeSpec) Shape() core.StreamSpec {
	return core.StreamSpec{Reorder: s.Reorder, Shards: s.Shards, ShardKey: s.ShardKey}
}

// Normalize applies the documented defaults and validates the spec. It
// is nil-safe: a nil spec yields the full default configuration.
func (s *ServeSpec) Normalize() (ServeSpec, error) {
	out := ServeSpec{
		Buffer: 256, Replay: 65536, Policy: "block",
		Reorder: 64, Shards: 1, DrainTimeout: "5s",
		CheckpointEvery: 256,
	}
	if s == nil {
		return out, nil
	}
	var err error
	positive(&err, "buffer", s.Buffer, &out.Buffer)
	positive(&err, "replay", s.Replay, &out.Replay)
	if err != nil {
		return out, err
	}
	if s.Policy != "" {
		switch s.Policy {
		case "block", "drop-oldest", "disconnect-slow":
			out.Policy = s.Policy
		default:
			return out, fmt.Errorf("config: serve.policy %q (want block, drop-oldest or disconnect-slow)", s.Policy)
		}
	}
	positive(&err, "reorder", s.Reorder, &out.Reorder)
	positive(&err, "shards", s.Shards, &out.Shards)
	out.ShardKey = s.ShardKey
	positiveDuration(&err, "drain_timeout", s.DrainTimeout, &out.DrainTimeout)
	positive(&err, "wal_segment_bytes", s.WALSegmentBytes, &out.WALSegmentBytes)
	positive(&err, "wal_retain_bytes", s.WALRetainBytes, &out.WALRetainBytes)
	positive(&err, "wal_fsync_every", s.WALFsyncEvery, &out.WALFsyncEvery)
	if err != nil {
		return out, err
	}
	if err := out.Shape().Validate(nil); err != nil {
		return out, fmt.Errorf("config: serve: %w", err)
	}
	positive(&err, "checkpoint_every", s.CheckpointEvery, &out.CheckpointEvery)
	if err != nil {
		return out, err
	}
	seen := make(map[string]bool, len(s.Tenants))
	for i, t := range s.Tenants {
		if t.Name == "" {
			return out, fmt.Errorf("config: serve.tenants[%d] needs a name", i)
		}
		if seen[t.Name] {
			return out, fmt.Errorf("config: serve.tenants has duplicate name %q", t.Name)
		}
		seen[t.Name] = true
		if t.MaxSessions < 0 || t.MaxSubscribers < 0 || t.BytesPerSec < 0 || t.Burst < 0 || t.MaxWALBytes < 0 {
			return out, fmt.Errorf("config: serve.tenants[%q] quotas must be non-negative", t.Name)
		}
		if t.Burst > 0 && t.BytesPerSec == 0 {
			return out, fmt.Errorf("config: serve.tenants[%q] sets burst without bytes_per_sec", t.Name)
		}
		out.Tenants = append(out.Tenants, t)
	}
	return out, nil
}

// positive copies a set count of the serve block into *out; once *err is
// set, it does nothing.
func positive[T int | int64](err *error, name string, v T, out *T) {
	switch {
	case *err != nil || v == 0:
	case v < 1:
		*err = fmt.Errorf("config: serve.%s must be positive, got %d", name, v)
	default:
		*out = v
	}
}

// positiveDuration is positive for a Go duration string.
func positiveDuration(err *error, name, v string, out *string) {
	if *err != nil || v == "" {
		return
	}
	if d, perr := time.ParseDuration(v); perr != nil || d <= 0 {
		*err = fmt.Errorf("config: serve.%s %q is not a positive duration", name, v)
		return
	}
	*out = v
}

// FaultPolicySpec is the JSON form of the fault-tolerance knobs: how a
// run reacts to malformed tuples and panicking operators.
type FaultPolicySpec struct {
	// Quarantine skips failing tuples (dead-letter queue) instead of
	// aborting the run.
	Quarantine bool `json:"quarantine,omitempty"`
	// MaxQuarantined caps the dead-letter queue (0 = unlimited).
	MaxQuarantined int `json:"max_quarantined,omitempty"`
}

// Policy compiles the quarantine knobs into a core fault policy.
func (f *FaultPolicySpec) Policy() core.FaultPolicy {
	if f == nil {
		return core.FaultPolicy{}
	}
	return core.FaultPolicy{Quarantine: f.Quarantine, MaxQuarantined: f.MaxQuarantined}
}

// PipelineSpec is one pollution pipeline.
type PipelineSpec struct {
	Name      string         `json:"name,omitempty"`
	Polluters []PolluterSpec `json:"polluters"`
}

// PolluterSpec describes a standard, composite or keyed polluter.
type PolluterSpec struct {
	Name string `json:"name"`
	// Type is "standard" (default), "composite" or "keyed".
	Type string `json:"type,omitempty"`
	// Condition and Error are objects of core's component table: a "type"
	// naming a condition or an error function, and the keys it takes.
	Condition core.Bag       `json:"condition,omitempty"`
	Error     core.Bag       `json:"error,omitempty"`
	Attrs     []string       `json:"attrs,omitempty"`
	Mode      string         `json:"mode,omitempty"` // composite: sequence|choice|weighted
	Weights   []float64      `json:"weights,omitempty"`
	Children  []PolluterSpec `json:"children,omitempty"`
	// KeyAttr and Template configure a "keyed" polluter: Template is
	// instantiated once per distinct value of KeyAttr, with key-specific
	// randomness.
	KeyAttr  string        `json:"key_attr,omitempty"`
	Template *PolluterSpec `json:"template,omitempty"`
}

// Parse decodes a JSON configuration document.
func Parse(r io.Reader) (*Document, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc Document
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("config: parse: %w", err)
	}
	return &doc, nil
}

// Build compiles the document into an executable pollution process.
func Build(doc *Document) (*core.Process, error) {
	if len(doc.Pipelines) == 0 {
		return nil, fmt.Errorf("config: document has no pipelines")
	}
	proc := &core.Process{FirstID: 1, KeepClean: true, Fault: doc.Fault.Policy()}
	for i, ps := range doc.Pipelines {
		path := fmt.Sprintf("pipeline[%d]", i)
		if ps.Name != "" {
			path = ps.Name
		}
		var polluters []core.Polluter
		for j, spec := range ps.Polluters {
			p, err := buildPolluter(spec, doc.Seed, fmt.Sprintf("%s/%d:%s", path, j, spec.Name))
			if err != nil {
				return nil, err
			}
			polluters = append(polluters, p)
		}
		proc.Pipelines = append(proc.Pipelines, core.NewPipeline(polluters...))
	}
	route, err := buildRoute(doc.Route)
	if err != nil {
		return nil, err
	}
	proc.Route = route
	return proc, nil
}

// Load parses and compiles in one step.
func Load(r io.Reader) (*core.Process, error) {
	doc, err := Parse(r)
	if err != nil {
		return nil, err
	}
	return Build(doc)
}

func buildRoute(route string) (stream.RouteFunc, error) {
	switch {
	case route == "" || route == "all":
		return nil, nil // Process defaults handle these
	case route == "round_robin":
		return stream.RouteRoundRobin(), nil
	case len(route) > 3 && route[:3] == "by:":
		return stream.RouteByAttribute(route[3:]), nil
	}
	return nil, fmt.Errorf("config: unknown route %q", route)
}

func buildPolluter(spec PolluterSpec, seed int64, path string) (core.Polluter, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("config: polluter at %s has no name", path)
	}
	var cond core.Condition = core.Always{}
	if spec.Condition != nil {
		var err error
		if cond, err = component[core.Condition](core.RoleCondition, spec.Condition, seed, path+"/cond"); err != nil {
			return nil, err
		}
	}
	switch spec.Type {
	case "", "standard":
		if spec.Error == nil {
			return nil, fmt.Errorf("config: standard polluter %q has no error", path)
		}
		if len(spec.Children) > 0 {
			return nil, fmt.Errorf("config: standard polluter %q cannot have children", path)
		}
		errFn, err := component[core.ErrorFunc](core.RoleError, spec.Error, seed, path+"/error")
		if err != nil {
			return nil, err
		}
		return core.NewStandard(spec.Name, errFn, cond, spec.Attrs...), nil
	case "composite":
		if spec.Error != nil {
			return nil, fmt.Errorf("config: composite polluter %q cannot carry an error", path)
		}
		var children []core.Polluter
		for j, c := range spec.Children {
			child, err := buildPolluter(c, seed, fmt.Sprintf("%s/%d:%s", path, j, c.Name))
			if err != nil {
				return nil, err
			}
			children = append(children, child)
		}
		comp := &core.Composite{PolluterName: spec.Name, Cond: cond, Children: children}
		switch spec.Mode {
		case "", "sequence":
			comp.Mode = core.ModeSequence
		case "choice":
			comp.Mode = core.ModeChoice
			comp.Rand = rng.Derive(seed, path+"/choice")
		case "weighted":
			if len(spec.Weights) != len(children) {
				return nil, fmt.Errorf("config: composite %q has %d weights for %d children", path, len(spec.Weights), len(children))
			}
			total := 0.0
			for _, w := range spec.Weights {
				if w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
					return nil, fmt.Errorf("config: weighted at %s: weight %g is not a finite non-negative number", path, w)
				}
				total += w
			}
			if total == 0 {
				return nil, fmt.Errorf("config: weighted at %s: all weights are zero", path)
			}
			comp.Mode = core.ModeWeighted
			comp.Weights = spec.Weights
			comp.Rand = rng.Derive(seed, path+"/choice")
		default:
			return nil, fmt.Errorf("config: composite %q has unknown mode %q", path, spec.Mode)
		}
		return comp, nil
	case "keyed":
		if spec.KeyAttr == "" || spec.Template == nil {
			return nil, fmt.Errorf("config: keyed polluter %q needs key_attr and template", path)
		}
		if spec.Error != nil || len(spec.Children) > 0 {
			return nil, fmt.Errorf("config: keyed polluter %q carries its behaviour in template only", path)
		}
		// Validate the template once upfront so configuration errors
		// surface at load time rather than on first key.
		if _, err := buildPolluter(*spec.Template, seed, path+"/template"); err != nil {
			return nil, err
		}
		tmpl := *spec.Template
		return core.NewKeyedPolluter(spec.Name, spec.KeyAttr, func(key string) core.Polluter {
			p, err := buildPolluter(tmpl, seed, path+"/key="+key)
			if err != nil {
				// Unreachable: the template was validated above and key
				// only affects RNG derivation.
				panic(fmt.Sprintf("config: keyed template instantiation: %v", err))
			}
			return p
		}), nil
	}
	return nil, fmt.Errorf("config: polluter %q has unknown type %q", path, spec.Type)
}

// component builds a condition or an error function through core's
// component table.
func component[T any](role core.Role, b core.Bag, seed int64, path string) (T, error) {
	c, err := core.Build(role, b, seed, path)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("config: %w", err)
	}
	return c.(T), nil
}
