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
	// Serve configures the networked service (cmd/icewafld): where to
	// listen and how to treat slow subscribers. Ignored by the
	// single-process CLI.
	Serve *ServeSpec `json:"serve,omitempty"`
}

// ServeSpec is the JSON form of the service-layer knobs consumed by
// cmd/icewafld. Flags override every field.
type ServeSpec struct {
	// Listen is the raw-TCP address serving length-prefixed frames
	// (default ":7077").
	Listen string `json:"listen,omitempty"`
	// HTTP is the HTTP address serving NDJSON streams and /metrics
	// ("" disables HTTP).
	HTTP string `json:"http,omitempty"`
	// Buffer is the per-subscriber send queue capacity in frames
	// (default 256).
	Buffer int `json:"buffer,omitempty"`
	// Replay is the number of frames a memory-only session retains per
	// channel for late subscribers and reconnects (default 65536); with
	// a WAL the log serves replay instead.
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
	// reorder, shards, columnar and checkpoint are valid is
	// core.StreamSpec's call.
	Shards int `json:"shards,omitempty"`
	// ShardKey names the attribute whose value routes tuples to shards.
	ShardKey string `json:"shard_key,omitempty"`
	// Columnar serves the dirty channel as columnar micro-batches: the
	// pipeline runs through the columnar engine and clients receive
	// colbatch frames.
	Columnar bool `json:"columnar,omitempty"`
	// ColumnarBatch caps the rows per colbatch frame (default 256).
	ColumnarBatch int `json:"columnar_batch,omitempty"`
	// DrainTimeout bounds the graceful drain on SIGTERM (Go duration,
	// default "5s").
	DrainTimeout string `json:"drain_timeout,omitempty"`
	// WALDir enables the durable write-ahead log that then serves all
	// replay: one sub-directory per channel ("" = in-memory ring only,
	// replay does not survive restarts).
	WALDir string `json:"wal_dir,omitempty"`
	// WALSegmentBytes rotates WAL segments at this size (0 = the
	// netstream default, 8 MiB).
	WALSegmentBytes int64 `json:"wal_segment_bytes,omitempty"`
	// WALRetainBytes caps the closed WAL segments kept per channel
	// (0 = the netstream default, 256 MiB).
	WALRetainBytes int64 `json:"wal_retain_bytes,omitempty"`
	// WALRetainAge drops WAL segments older than this Go duration
	// ("" = keep regardless of age).
	WALRetainAge string `json:"wal_retain_age,omitempty"`
	// WALFsyncEvery batches fsync to one per this many appends (0 = the
	// netstream default, 64).
	WALFsyncEvery int `json:"wal_fsync_every,omitempty"`
	// Checkpoint is the path of the durable pipeline checkpoint enabling
	// resume-after-crash (requires wal_dir; "" disables).
	Checkpoint string `json:"checkpoint,omitempty"`
	// CheckpointEvery captures a checkpoint every this many emitted
	// tuples (default 256).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Supervise restarts the pipeline session after a panic or fatal
	// error instead of leaving the daemon serving a dead stream.
	Supervise bool `json:"supervise,omitempty"`
	// RestartBudget quarantines the session after this many restarts
	// within restart_window (default 3).
	RestartBudget int `json:"restart_budget,omitempty"`
	// RestartWindow is the sliding window for the restart budget (Go
	// duration, default "1m").
	RestartWindow string `json:"restart_window,omitempty"`
	// RestartBackoff is the base exponential backoff between restarts
	// (Go duration, default "100ms").
	RestartBackoff string `json:"restart_backoff,omitempty"`
	// Tenants configures per-tenant quotas for session mode
	// (icewafld -sessions). Tenants not listed get the zero quota
	// (unlimited). Ignored in single-pipeline mode.
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// StateDir enables the durable multi-tenant store in session mode:
	// every session gets its own WAL + checkpoint directory under
	// <state_dir>/<tenant>/<session>, persisted specs are resurrected on
	// daemon start, and per-tenant max_wal_bytes budgets apply. Ignored
	// in single-pipeline mode (use wal_dir there).
	StateDir string `json:"state_dir,omitempty"`
	// ArchiveDeleted moves a deleted session's state directory under
	// <state_dir>/.deleted instead of removing it (session mode).
	ArchiveDeleted bool `json:"archive_deleted,omitempty"`
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
	// sessions (session mode with state_dir): the retention sweep drops
	// the tenant's oldest closed segments over the cap, and creates are
	// rejected while the tenant is at or over budget.
	MaxWALBytes int64 `json:"max_wal_bytes,omitempty"`
}

// Shape is the execution shape the block describes.
func (s ServeSpec) Shape() core.StreamSpec {
	return core.StreamSpec{Reorder: s.Reorder, Shards: s.Shards, ShardKey: s.ShardKey, Columnar: s.Columnar, Checkpoint: s.Checkpoint != ""}
}

// Normalize applies the documented defaults and validates the spec. It
// is nil-safe: a nil spec yields the full default configuration.
func (s *ServeSpec) Normalize() (ServeSpec, error) {
	out := ServeSpec{
		Listen: ":7077", Buffer: 256, Replay: 65536, Policy: "block",
		Reorder: 64, Shards: 1, DrainTimeout: "5s",
		ColumnarBatch:   256,
		CheckpointEvery: 256,
		RestartBudget:   3, RestartWindow: "1m", RestartBackoff: "100ms",
	}
	if s == nil {
		return out, nil
	}
	if s.Listen != "" {
		out.Listen = s.Listen
	}
	out.HTTP = s.HTTP
	if s.Buffer != 0 {
		if s.Buffer < 1 {
			return out, fmt.Errorf("config: serve.buffer must be positive, got %d", s.Buffer)
		}
		out.Buffer = s.Buffer
	}
	if s.Replay != 0 {
		if s.Replay < 1 {
			return out, fmt.Errorf("config: serve.replay must be positive, got %d", s.Replay)
		}
		out.Replay = s.Replay
	}
	if s.Policy != "" {
		switch s.Policy {
		case "block", "drop-oldest", "disconnect-slow":
			out.Policy = s.Policy
		default:
			return out, fmt.Errorf("config: serve.policy %q (want block, drop-oldest or disconnect-slow)", s.Policy)
		}
	}
	if s.Reorder != 0 {
		if s.Reorder < 1 {
			return out, fmt.Errorf("config: serve.reorder must be positive, got %d", s.Reorder)
		}
		out.Reorder = s.Reorder
	}
	if s.Shards != 0 {
		if s.Shards < 1 {
			return out, fmt.Errorf("config: serve.shards must be positive, got %d", s.Shards)
		}
		out.Shards = s.Shards
	}
	out.ShardKey = s.ShardKey
	out.Columnar = s.Columnar
	if s.ColumnarBatch != 0 {
		if s.ColumnarBatch < 1 {
			return out, fmt.Errorf("config: serve.columnar_batch must be positive, got %d", s.ColumnarBatch)
		}
		out.ColumnarBatch = s.ColumnarBatch
	}
	if s.DrainTimeout != "" {
		d, err := time.ParseDuration(s.DrainTimeout)
		if err != nil || d <= 0 {
			return out, fmt.Errorf("config: serve.drain_timeout %q is not a positive duration", s.DrainTimeout)
		}
		out.DrainTimeout = s.DrainTimeout
	}
	out.WALDir = s.WALDir
	if s.WALSegmentBytes != 0 {
		if s.WALSegmentBytes < 1 {
			return out, fmt.Errorf("config: serve.wal_segment_bytes must be positive, got %d", s.WALSegmentBytes)
		}
		out.WALSegmentBytes = s.WALSegmentBytes
	}
	if s.WALRetainBytes != 0 {
		if s.WALRetainBytes < 1 {
			return out, fmt.Errorf("config: serve.wal_retain_bytes must be positive, got %d", s.WALRetainBytes)
		}
		out.WALRetainBytes = s.WALRetainBytes
	}
	if s.WALRetainAge != "" {
		d, err := time.ParseDuration(s.WALRetainAge)
		if err != nil || d <= 0 {
			return out, fmt.Errorf("config: serve.wal_retain_age %q is not a positive duration", s.WALRetainAge)
		}
		out.WALRetainAge = s.WALRetainAge
	}
	if s.WALFsyncEvery != 0 {
		if s.WALFsyncEvery < 1 {
			return out, fmt.Errorf("config: serve.wal_fsync_every must be positive, got %d", s.WALFsyncEvery)
		}
		out.WALFsyncEvery = s.WALFsyncEvery
	}
	out.Checkpoint = s.Checkpoint
	if out.Checkpoint != "" && out.WALDir == "" {
		return out, fmt.Errorf("config: serve.checkpoint requires serve.wal_dir (a checkpoint without a durable log cannot resume)")
	}
	// The block's own statement of the execution shape must be valid. An
	// unset reorder stays 0 here: the daemon's flags may still replace
	// the default window before it validates the final shape.
	shape := out.Shape()
	shape.Reorder = s.Reorder
	if err := shape.Validate(nil); err != nil {
		return out, fmt.Errorf("config: serve: %w", err)
	}
	if s.CheckpointEvery != 0 {
		if s.CheckpointEvery < 1 {
			return out, fmt.Errorf("config: serve.checkpoint_every must be positive, got %d", s.CheckpointEvery)
		}
		out.CheckpointEvery = s.CheckpointEvery
	}
	out.Supervise = s.Supervise
	if s.RestartBudget != 0 {
		if s.RestartBudget < 1 {
			return out, fmt.Errorf("config: serve.restart_budget must be positive, got %d", s.RestartBudget)
		}
		out.RestartBudget = s.RestartBudget
	}
	if s.RestartWindow != "" {
		d, err := time.ParseDuration(s.RestartWindow)
		if err != nil || d <= 0 {
			return out, fmt.Errorf("config: serve.restart_window %q is not a positive duration", s.RestartWindow)
		}
		out.RestartWindow = s.RestartWindow
	}
	if s.RestartBackoff != "" {
		d, err := time.ParseDuration(s.RestartBackoff)
		if err != nil || d <= 0 {
			return out, fmt.Errorf("config: serve.restart_backoff %q is not a positive duration", s.RestartBackoff)
		}
		out.RestartBackoff = s.RestartBackoff
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
	// archive_deleted-requires-state_dir is validated by the daemon after
	// flag overrides: a state dir supplied via -state-dir must be able to
	// combine with a config-file archive_deleted.
	out.StateDir = s.StateDir
	out.ArchiveDeleted = s.ArchiveDeleted
	return out, nil
}

// FaultPolicySpec is the JSON form of the fault-tolerance knobs: how a
// run reacts to malformed tuples, panicking operators, flaky sources,
// and interruptions.
type FaultPolicySpec struct {
	// Quarantine skips failing tuples (dead-letter queue) instead of
	// aborting the run.
	Quarantine bool `json:"quarantine,omitempty"`
	// MaxQuarantined caps the dead-letter queue (0 = unlimited).
	MaxQuarantined int `json:"max_quarantined,omitempty"`
	// Retries is the number of re-attempts for transient source errors
	// (0 disables retrying).
	Retries int `json:"retries,omitempty"`
	// Backoff is the base delay before the first retry (Go duration,
	// default "10ms"); each retry doubles it.
	Backoff string `json:"backoff,omitempty"`
	// MaxBackoff caps the exponential backoff (default "1s").
	MaxBackoff string `json:"max_backoff,omitempty"`
	// Jitter is the symmetric randomisation fraction of the backoff
	// (default 0.5).
	Jitter float64 `json:"jitter,omitempty"`
	// AttemptTimeout bounds one source attempt (Go duration, default
	// unbounded).
	AttemptTimeout string `json:"attempt_timeout,omitempty"`
	// CheckpointInterval is the number of emitted tuples between
	// checkpoints when the harness enables checkpointing (default 5000).
	CheckpointInterval int `json:"checkpoint_interval,omitempty"`
}

// Policy compiles the quarantine knobs into a core fault policy.
func (f *FaultPolicySpec) Policy() core.FaultPolicy {
	if f == nil {
		return core.FaultPolicy{}
	}
	return core.FaultPolicy{Quarantine: f.Quarantine, MaxQuarantined: f.MaxQuarantined}
}

// RetryPolicy compiles the retry knobs into a stream retry policy; ok
// is false when retrying is disabled.
func (f *FaultPolicySpec) RetryPolicy() (stream.RetryPolicy, bool, error) {
	if f == nil || f.Retries <= 0 {
		return stream.RetryPolicy{}, false, nil
	}
	p := stream.RetryPolicy{MaxRetries: f.Retries, Jitter: f.Jitter}
	var err error
	if f.Backoff != "" {
		if p.BaseDelay, err = time.ParseDuration(f.Backoff); err != nil {
			return p, false, fmt.Errorf("config: fault_policy: bad backoff: %w", err)
		}
	}
	if f.MaxBackoff != "" {
		if p.MaxDelay, err = time.ParseDuration(f.MaxBackoff); err != nil {
			return p, false, fmt.Errorf("config: fault_policy: bad max_backoff: %w", err)
		}
	}
	if f.AttemptTimeout != "" {
		if p.AttemptTimeout, err = time.ParseDuration(f.AttemptTimeout); err != nil {
			return p, false, fmt.Errorf("config: fault_policy: bad attempt_timeout: %w", err)
		}
	}
	return p, true, nil
}

// Interval returns the effective checkpoint interval in tuples.
func (f *FaultPolicySpec) Interval() int {
	if f == nil || f.CheckpointInterval <= 0 {
		return 5000
	}
	return f.CheckpointInterval
}

// PipelineSpec is one pollution pipeline.
type PipelineSpec struct {
	Name      string         `json:"name,omitempty"`
	Polluters []PolluterSpec `json:"polluters"`
}

// PolluterSpec describes a standard or composite polluter.
type PolluterSpec struct {
	Name string `json:"name"`
	// Type is "standard" (default) or "composite".
	Type      string         `json:"type,omitempty"`
	Condition *ConditionSpec `json:"condition,omitempty"`
	Error     *ErrorSpec     `json:"error,omitempty"`
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

// ConditionSpec describes a condition tree.
type ConditionSpec struct {
	Type string `json:"type"`

	// random
	P      *float64   `json:"p,omitempty"`
	PParam *ParamSpec `json:"p_param,omitempty"`

	// compare
	Attr  string          `json:"attr,omitempty"`
	Op    string          `json:"op,omitempty"`
	Value json.RawMessage `json:"value,omitempty"`

	// time_interval
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`

	// time_of_day
	FromHour int `json:"from_hour,omitempty"`
	ToHour   int `json:"to_hour,omitempty"`

	// and / or / not; not/sticky/budget use Child as the inner condition
	Children []ConditionSpec `json:"children,omitempty"`
	Child    *ConditionSpec  `json:"child,omitempty"`

	// sticky
	Hold string `json:"hold,omitempty"`

	// markov (Gilbert-Elliott burst chain)
	PEnter float64 `json:"p_enter,omitempty"`
	PExit  float64 `json:"p_exit,omitempty"`

	// budget
	Budget int    `json:"budget,omitempty"`
	Window string `json:"window,omitempty"`
}

// ParamSpec describes a scalar or time-varying parameter.
type ParamSpec struct {
	// Const is used when the parameter appears as a bare number.
	Const *float64 `json:"const,omitempty"`
	Type  string   `json:"type,omitempty"` // linear | sinusoid_daily | pattern
	// linear
	From string  `json:"from,omitempty"`
	To   string  `json:"to,omitempty"`
	V0   float64 `json:"v0,omitempty"`
	V1   float64 `json:"v1,omitempty"`
	// sinusoid_daily
	Amp    float64 `json:"amp,omitempty"`
	Offset float64 `json:"offset,omitempty"`
	// pattern
	Pattern *PatternSpec `json:"pattern,omitempty"`
	Max     float64      `json:"max,omitempty"`
}

// UnmarshalJSON accepts either a bare number or a parameter object.
func (p *ParamSpec) UnmarshalJSON(data []byte) error {
	var num float64
	if err := json.Unmarshal(data, &num); err == nil {
		p.Const = &num
		return nil
	}
	type alias ParamSpec
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*p = ParamSpec(a)
	return nil
}

// PatternSpec describes a change pattern.
type PatternSpec struct {
	Type       string `json:"type"` // abrupt | incremental | intermediate
	At         string `json:"at,omitempty"`
	From       string `json:"from,omitempty"`
	To         string `json:"to,omitempty"`
	Triangular bool   `json:"triangular,omitempty"`
}

// ErrorSpec describes an error function.
type ErrorSpec struct {
	Type string `json:"type"`

	Stddev     *ParamSpec      `json:"stddev,omitempty"`
	Lo         *ParamSpec      `json:"lo,omitempty"`
	Hi         *ParamSpec      `json:"hi,omitempty"`
	Factor     *ParamSpec      `json:"factor,omitempty"`
	Delta      *ParamSpec      `json:"delta,omitempty"`
	Magnitude  *ParamSpec      `json:"magnitude,omitempty"`
	Value      json.RawMessage `json:"value,omitempty"`
	Categories []string        `json:"categories,omitempty"`
	Digits     int             `json:"digits,omitempty"`
	ClampLo    float64         `json:"clamp_lo,omitempty"`
	ClampHi    float64         `json:"clamp_hi,omitempty"`
	Delay      string          `json:"delay,omitempty"`
	Offset     string          `json:"offset,omitempty"`
	ReleaseAt  string          `json:"release_at,omitempty"`
	Errors     []ErrorSpec     `json:"errors,omitempty"` // chain
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
	cond, err := buildCondition(spec.Condition, seed, path+"/cond")
	if err != nil {
		return nil, err
	}
	switch spec.Type {
	case "", "standard":
		if spec.Error == nil {
			return nil, fmt.Errorf("config: standard polluter %q has no error", path)
		}
		if len(spec.Children) > 0 {
			return nil, fmt.Errorf("config: standard polluter %q cannot have children", path)
		}
		errFn, err := buildError(*spec.Error, seed, path+"/error")
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

func buildCondition(spec *ConditionSpec, seed int64, path string) (core.Condition, error) {
	if spec == nil {
		return core.Always{}, nil
	}
	switch spec.Type {
	case "always":
		return core.Always{}, nil
	case "never":
		return core.Never{}, nil
	case "random":
		var p core.Param
		switch {
		case spec.PParam != nil:
			var err error
			p, err = buildParam(spec.PParam, path+"/p")
			if err != nil {
				return nil, err
			}
		case spec.P != nil:
			if !(*spec.P >= 0 && *spec.P <= 1) {
				return nil, fmt.Errorf("config: random at %s: p %g outside [0, 1]", path, *spec.P)
			}
			p = core.Const(*spec.P)
		default:
			return nil, fmt.Errorf("config: random condition at %s needs p or p_param", path)
		}
		return core.NewRandom(p, rng.Derive(seed, path)), nil
	case "compare":
		if spec.Attr == "" {
			return nil, fmt.Errorf("config: compare condition at %s needs attr", path)
		}
		v, err := parseValueJSON(spec.Value)
		if err != nil {
			return nil, fmt.Errorf("config: compare at %s: %w", path, err)
		}
		op := core.ValueOp(spec.Op)
		switch op {
		case core.OpEq, core.OpNe, core.OpLt, core.OpLe, core.OpGt, core.OpGe:
		default:
			return nil, fmt.Errorf("config: compare at %s has unknown op %q", path, spec.Op)
		}
		return core.Compare{Attr: spec.Attr, Op: op, Value: v}, nil
	case "time_interval":
		from, err := parseTime(spec.From)
		if err != nil {
			return nil, fmt.Errorf("config: time_interval at %s: %w", path, err)
		}
		to, err := parseTime(spec.To)
		if err != nil {
			return nil, fmt.Errorf("config: time_interval at %s: %w", path, err)
		}
		return core.TimeInterval{From: from, To: to}, nil
	case "time_of_day":
		switch {
		case spec.FromHour < 0 || spec.FromHour > 23:
			return nil, fmt.Errorf("config: time_of_day at %s: from_hour %d outside 0-23", path, spec.FromHour)
		case spec.ToHour < 0 || spec.ToHour > 24:
			return nil, fmt.Errorf("config: time_of_day at %s: to_hour %d outside 0-24", path, spec.ToHour)
		case spec.FromHour == spec.ToHour:
			return nil, fmt.Errorf("config: time_of_day at %s: from_hour == to_hour (%d) never fires", path, spec.FromHour)
		}
		return core.TimeOfDay{FromHour: spec.FromHour, ToHour: spec.ToHour}, nil
	case "and", "or":
		var children []core.Condition
		for i := range spec.Children {
			c, err := buildCondition(&spec.Children[i], seed, fmt.Sprintf("%s/%d", path, i))
			if err != nil {
				return nil, err
			}
			children = append(children, c)
		}
		if spec.Type == "and" {
			return core.And(children), nil
		}
		return core.Or(children), nil
	case "not":
		if spec.Child == nil {
			return nil, fmt.Errorf("config: not condition at %s needs a child", path)
		}
		inner, err := buildCondition(spec.Child, seed, path+"/not")
		if err != nil {
			return nil, err
		}
		return core.Not{Inner: inner}, nil
	case "sticky":
		if spec.Child == nil {
			return nil, fmt.Errorf("config: sticky condition at %s needs a child trigger", path)
		}
		hold, err := time.ParseDuration(spec.Hold)
		if err != nil {
			return nil, fmt.Errorf("config: sticky at %s: bad hold: %w", path, err)
		}
		trigger, err := buildCondition(spec.Child, seed, path+"/sticky")
		if err != nil {
			return nil, err
		}
		return core.NewSticky(trigger, hold), nil
	case "markov":
		if spec.PEnter <= 0 || spec.PEnter > 1 || spec.PExit <= 0 || spec.PExit > 1 {
			return nil, fmt.Errorf("config: markov at %s needs p_enter and p_exit in (0, 1]", path)
		}
		return core.NewMarkovCondition(spec.PEnter, spec.PExit, rng.Derive(seed, path)), nil
	case "budget":
		if spec.Child == nil {
			return nil, fmt.Errorf("config: budget condition at %s needs a child", path)
		}
		if spec.Budget < 1 {
			return nil, fmt.Errorf("config: budget at %s needs budget >= 1", path)
		}
		window, err := time.ParseDuration(spec.Window)
		if err != nil {
			return nil, fmt.Errorf("config: budget at %s: bad window: %w", path, err)
		}
		inner, err := buildCondition(spec.Child, seed, path+"/budget")
		if err != nil {
			return nil, err
		}
		return core.NewBudgetCondition(inner, spec.Budget, window), nil
	}
	return nil, fmt.Errorf("config: unknown condition type %q at %s", spec.Type, path)
}

func buildParam(spec *ParamSpec, path string) (core.Param, error) {
	if spec == nil {
		return nil, fmt.Errorf("config: missing parameter at %s", path)
	}
	if spec.Const != nil {
		return core.Const(*spec.Const), nil
	}
	switch spec.Type {
	case "linear":
		from, err := parseTime(spec.From)
		if err != nil {
			return nil, fmt.Errorf("config: linear param at %s: %w", path, err)
		}
		to, err := parseTime(spec.To)
		if err != nil {
			return nil, fmt.Errorf("config: linear param at %s: %w", path, err)
		}
		return core.Linear(from, to, spec.V0, spec.V1), nil
	case "sinusoid_daily":
		return core.SinusoidDaily(spec.Amp, spec.Offset), nil
	case "pattern":
		if spec.Pattern == nil {
			return nil, fmt.Errorf("config: pattern param at %s needs a pattern", path)
		}
		pat, err := buildPattern(spec.Pattern, path)
		if err != nil {
			return nil, err
		}
		max := spec.Max
		if max == 0 {
			max = 1
		}
		return core.Scaled(pat, max), nil
	}
	return nil, fmt.Errorf("config: unknown param type %q at %s", spec.Type, path)
}

func buildPattern(spec *PatternSpec, path string) (core.Pattern, error) {
	switch spec.Type {
	case "abrupt":
		at, err := parseTime(spec.At)
		if err != nil {
			return nil, fmt.Errorf("config: abrupt pattern at %s: %w", path, err)
		}
		return core.AbruptPattern{At: at}, nil
	case "incremental":
		from, err := parseTime(spec.From)
		if err != nil {
			return nil, fmt.Errorf("config: incremental pattern at %s: %w", path, err)
		}
		to, err := parseTime(spec.To)
		if err != nil {
			return nil, fmt.Errorf("config: incremental pattern at %s: %w", path, err)
		}
		return core.IncrementalPattern{From: from, To: to}, nil
	case "intermediate":
		from, err := parseTime(spec.From)
		if err != nil {
			return nil, fmt.Errorf("config: intermediate pattern at %s: %w", path, err)
		}
		to, err := parseTime(spec.To)
		if err != nil {
			return nil, fmt.Errorf("config: intermediate pattern at %s: %w", path, err)
		}
		return core.IntermediatePattern{From: from, To: to, Triangular: spec.Triangular}, nil
	}
	return nil, fmt.Errorf("config: unknown pattern type %q at %s", spec.Type, path)
}

func buildError(spec ErrorSpec, seed int64, path string) (core.ErrorFunc, error) {
	required := func(p *ParamSpec, name string) (core.Param, error) {
		if p == nil {
			return nil, fmt.Errorf("config: error at %s requires %s", path, name)
		}
		return buildParam(p, path+"/"+name)
	}
	switch spec.Type {
	case "gaussian_noise":
		sd, err := required(spec.Stddev, "stddev")
		if err != nil {
			return nil, err
		}
		return &core.GaussianNoise{Stddev: sd, Rand: rng.Derive(seed, path)}, nil
	case "uniform_mult_noise":
		lo, err := required(spec.Lo, "lo")
		if err != nil {
			return nil, err
		}
		hi, err := required(spec.Hi, "hi")
		if err != nil {
			return nil, err
		}
		return &core.UniformMultNoise{Lo: lo, Hi: hi, Rand: rng.Derive(seed, path)}, nil
	case "scale_by_factor":
		f, err := required(spec.Factor, "factor")
		if err != nil {
			return nil, err
		}
		return &core.ScaleByFactor{Factor: f}, nil
	case "missing_value":
		return core.MissingValue{}, nil
	case "set_constant":
		v, err := parseValueJSON(spec.Value)
		if err != nil {
			return nil, fmt.Errorf("config: set_constant at %s: %w", path, err)
		}
		return core.SetConstant{Value: v}, nil
	case "incorrect_category":
		if len(spec.Categories) == 0 {
			return nil, fmt.Errorf("config: incorrect_category at %s needs categories", path)
		}
		return &core.IncorrectCategory{Categories: spec.Categories, Rand: rng.Derive(seed, path)}, nil
	case "round_precision":
		return core.RoundPrecision{Digits: spec.Digits}, nil
	case "outlier":
		m, err := required(spec.Magnitude, "magnitude")
		if err != nil {
			return nil, err
		}
		return &core.Outlier{Magnitude: m, Rand: rng.Derive(seed, path)}, nil
	case "string_typo":
		return &core.StringTypo{Rand: rng.Derive(seed, path)}, nil
	case "swap_attributes":
		return core.SwapAttributes{}, nil
	case "offset":
		d, err := required(spec.Delta, "delta")
		if err != nil {
			return nil, err
		}
		return core.Offset{Delta: d}, nil
	case "clamp":
		if spec.ClampLo > spec.ClampHi {
			return nil, fmt.Errorf("config: clamp at %s: clamp_lo %g > clamp_hi %g", path, spec.ClampLo, spec.ClampHi)
		}
		return core.Clamp{Lo: spec.ClampLo, Hi: spec.ClampHi}, nil
	case "delayed_tuple":
		d, err := time.ParseDuration(spec.Delay)
		if err != nil {
			return nil, fmt.Errorf("config: delayed_tuple at %s: %w", path, err)
		}
		return core.DelayTuple{Delay: d}, nil
	case "frozen_value":
		return core.NewFrozenValue(), nil
	case "timestamp_shift":
		d, err := time.ParseDuration(spec.Offset)
		if err != nil {
			return nil, fmt.Errorf("config: timestamp_shift at %s: %w", path, err)
		}
		return core.TimestampShift{Offset: d}, nil
	case "dropped_tuple":
		return core.DropTuple{}, nil
	case "hold_and_release":
		at, err := parseTime(spec.ReleaseAt)
		if err != nil {
			return nil, fmt.Errorf("config: hold_and_release at %s: %w", path, err)
		}
		return core.HoldAndRelease{ReleaseAt: at}, nil
	case "chain":
		if len(spec.Errors) == 0 {
			return nil, fmt.Errorf("config: chain at %s needs errors", path)
		}
		var chain core.Chain
		for i, sub := range spec.Errors {
			e, err := buildError(sub, seed, fmt.Sprintf("%s/%d", path, i))
			if err != nil {
				return nil, err
			}
			chain = append(chain, e)
		}
		return chain, nil
	}
	return nil, fmt.Errorf("config: unknown error type %q at %s", spec.Type, path)
}

// parseValueJSON maps a raw JSON scalar onto a stream.Value: numbers to
// float, strings to string (or time when RFC3339), booleans to bool, and
// null to NULL.
func parseValueJSON(raw json.RawMessage) (stream.Value, error) {
	if len(raw) == 0 {
		return stream.Null(), fmt.Errorf("missing value")
	}
	var v interface{}
	if err := json.Unmarshal(raw, &v); err != nil {
		return stream.Null(), err
	}
	switch x := v.(type) {
	case nil:
		return stream.Null(), nil
	case float64:
		return stream.Float(x), nil
	case bool:
		return stream.Bool(x), nil
	case string:
		if t, err := time.Parse(time.RFC3339, x); err == nil {
			return stream.Time(t), nil
		}
		return stream.Str(x), nil
	}
	return stream.Null(), fmt.Errorf("unsupported JSON value %s", string(raw))
}

// parseTime parses an RFC3339 timestamp; the empty string maps to the
// zero time (unbounded interval edge).
func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad timestamp %q: %w", s, err)
	}
	return t, nil
}
