package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"icewafl/internal/config"
	"icewafl/internal/csvio"
	"icewafl/internal/netstream"
	"icewafl/internal/obs"
	"icewafl/internal/schemafile"
	"icewafl/internal/stream"
)

// sessionSpec is the opaque per-session payload of POST /v1/sessions:
// a schema document, a pollution configuration (whose optional serve
// block sets the session's engine knobs) and an inline CSV input. The
// input rides in the request because a session is a self-contained,
// reproducible pipeline run — the daemon's filesystem is not part of
// the contract.
type sessionSpec struct {
	Schema json.RawMessage `json:"schema"`
	Config json.RawMessage `json:"config"`
	CSV    string          `json:"csv"`
}

// sessionBuilder compiles one session's spec into a pipeline Config.
// The service overrides Namespace, Reg, TrackDelivery and Logf; this
// hook owns everything pipeline-shaped.
func sessionBuilder(reg *obs.Registry) func(raw json.RawMessage) (netstream.Config, error) {
	return func(raw json.RawMessage) (netstream.Config, error) {
		var spec sessionSpec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return netstream.Config{}, fmt.Errorf("session spec: %w", err)
		}
		if len(spec.Schema) == 0 || len(spec.Config) == 0 || spec.CSV == "" {
			return netstream.Config{}, fmt.Errorf("session spec needs schema, config and csv")
		}
		schema, err := schemafile.Parse(bytes.NewReader(spec.Schema))
		if err != nil {
			return netstream.Config{}, fmt.Errorf("session schema: %w", err)
		}
		doc, err := config.Parse(bytes.NewReader(spec.Config))
		if err != nil {
			return netstream.Config{}, fmt.Errorf("session config: %w", err)
		}
		proc, err := config.Build(doc)
		if err != nil {
			return netstream.Config{}, fmt.Errorf("session config: %w", err)
		}
		if len(proc.Pipelines) != 1 {
			return netstream.Config{}, fmt.Errorf("session config must have exactly one pipeline, got %d", len(proc.Pipelines))
		}
		if err := proc.ValidateAttrs(schema); err != nil {
			return netstream.Config{}, err
		}
		if proc.Fault.Quarantine {
			proc.Fault.DLQ = stream.NewDeadLetterQueue()
		}
		proc.KeepClean = false // the clean channel is fed by the server's tap
		ss, err := doc.Serve.Normalize()
		if err != nil {
			return netstream.Config{}, err
		}
		if ss.WALDir != "" || ss.Checkpoint != "" {
			return netstream.Config{}, fmt.Errorf("session specs cannot choose wal_dir/checkpoint paths on the daemon's filesystem; run icewafld -sessions -state-dir to give every session its own durable WAL and checkpoint")
		}
		policy, err := netstream.ParsePolicy(ss.Policy)
		if err != nil {
			return netstream.Config{}, err
		}
		drainTimeout, _ := time.ParseDuration(ss.DrainTimeout)
		rWindow, _ := time.ParseDuration(ss.RestartWindow)
		rBackoff, _ := time.ParseDuration(ss.RestartBackoff)
		walRetainAge, _ := time.ParseDuration(ss.WALRetainAge)
		// Surface a broken retry policy at create time, not from inside
		// the running session's source factory.
		retryPolicy, retryOK, err := doc.Fault.RetryPolicy()
		if err != nil {
			return netstream.Config{}, err
		}
		columnar := ss.Columnar
		csv := spec.CSV
		newSource := func() (stream.Source, error) {
			var reader stream.Source
			var err error
			if columnar {
				reader, err = csvio.NewColumnReader(strings.NewReader(csv), schema)
			} else {
				reader, err = csvio.NewReader(strings.NewReader(csv), schema)
			}
			if err != nil {
				return nil, err
			}
			if retryOK {
				rs := stream.NewRetrySource(reader, retryPolicy)
				rs.Instrument(reg)
				return rs, nil
			}
			return reader, nil
		}
		return netstream.Config{
			Schema:        schema,
			Proc:          proc,
			NewSource:     newSource,
			Reorder:       ss.Reorder,
			Shards:        ss.Shards,
			ShardKey:      ss.ShardKey,
			Columnar:      columnar,
			ColumnarBatch: ss.ColumnarBatch,
			Buffer:        ss.Buffer,
			Replay:        ss.Replay,
			Policy:        policy,
			DrainTimeout:  drainTimeout,
			// Per-session WAL tuning (not paths): with a service state dir
			// these override the daemon-wide defaults for this session's
			// durable logs; without one they are ignored.
			WAL: netstream.WALOptions{
				SegmentBytes: ss.WALSegmentBytes,
				RetainBytes:  ss.WALRetainBytes,
				RetainAge:    walRetainAge,
				FsyncEvery:   ss.WALFsyncEvery,
			},
			CheckpointEvery: ss.CheckpointEvery,
			Supervise:       ss.Supervise,
			RestartBudget:   ss.RestartBudget,
			RestartWindow:   rWindow,
			RestartBackoff:  rBackoff,
		}, nil
	}
}

// sessionsOpts carries the flag overrides into session mode.
type sessionsOpts struct {
	configPath     string
	listen         string
	httpAddr       string
	drain          time.Duration
	traceSample    uint64
	stateDir       string
	archiveDeleted bool
	walSegment     int64
	walRetain      int64
	walRetainAge   time.Duration
	walFsyncEvery  int
}

// runSessions is the -sessions entry point: instead of running one
// pipeline, the daemon hosts the multi-tenant session service and
// pipelines arrive over the REST control plane.
func runSessions(opts sessionsOpts) {
	var serve *config.ServeSpec
	if opts.configPath != "" {
		cf, err := os.Open(opts.configPath)
		if err != nil {
			log.Fatal(err)
		}
		doc, err := config.Parse(cf)
		cf.Close()
		if err != nil {
			log.Fatal(err)
		}
		serve = doc.Serve
	}
	spec, err := serve.Normalize()
	if err != nil {
		log.Fatal(err)
	}
	if opts.listen != "" {
		spec.Listen = opts.listen
	}
	if opts.httpAddr != "" {
		spec.HTTP = opts.httpAddr
	}
	if spec.HTTP == "" {
		// The control plane is HTTP; session mode cannot run without it.
		spec.HTTP = ":7078"
	}
	if spec.HTTP == "off" {
		fatalUsage("-sessions requires an HTTP listener (the REST control plane)")
	}
	if opts.stateDir != "" {
		spec.StateDir = opts.stateDir
	}
	if opts.archiveDeleted {
		spec.ArchiveDeleted = true
	}
	if opts.walSegment > 0 {
		spec.WALSegmentBytes = opts.walSegment
	}
	if opts.walRetain > 0 {
		spec.WALRetainBytes = opts.walRetain
	}
	if opts.walRetainAge > 0 {
		spec.WALRetainAge = opts.walRetainAge.String()
	}
	if opts.walFsyncEvery > 0 {
		spec.WALFsyncEvery = opts.walFsyncEvery
	}
	if spec.ArchiveDeleted && spec.StateDir == "" {
		fatalUsage("-archive-deleted requires -state-dir (or serve.state_dir)")
	}
	drainTimeout := opts.drain
	if drainTimeout == 0 {
		drainTimeout, _ = time.ParseDuration(spec.DrainTimeout)
	}
	retainAge, _ := time.ParseDuration(spec.WALRetainAge)
	quotas := make(map[string]netstream.TenantQuota, len(spec.Tenants))
	for _, t := range spec.Tenants {
		quotas[t.Name] = netstream.TenantQuota{
			MaxSessions:    t.MaxSessions,
			MaxSubscribers: t.MaxSubscribers,
			BytesPerSec:    t.BytesPerSec,
			Burst:          t.Burst,
			MaxWALBytes:    t.MaxWALBytes,
		}
	}

	reg := obs.NewRegistry()
	if opts.traceSample > 0 {
		reg.SetTraceSampling(opts.traceSample, 0)
	}
	svc, err := netstream.NewService(netstream.ServiceConfig{
		Build:        sessionBuilder(reg),
		Quotas:       quotas,
		DrainTimeout: drainTimeout,
		Reg:          reg,
		Logf:         log.Printf,
		StateDir:     spec.StateDir,
		WAL: netstream.WALOptions{
			SegmentBytes: spec.WALSegmentBytes,
			RetainBytes:  spec.WALRetainBytes,
			RetainAge:    retainAge,
			FsyncEvery:   spec.WALFsyncEvery,
		},
		ArchiveDeleted: spec.ArchiveDeleted,
	})
	if err != nil {
		log.Fatal(err)
	}
	if spec.StateDir != "" {
		ids, err := svc.Recover()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("state dir %s: recovered %d durable session(s)", spec.StateDir, len(ids))
	}

	var tcpLn, httpLn net.Listener
	if spec.Listen != "" && spec.Listen != "off" {
		tcpLn, err = net.Listen("tcp", spec.Listen)
		if err != nil {
			log.Fatal(err)
		}
	}
	httpLn, err = net.Listen("tcp", spec.HTTP)
	if err != nil {
		log.Fatal(err)
	}
	tcpAddr := "off"
	if tcpLn != nil {
		tcpAddr = tcpLn.Addr().String()
	}
	log.Printf("sessions mode listening tcp=%s http=%s tenants=%d drain=%s", tcpAddr, httpLn.Addr().String(), len(quotas), drainTimeout)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := svc.Serve(ctx, tcpLn, httpLn); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
}
