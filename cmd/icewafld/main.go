// Command icewafld is the networked pollution service: it runs
// pollution pipelines over CSV inputs and streams each one's dirty
// stream, clean stream and pollution log to any number of subscribed
// clients — over raw TCP (length-prefixed frames) and HTTP (NDJSON
// chunks, plus /metrics, /healthz and the /v1/sessions control plane).
//
// Usage:
//
//	icewafld -schema schema.json -config pollution.json -in clean.csv \
//	         [-listen :7077] [-http :7078] [-state-dir DIR] [-linger 0] [-trace-sample 0]
//	icewafld -sessions [-config serve.json] [-listen :7077] [-http :7078] \
//	         [-state-dir DIR [-archive-deleted]] [-trace-sample 0]
//
// Both forms run the same session service. The first starts one unnamed
// session from its flags, served on the bare channel names dirty, clean
// and log; the second waits for sessions created over the REST control
// plane, each a pipeline run on its own <tenant>/<session>/dirty|clean|
// log channels. /healthz lists every session, and /metrics carries the
// same families, in both.
//
// Each setting has one spelling. The flags are the deployment: where to
// listen and where durable state lives. The configuration's "serve"
// block is the engine: replay, backpressure, reorder window, shards,
// drain, WAL tuning, checkpoint cadence and supervision
// (config.ServeSpec). No flag restates a serve key.
//
// -state-dir makes the daemon durable, with one layout in both modes:
// one write-ahead log under <dir>/wal holding all three channels and,
// when the shape is checkpointable (reorder 1, one shard), the run's
// checkpoints as records in the same log. In -sessions mode each session
// keeps that layout under <dir>/<tenant>/<session>, next to its
// persisted spec, and is resurrected on restart. Replay is then served
// from the log, so from_seq resume survives restarts; a killed run
// resumes from its newest checkpoint, or re-runs deterministically under
// the log without one. A state dir an older build wrote (one log per
// channel, a checkpoint file) is refused: finish that run with the build
// that wrote it.
//
// The single pipeline runs once; the daemon keeps serving results and
// drains gracefully on SIGINT/SIGTERM. With -linger > 0 it exits that
// long after the pipeline completes, for self-terminating scripted runs.
//
// With -sessions the pipeline flags are rejected: each session brings
// its schema, configuration (whose serve block sets its engine knobs)
// and inline CSV in the POST /v1/sessions body. The daemon's own -config
// serve block sets the defaults every session's WAL tuning and drain
// fall back to, and the per-tenant quotas (serve.tenants: max sessions,
// max subscribers, bytes/sec, WAL bytes); quota violations answer with
// typed errors on the wire. See cmd/icewafload for a load harness.
//
// Remote pipelines consume the service with netstream.ClientSource
// (wrapped in stream.RetrySource for reconnect-with-backoff).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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

// fatalUsage prints the error and the flag usage, exiting non-zero with
// the conventional usage status.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "icewafld: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// modeFlags maps each flag that belongs to one mode to true for
// -sessions and false for the single pipeline; setting it in the other
// mode is a usage error.
var modeFlags = map[string]bool{"schema": false, "in": false, "linger": false, "archive-deleted": true}

func main() {
	log.SetFlags(0)
	log.SetPrefix("icewafld: ")
	sessions := flag.Bool("sessions", false, "run the multi-tenant session service: pipelines are created over the REST control plane instead of flags")
	schemaPath := flag.String("schema", "", "path to the JSON schema file (required without -sessions)")
	configPath := flag.String("config", "", "path to the JSON pollution configuration; its serve block sets the engine knobs (required without -sessions; with it, only the serve block is read)")
	inPath := flag.String("in", "", "input CSV (required without -sessions)")
	listen := flag.String("listen", ":7077", "raw-TCP listen address (\"off\" disables)")
	httpAddr := flag.String("http", "", "HTTP listen address for NDJSON, /metrics, /healthz and the control plane (\"\" or \"off\" disables; -sessions defaults to \":7078\")")
	stateDir := flag.String("state-dir", "", "durable state root: the session's write-ahead log, checkpoints included, under <dir>/wal; with -sessions one such tree per <dir>/<tenant>/<session>, resurrected on restart")
	archiveDeleted := flag.Bool("archive-deleted", false, "sessions mode: archive deleted sessions' state under <state-dir>/.deleted instead of removing it")
	linger := flag.Duration("linger", 0, "exit this long after the pipeline completes (0 = serve until SIGTERM)")
	traceSample := flag.Uint64("trace-sample", 0, "deterministically trace 1 in N tuples (0 = off)")
	flag.Parse()

	var misplaced []string
	flag.Visit(func(f *flag.Flag) {
		if forSessions, ok := modeFlags[f.Name]; ok && forSessions != *sessions {
			misplaced = append(misplaced, "-"+f.Name)
		}
	})
	if len(misplaced) > 0 && *sessions {
		fatalUsage("%s do not apply to -sessions mode: each session takes its pipeline and serve settings from its spec", strings.Join(misplaced, " "))
	}
	if len(misplaced) > 0 {
		fatalUsage("%s apply to -sessions mode only", strings.Join(misplaced, " "))
	}
	if *linger < 0 {
		fatalUsage("-linger must be non-negative, got %v", *linger)
	}
	if !*sessions && (*schemaPath == "" || *configPath == "" || *inPath == "") {
		fatalUsage("-schema, -config and -in are required")
	}
	if *sessions {
		if *httpAddr == "" {
			// The control plane is HTTP; session mode cannot run without it.
			*httpAddr = ":7078"
		}
		if *httpAddr == "off" {
			fatalUsage("-sessions requires an HTTP listener (the REST control plane)")
		}
		if *archiveDeleted && *stateDir == "" {
			fatalUsage("-archive-deleted requires -state-dir")
		}
	} else if disabled(*listen) && disabled(*httpAddr) {
		fatalUsage("both listeners disabled; enable -listen or -http")
	}

	var doc *config.Document
	var serveBlock *config.ServeSpec
	if *configPath != "" {
		cf, err := os.Open(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		doc, err = config.Parse(cf)
		cf.Close()
		if err != nil {
			log.Fatal(err)
		}
		serveBlock = doc.Serve
	}
	spec, err := serveBlock.Normalize()
	if err != nil {
		fatalUsage("%v", err)
	}

	reg := obs.NewRegistry()
	if *traceSample > 0 {
		reg.SetTraceSampling(*traceSample, 0)
	}
	drainTimeout, _ := time.ParseDuration(spec.DrainTimeout)
	svcCfg := netstream.ServiceConfig{
		DrainTimeout: drainTimeout, Reg: reg, Logf: log.Printf,
		StateDir: *stateDir, WAL: walOptions(spec), ArchiveDeleted: *archiveDeleted,
	}
	if *sessions {
		svcCfg.Build = sessionBuilder(reg)
		svcCfg.Quotas = make(map[string]netstream.TenantQuota, len(spec.Tenants))
		for _, t := range spec.Tenants {
			svcCfg.Quotas[t.Name] = netstream.TenantQuota{
				MaxSessions:    t.MaxSessions,
				MaxSubscribers: t.MaxSubscribers,
				BytesPerSec:    t.BytesPerSec,
				Burst:          t.Burst,
				MaxWALBytes:    t.MaxWALBytes,
			}
		}
	}
	svc, err := netstream.NewService(svcCfg)
	if err != nil {
		log.Fatal(err)
	}

	if *sessions {
		if *stateDir != "" {
			ids, err := svc.Recover()
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("state dir %s: recovered %d durable session(s)", *stateDir, len(ids))
		}
		serve(svc, *listen, *httpAddr, fmt.Sprintf("mode=sessions tenants=%d drain=%s", len(svcCfg.Quotas), drainTimeout), nil)
		return
	}

	schema, err := schemafile.Load(*schemaPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := spec.Shape().Validate(schema); err != nil {
		fatalUsage("%v", err)
	}
	cfg, err := pipelineConfig(schema, doc, spec, func() (io.Reader, error) { return os.Open(*inPath) }, reg)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := svc.Start(cfg)
	if errors.Is(err, netstream.ErrOldStateDir) {
		fatalUsage("-state-dir: %v", err)
	}
	if err != nil {
		log.Fatal(err)
	}
	srv := sess.Server()
	stop := make(chan struct{})
	go func() {
		<-srv.PipelineDone()
		if err := srv.PipelineErr(); err != nil {
			log.Printf("pipeline: %v", err)
		} else {
			log.Printf("pipeline done: dirty=%d clean=%d log=%d frames",
				srv.Hub().Seq(netstream.ChannelDirty), srv.Hub().Seq(netstream.ChannelClean), srv.Hub().Seq(netstream.ChannelLog))
		}
		if *linger > 0 {
			time.Sleep(*linger)
			close(stop)
		}
	}()
	serve(svc, *listen, *httpAddr, fmt.Sprintf("mode=single policy=%s buffer=%d replay=%d", spec.Policy, spec.Buffer, spec.Replay), stop)
	if srv.DrainExpired() {
		// Subscribers were force-disconnected mid-stream when the drain
		// deadline fired; exit non-zero so orchestration notices the
		// shutdown was not clean.
		log.Printf("drain deadline expired with subscribers connected")
		os.Exit(1)
	}
}

// disabled reports whether a listen address turns its listener off.
func disabled(addr string) bool { return addr == "" || addr == "off" }

// serve opens the listeners, announces the bound addresses, and runs svc
// until SIGINT, SIGTERM or stop.
func serve(svc *netstream.Service, tcpAddr, httpAddr, detail string, stop <-chan struct{}) {
	listen := func(addr string) net.Listener {
		if disabled(addr) {
			return nil
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			log.Fatal(err)
		}
		return ln
	}
	tcpLn, httpLn := listen(tcpAddr), listen(httpAddr)
	bound := func(ln net.Listener) string {
		if ln == nil {
			return "off"
		}
		return ln.Addr().String()
	}
	// Announce the bound addresses (":0" picks random ports) in a
	// stable, machine-parseable form for scripts and the CI harness.
	log.Printf("listening tcp=%s http=%s %s", bound(tcpLn), bound(httpLn), detail)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	if err := svc.Serve(ctx, tcpLn, httpLn); err != nil {
		log.Fatal(err)
	}
}

// pipelineConfig compiles one pipeline — its schema, parsed pollution
// configuration, normalized serve block and input opener — into the
// Config a session runs. Both modes build through it: single mode over
// -in, sessions mode over a spec's inline CSV. The service roots its
// durable state.
func pipelineConfig(schema *stream.Schema, doc *config.Document, ss config.ServeSpec, open func() (io.Reader, error), reg *obs.Registry) (netstream.Config, error) {
	proc, err := config.Build(doc)
	if err != nil {
		return netstream.Config{}, err
	}
	if len(proc.Pipelines) != 1 {
		return netstream.Config{}, fmt.Errorf("the service runs the streaming engine: configuration must have exactly one pipeline, got %d", len(proc.Pipelines))
	}
	if err := proc.ValidateAttrs(schema); err != nil {
		return netstream.Config{}, err
	}
	if proc.Fault.Quarantine {
		proc.Fault.DLQ = stream.NewDeadLetterQueue()
	}
	proc.KeepClean = false // the clean channel is fed by the server's tap
	proc.Obs = reg
	policy, err := netstream.ParsePolicy(ss.Policy)
	if err != nil {
		return netstream.Config{}, err
	}
	// Surface a broken retry policy now, not from inside the running
	// session's source factory.
	retry, retryOK, err := doc.Fault.RetryPolicy()
	if err != nil {
		return netstream.Config{}, err
	}
	newSource := func() (stream.Source, error) {
		r, err := open()
		if err != nil {
			return nil, err
		}
		src, err := csvio.NewReader(r, schema)
		if err != nil {
			if c, ok := r.(io.Closer); ok {
				c.Close()
			}
			return nil, err
		}
		if !retryOK {
			return src, nil
		}
		rs := stream.NewRetrySource(src, retry)
		rs.Instrument(reg)
		return rs, nil
	}
	drainTimeout, _ := time.ParseDuration(ss.DrainTimeout)
	rWindow, _ := time.ParseDuration(ss.RestartWindow)
	rBackoff, _ := time.ParseDuration(ss.RestartBackoff)
	return netstream.Config{
		Schema:          schema,
		Proc:            proc,
		NewSource:       newSource,
		Reorder:         ss.Reorder,
		Shards:          ss.Shards,
		ShardKey:        ss.ShardKey,
		Buffer:          ss.Buffer,
		Replay:          ss.Replay,
		Policy:          policy,
		DrainTimeout:    drainTimeout,
		WAL:             walOptions(ss),
		CheckpointEvery: ss.CheckpointEvery,
		Supervise:       ss.Supervise,
		RestartBudget:   ss.RestartBudget,
		RestartWindow:   rWindow,
		RestartBackoff:  rBackoff,
	}, nil
}

// walOptions is a serve block's WAL tuning.
func walOptions(ss config.ServeSpec) netstream.WALOptions {
	age, _ := time.ParseDuration(ss.WALRetainAge)
	return netstream.WALOptions{
		SegmentBytes: ss.WALSegmentBytes,
		RetainBytes:  ss.WALRetainBytes,
		RetainAge:    age,
		FsyncEvery:   ss.WALFsyncEvery,
	}
}
