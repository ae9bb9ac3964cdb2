// Command icewafld is the networked pollution service: it runs
// pollution pipelines over CSV inputs and streams each one's dirty
// stream, clean stream and pollution log to any number of subscribed
// clients — over raw TCP (length-prefixed frames) and HTTP (NDJSON
// chunks, plus /metrics, /healthz and the /v1/sessions control plane).
//
// Usage:
//
//	icewafld -schema schema.json -config pollution.json -in clean.csv \
//	         [-listen :7077] [-http :7078] [-policy block|drop-oldest|disconnect-slow] \
//	         [-buffer 256] [-replay 65536] [-reorder 64] [-linger 0] \
//	         [-wal DIR] [-checkpoint PATH] [-supervise] [-columnar]
//	icewafld -sessions [-config serve.json] [-state-dir DIR] [-http :7078]
//
// Both forms run the same session service. The first starts one unnamed
// session from its flags, served on the bare channel names dirty, clean
// and log; the second waits for sessions created over the REST control
// plane, each a pipeline run on its own <tenant>/<session>/dirty|clean|
// log channels. /healthz lists every session, and /metrics carries the
// same families, in both.
//
// With -columnar the pipeline runs on the columnar engine and the dirty
// channel carries colbatch frames — column-major micro-batches of up to
// -columnar-batch rows, one frame per sequence number — which clients
// (netstream.ClientSource) transparently explode back into tuples. The
// served stream is byte-identical to tuple-wise serving; only the frame
// granularity changes. Which of -reorder, -shards, -columnar and
// -checkpoint combine is core.StreamSpec's call.
//
// With -wal replay is served from a segmented, checksummed write-ahead
// log instead of the in-memory ring (-replay then has no effect):
// from_seq resume survives daemon restarts, and a restarted daemon
// continues the frame sequence exactly where the durable log ends.
// Adding -checkpoint makes the pipeline itself resumable (kill -9
// mid-run, restart, and clients see one seamless stream). -supervise
// restarts the session in-process after a panic or fatal error, with an
// exponential-backoff restart budget (-restart-budget per
// -restart-window) after which the session is quarantined and reported
// on /healthz.
//
// The configuration's optional "serve" block provides defaults for the
// service flags; explicit flags win. The single pipeline runs once; the
// daemon keeps serving results from its ring or WAL and drains
// gracefully on SIGINT/SIGTERM: connected clients get -drain-timeout to
// finish reading before connections close. With -linger > 0 the daemon
// additionally exits that long after the pipeline completes, which
// makes scripted runs self-terminating.
//
// With -sessions the pipeline flags are rejected: each session brings
// its schema, configuration (whose serve block sets its engine knobs)
// and inline CSV in the POST /v1/sessions body. The -config file's
// serve block may set the listeners and per-tenant quotas
// (serve.tenants: max sessions, max subscribers, bytes/sec); quota
// violations answer with typed errors on the wire. -state-dir makes
// every session durable and resurrects them on restart. See
// cmd/icewafload for a load harness.
//
// Remote pipelines consume the service with netstream.ClientSource
// (wrapped in stream.RetrySource for reconnect-with-backoff).
package main

import (
	"context"
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
var modeFlags = map[string]bool{
	"schema": false, "in": false, "policy": false, "buffer": false, "replay": false,
	"reorder": false, "shards": false, "shard-key": false, "columnar": false,
	"columnar-batch": false, "linger": false, "wal": false, "checkpoint": false,
	"checkpoint-every": false, "supervise": false, "restart-budget": false,
	"restart-window": false, "restart-backoff": false,
	"state-dir": true, "archive-deleted": true,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("icewafld: ")
	sessions := flag.Bool("sessions", false, "run the multi-tenant session service: pipelines are created over the REST control plane instead of flags")
	schemaPath := flag.String("schema", "", "path to the JSON schema file (required without -sessions)")
	configPath := flag.String("config", "", "path to the JSON pollution configuration (required without -sessions; with it, only the serve block is read)")
	inPath := flag.String("in", "", "input CSV (required without -sessions)")
	listen := flag.String("listen", "", "raw-TCP listen address (default from serve block, \":7077\"; \"off\" disables)")
	httpAddr := flag.String("http", "", "HTTP listen address for NDJSON//metrics//healthz and the control plane (default from serve block; \"off\" disables)")
	policyFlag := flag.String("policy", "", "backpressure policy: block, drop-oldest or disconnect-slow (default from serve block)")
	buffer := flag.Int("buffer", 0, "per-subscriber send queue capacity in frames (default from serve block)")
	replay := flag.Int("replay", 0, "frames a memory-only session retains per channel for late subscribers; with -wal the log serves replay (default from serve block)")
	reorder := flag.Int("reorder", 0, "bounded reordering window in tuples (default from serve block)")
	shards := flag.Int("shards", 0, "partition the keyed hot path across N parallel workers (default from serve block, 1)")
	shardKey := flag.String("shard-key", "", "attribute routing tuples to shards (default from serve block)")
	columnar := flag.Bool("columnar", false, "serve the dirty channel as columnar micro-batches (colbatch frames; default from serve block)")
	columnarBatch := flag.Int("columnar-batch", 0, "rows per colbatch frame (default from serve block, 256)")
	drain := flag.Duration("drain-timeout", 0, "graceful-drain bound on shutdown (default from serve block)")
	linger := flag.Duration("linger", 0, "exit this long after the pipeline completes (0 = serve until SIGTERM)")
	traceSample := flag.Uint64("trace-sample", 0, "deterministically trace 1 in N tuples (0 = off)")
	walDir := flag.String("wal", "", "directory for the durable write-ahead log backing replay (default from serve block; \"\" = in-memory only)")
	walSegment := flag.Int64("wal-segment-bytes", 0, "rotate WAL segments at this size (default 8 MiB)")
	walRetain := flag.Int64("wal-retain-bytes", 0, "cap on closed WAL segments per channel (default 256 MiB)")
	walRetainAge := flag.Duration("wal-retain-age", 0, "drop WAL segments older than this (0 = keep regardless of age)")
	walFsyncEvery := flag.Int("wal-fsync-every", 0, "batch fsync to one per this many appends (default 64)")
	checkpointPath := flag.String("checkpoint", "", "durable pipeline checkpoint path for resume-after-crash (requires -wal)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "capture a checkpoint every this many emitted tuples (default 256)")
	stateDir := flag.String("state-dir", "", "sessions mode: durable multi-tenant store root; every session gets its own WAL+checkpoint under <state-dir>/<tenant>/<session> and is resurrected on restart")
	archiveDeleted := flag.Bool("archive-deleted", false, "sessions mode: archive deleted sessions' state under <state-dir>/.deleted instead of removing it")
	supervise := flag.Bool("supervise", false, "restart the pipeline session after a panic or fatal error")
	restartBudget := flag.Int("restart-budget", 0, "quarantine the session after this many restarts per window (default 3)")
	restartWindow := flag.Duration("restart-window", 0, "sliding window for the restart budget (default 1m)")
	restartBackoff := flag.Duration("restart-backoff", 0, "base exponential backoff between restarts (default 100ms)")
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
		fatalUsage("%s apply to -sessions mode only (use -wal/-checkpoint for the single pipeline)", strings.Join(misplaced, " "))
	}
	if *drain < 0 {
		fatalUsage("-drain-timeout must be positive, got %v", *drain)
	}
	if *walSegment < 0 {
		fatalUsage("-wal-segment-bytes must be positive, got %d", *walSegment)
	}
	if *walRetain < 0 {
		fatalUsage("-wal-retain-bytes must be positive, got %d", *walRetain)
	}
	if *walRetainAge < 0 {
		fatalUsage("-wal-retain-age must be positive, got %v", *walRetainAge)
	}
	if *walFsyncEvery < 0 {
		fatalUsage("-wal-fsync-every must be positive, got %d", *walFsyncEvery)
	}
	if *buffer < 0 {
		fatalUsage("-buffer must be positive, got %d", *buffer)
	}
	if *replay < 0 {
		fatalUsage("-replay must be positive, got %d", *replay)
	}
	if *reorder < 0 {
		fatalUsage("-reorder must not be negative, got %d", *reorder)
	}
	if *shards < 0 {
		fatalUsage("-shards must not be negative, got %d", *shards)
	}
	if *linger < 0 {
		fatalUsage("-linger must be non-negative, got %v", *linger)
	}
	if *columnarBatch < 0 {
		fatalUsage("-columnar-batch must be positive, got %d", *columnarBatch)
	}
	if *checkpointEvery < 0 {
		fatalUsage("-checkpoint-every must be positive, got %d", *checkpointEvery)
	}
	if *restartBudget < 0 {
		fatalUsage("-restart-budget must be positive, got %d", *restartBudget)
	}
	if *restartWindow < 0 {
		fatalUsage("-restart-window must be positive, got %v", *restartWindow)
	}
	if *restartBackoff < 0 {
		fatalUsage("-restart-backoff must be positive, got %v", *restartBackoff)
	}
	if !*sessions && (*schemaPath == "" || *configPath == "" || *inPath == "") {
		fatalUsage("-schema, -config and -in are required")
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
		log.Fatal(err)
	}
	// Explicit flags win over the serve block. A flag of the other mode
	// was rejected above, so it is at its zero value here.
	if *listen != "" {
		spec.Listen = *listen
	}
	if *httpAddr != "" {
		spec.HTTP = *httpAddr
	}
	if *policyFlag != "" {
		spec.Policy = *policyFlag
	}
	if *buffer > 0 {
		spec.Buffer = *buffer
	}
	if *replay > 0 {
		spec.Replay = *replay
	}
	if *reorder > 0 {
		spec.Reorder = *reorder
	}
	if *shards > 0 {
		spec.Shards = *shards
	}
	if *shardKey != "" {
		spec.ShardKey = *shardKey
	}
	if *columnar {
		spec.Columnar = true
	}
	if *columnarBatch > 0 {
		spec.ColumnarBatch = *columnarBatch
	}
	if *drain > 0 {
		spec.DrainTimeout = drain.String()
	}
	if *walDir != "" {
		spec.WALDir = *walDir
	}
	if *walSegment > 0 {
		spec.WALSegmentBytes = *walSegment
	}
	if *walRetain > 0 {
		spec.WALRetainBytes = *walRetain
	}
	if *walRetainAge > 0 {
		spec.WALRetainAge = walRetainAge.String()
	}
	if *walFsyncEvery > 0 {
		spec.WALFsyncEvery = *walFsyncEvery
	}
	if *checkpointPath != "" {
		spec.Checkpoint = *checkpointPath
	}
	if *checkpointEvery > 0 {
		spec.CheckpointEvery = *checkpointEvery
	}
	if *supervise {
		spec.Supervise = true
	}
	if *restartBudget > 0 {
		spec.RestartBudget = *restartBudget
	}
	if *restartWindow > 0 {
		spec.RestartWindow = restartWindow.String()
	}
	if *restartBackoff > 0 {
		spec.RestartBackoff = restartBackoff.String()
	}
	if *stateDir != "" {
		spec.StateDir = *stateDir
	}
	if *archiveDeleted {
		spec.ArchiveDeleted = true
	}
	if *sessions {
		if spec.HTTP == "" {
			// The control plane is HTTP; session mode cannot run without it.
			spec.HTTP = ":7078"
		}
		if spec.HTTP == "off" {
			fatalUsage("-sessions requires an HTTP listener (the REST control plane)")
		}
		if spec.ArchiveDeleted && spec.StateDir == "" {
			fatalUsage("-archive-deleted requires -state-dir (or serve.state_dir)")
		}
	} else if disabled(spec.Listen) && disabled(spec.HTTP) {
		fatalUsage("both listeners disabled; enable -listen or -http")
	}

	reg := obs.NewRegistry()
	if *traceSample > 0 {
		reg.SetTraceSampling(*traceSample, 0)
	}
	drainTimeout, _ := time.ParseDuration(spec.DrainTimeout)
	svcCfg := netstream.ServiceConfig{DrainTimeout: drainTimeout, Reg: reg, Logf: log.Printf}
	if *sessions {
		svcCfg.Build, svcCfg.WAL = sessionBuilder(reg), walOptions(spec)
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
		svcCfg.StateDir, svcCfg.ArchiveDeleted = spec.StateDir, spec.ArchiveDeleted
	}
	svc, err := netstream.NewService(svcCfg)
	if err != nil {
		log.Fatal(err)
	}

	if *sessions {
		if spec.StateDir != "" {
			ids, err := svc.Recover()
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("state dir %s: recovered %d durable session(s)", spec.StateDir, len(ids))
		}
		serve(svc, spec, fmt.Sprintf("mode=sessions tenants=%d drain=%s", len(svcCfg.Quotas), drainTimeout), nil)
		return
	}

	schema, err := schemafile.Load(*schemaPath)
	if err != nil {
		log.Fatal(err)
	}
	if spec.Checkpoint != "" && spec.WALDir == "" {
		fatalUsage("-checkpoint requires -wal (a checkpoint without a durable log cannot resume)")
	}
	if err := spec.Shape().Validate(schema); err != nil {
		fatalUsage("%v", err)
	}
	if _, err := netstream.ParsePolicy(spec.Policy); err != nil {
		fatalUsage("%v", err)
	}
	cfg, err := pipelineConfig(schema, doc, spec, func() (io.Reader, error) { return os.Open(*inPath) }, reg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.WALDir, cfg.CheckpointPath = spec.WALDir, spec.Checkpoint
	sess, err := svc.Start(cfg)
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
	serve(svc, spec, fmt.Sprintf("mode=single policy=%s buffer=%d replay=%d", spec.Policy, spec.Buffer, spec.Replay), stop)
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

// serve opens the serve block's listeners, announces the bound
// addresses, and runs svc until SIGINT, SIGTERM or stop.
func serve(svc *netstream.Service, spec config.ServeSpec, detail string, stop <-chan struct{}) {
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
	tcpLn, httpLn := listen(spec.Listen), listen(spec.HTTP)
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
// -in, sessions mode over a spec's inline CSV. Durable paths are the
// caller's to set.
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
		var src stream.Source
		if ss.Columnar {
			// Batch-native CSV ingest: rows decode straight into column
			// batches, so the columnar runner never materialises per-row
			// tuples on the way in (unless a retry wrapper intervenes).
			src, err = csvio.NewColumnReader(r, schema)
		} else {
			src, err = csvio.NewReader(r, schema)
		}
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
		Columnar:        ss.Columnar,
		ColumnarBatch:   ss.ColumnarBatch,
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

// walOptions is a serve block's WAL tuning (not its paths).
func walOptions(ss config.ServeSpec) netstream.WALOptions {
	age, _ := time.ParseDuration(ss.WALRetainAge)
	return netstream.WALOptions{
		SegmentBytes: ss.WALSegmentBytes,
		RetainBytes:  ss.WALRetainBytes,
		RetainAge:    age,
		FsyncEvery:   ss.WALFsyncEvery,
	}
}
