// Command icewafld is the networked pollution service: it runs one
// configured pollution pipeline over a CSV input and streams the dirty
// stream, the clean stream, and the pollution log to any number of
// subscribed clients — over raw TCP (length-prefixed frames) and
// HTTP (NDJSON chunks, plus /metrics and /healthz).
//
// Usage:
//
//	icewafld -schema schema.json -config pollution.json -in clean.csv \
//	         [-listen :7077] [-http :7078] [-policy block|drop-oldest|disconnect-slow] \
//	         [-buffer 256] [-replay 65536] [-reorder 64] [-linger 0] \
//	         [-wal DIR] [-checkpoint PATH] [-supervise] [-columnar]
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
// from_seq resume survives daemon restarts, and a
// restarted daemon continues the frame sequence exactly where the
// durable log ends. Adding -checkpoint makes the pipeline itself
// resumable (kill -9 mid-run, restart, and clients see one seamless
// stream). -supervise restarts the session in-process after a panic or
// fatal error, with an exponential-backoff restart budget
// (-restart-budget per -restart-window) after which the session is
// quarantined and reported on /healthz.
//
// The configuration's optional "serve" block provides defaults for the
// service flags; explicit flags win. The daemon runs the pipeline once,
// keeps serving results from its ring or WAL, and drains gracefully on
// SIGINT/SIGTERM: connected clients get -drain-timeout to finish
// reading before connections close. With -linger > 0 the daemon
// additionally exits that long after the pipeline completes, which
// makes scripted runs self-terminating.
//
// Remote pipelines consume the service with netstream.ClientSource
// (wrapped in stream.RetrySource for reconnect-with-backoff).
//
// With -sessions the daemon instead hosts the multi-tenant session
// service: no pipeline flags are needed, and sessions — each a
// supervised pipeline run with its own <tenant>/<session>/dirty|clean|
// log channels — are created and stopped over the REST control plane
// (POST/GET/DELETE /v1/sessions). The -config file's serve block may
// set the listeners and per-tenant quotas (serve.tenants: max
// sessions, max subscribers, bytes/sec); quota violations answer with
// typed errors on the wire. See cmd/icewafload for a load harness.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("icewafld: ")
	sessions := flag.Bool("sessions", false, "run the multi-tenant session service: pipelines are created over the REST control plane instead of flags")
	schemaPath := flag.String("schema", "", "path to the JSON schema file (required)")
	configPath := flag.String("config", "", "path to the JSON pollution configuration (required)")
	inPath := flag.String("in", "", "input CSV (required)")
	listen := flag.String("listen", "", "raw-TCP listen address (default from serve block, \":7077\"; \"off\" disables)")
	httpAddr := flag.String("http", "", "HTTP listen address for NDJSON//metrics (default from serve block; \"off\" disables)")
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

	// Shared by both modes.
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
	if *sessions {
		runSessions(sessionsOpts{
			configPath:     *configPath,
			listen:         *listen,
			httpAddr:       *httpAddr,
			drain:          *drain,
			traceSample:    *traceSample,
			stateDir:       *stateDir,
			archiveDeleted: *archiveDeleted,
			walSegment:     *walSegment,
			walRetain:      *walRetain,
			walRetainAge:   *walRetainAge,
			walFsyncEvery:  *walFsyncEvery,
		})
		return
	}
	if *stateDir != "" || *archiveDeleted {
		fatalUsage("-state-dir/-archive-deleted apply to -sessions mode (use -wal/-checkpoint for the single pipeline)")
	}

	if *schemaPath == "" || *configPath == "" || *inPath == "" {
		fatalUsage("-schema, -config and -in are required")
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

	schema, err := schemafile.Load(*schemaPath)
	if err != nil {
		log.Fatal(err)
	}
	cf, err := os.Open(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := config.Parse(cf)
	cf.Close()
	if err != nil {
		log.Fatal(err)
	}
	proc, err := config.Build(doc)
	if err != nil {
		log.Fatal(err)
	}
	if len(proc.Pipelines) != 1 {
		log.Fatalf("the service runs the streaming engine: configuration must have exactly one pipeline, got %d", len(proc.Pipelines))
	}
	if err := proc.ValidateAttrs(schema); err != nil {
		log.Fatal(err)
	}
	if proc.Fault.Quarantine {
		proc.Fault.DLQ = stream.NewDeadLetterQueue()
	}
	proc.KeepClean = false // the clean channel is fed by the server's tap

	spec, err := doc.Serve.Normalize()
	if err != nil {
		log.Fatal(err)
	}
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
	if spec.Checkpoint != "" && spec.WALDir == "" {
		fatalUsage("-checkpoint requires -wal (a checkpoint without a durable log cannot resume)")
	}
	if err := spec.Shape().Validate(schema); err != nil {
		fatalUsage("%v", err)
	}
	policy, err := netstream.ParsePolicy(spec.Policy)
	if err != nil {
		fatalUsage("%v", err)
	}
	drainTimeout := *drain
	if drainTimeout == 0 {
		drainTimeout, _ = time.ParseDuration(spec.DrainTimeout)
	}
	retainAge, _ := time.ParseDuration(spec.WALRetainAge)
	rWindow, _ := time.ParseDuration(spec.RestartWindow)
	rBackoff, _ := time.ParseDuration(spec.RestartBackoff)

	reg := obs.NewRegistry()
	if *traceSample > 0 {
		reg.SetTraceSampling(*traceSample, 0)
	}
	proc.Obs = reg

	newSource := func() (stream.Source, error) {
		f, err := os.Open(*inPath)
		if err != nil {
			return nil, err
		}
		var reader stream.Source
		if spec.Columnar {
			// Batch-native CSV ingest: rows decode straight into column
			// batches, so the columnar runner never materialises per-row
			// tuples on the way in (unless a retry wrapper intervenes).
			reader, err = csvio.NewColumnReader(f, schema)
		} else {
			reader, err = csvio.NewReader(f, schema)
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		return withRetry(reader, doc, reg), nil
	}

	srv, err := netstream.NewServer(netstream.Config{
		Schema:        schema,
		Proc:          proc,
		NewSource:     newSource,
		Reorder:       spec.Reorder,
		Shards:        spec.Shards,
		ShardKey:      spec.ShardKey,
		Columnar:      spec.Columnar,
		ColumnarBatch: spec.ColumnarBatch,
		Buffer:        spec.Buffer,
		Replay:        spec.Replay,
		Policy:        policy,
		DrainTimeout:  drainTimeout,
		Reg:           reg,
		Logf:          log.Printf,
		WALDir:        spec.WALDir,
		WAL: netstream.WALOptions{
			SegmentBytes: spec.WALSegmentBytes,
			RetainBytes:  spec.WALRetainBytes,
			RetainAge:    retainAge,
			FsyncEvery:   spec.WALFsyncEvery,
		},
		CheckpointPath:  spec.Checkpoint,
		CheckpointEvery: spec.CheckpointEvery,
		Supervise:       spec.Supervise,
		RestartBudget:   spec.RestartBudget,
		RestartWindow:   rWindow,
		RestartBackoff:  rBackoff,
	})
	if err != nil {
		log.Fatal(err)
	}

	var tcpLn, httpLn net.Listener
	if spec.Listen != "" && spec.Listen != "off" {
		tcpLn, err = net.Listen("tcp", spec.Listen)
		if err != nil {
			log.Fatal(err)
		}
	}
	if spec.HTTP != "" && spec.HTTP != "off" {
		httpLn, err = net.Listen("tcp", spec.HTTP)
		if err != nil {
			log.Fatal(err)
		}
	}
	if tcpLn == nil && httpLn == nil {
		fatalUsage("both listeners disabled; enable -listen or -http")
	}

	// Announce the bound addresses (":0" picks random ports) in a
	// stable, machine-parseable form for scripts and the CI harness.
	tcpAddr, httpURL := "off", "off"
	if tcpLn != nil {
		tcpAddr = tcpLn.Addr().String()
	}
	if httpLn != nil {
		httpURL = httpLn.Addr().String()
	}
	log.Printf("listening tcp=%s http=%s policy=%s buffer=%d replay=%d", tcpAddr, httpURL, policy, spec.Buffer, spec.Replay)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *linger > 0 {
		go func() {
			select {
			case <-srv.PipelineDone():
				select {
				case <-time.After(*linger):
					cancel()
				case <-ctx.Done():
				}
			case <-ctx.Done():
			}
		}()
	}
	go func() {
		<-srv.PipelineDone()
		if err := srv.PipelineErr(); err != nil {
			log.Printf("pipeline: %v", err)
		} else {
			log.Printf("pipeline done: dirty=%d clean=%d log=%d frames",
				srv.Hub().Seq(netstream.ChannelDirty), srv.Hub().Seq(netstream.ChannelClean), srv.Hub().Seq(netstream.ChannelLog))
		}
	}()

	if err := srv.Serve(ctx, tcpLn, httpLn); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
	if srv.DrainExpired() {
		// Subscribers were force-disconnected mid-stream when the drain
		// deadline fired; exit non-zero so orchestration notices the
		// shutdown was not clean.
		log.Printf("drain deadline expired with subscribers connected")
		os.Exit(1)
	}
}

// withRetry wraps src in a RetrySource when the configuration enables
// source retrying (same contract as the single-process CLI).
func withRetry(src stream.Source, doc *config.Document, reg *obs.Registry) stream.Source {
	policy, ok, err := doc.Fault.RetryPolicy()
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		return src
	}
	rs := stream.NewRetrySource(src, policy)
	rs.Instrument(reg)
	return rs
}
