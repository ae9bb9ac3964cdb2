// Command icewafl is the end-to-end polluter CLI: it reads a CSV stream,
// applies a JSON pollution configuration, and writes the polluted stream,
// the clean (prepared) stream, and the pollution log — the full workflow
// of Figure 2.
//
// Usage:
//
//	icewafl -schema schema.json -config pollution.json \
//	        -in clean.csv -out dirty.csv [-clean-out clean_out.csv] [-log log.jsonl]
//
// The schema file lists attributes in CSV column order, e.g.:
//
//	{"timestamp": "Time",
//	 "fields": [{"name": "Time", "kind": "time"},
//	            {"name": "BPM", "kind": "float"}]}
//
// Fault tolerance: the configuration's fault_policy section enables
// source retrying and dead-letter quarantine. In streaming mode,
// -checkpoint periodically snapshots the run so that a killed process
// can continue with -resume, producing output byte-identical to an
// uninterrupted run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"time"

	"icewafl/internal/config"
	"icewafl/internal/core"
	"icewafl/internal/csvio"
	"icewafl/internal/obs"
	"icewafl/internal/report"
	"icewafl/internal/schemafile"
	"icewafl/internal/stream"
)

// maxTraceSample bounds -trace-sample: the sampler selects 1 in N
// tuples by ID, so an N beyond 2^32 can never fire on a realistic
// stream and is certainly a typo.
const maxTraceSample = math.MaxUint32

// fatalUsage prints the error and the flag usage, exiting with the
// conventional usage status (2) so scripts can distinguish bad
// invocations from runtime failures.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "icewafl: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("icewafl: ")
	schemaPath := flag.String("schema", "", "path to the JSON schema file (required)")
	configPath := flag.String("config", "", "path to the JSON pollution configuration (required)")
	inPath := flag.String("in", "", "input CSV (required; '-' for stdin)")
	outPath := flag.String("out", "", "polluted output CSV (required; '-' for stdout)")
	cleanOut := flag.String("clean-out", "", "optional output CSV for the prepared clean stream")
	logOut := flag.String("log", "", "optional pollution log output (JSON lines)")
	meta := flag.Bool("meta", false, "emit Algorithm 1's (_id, _substream, …) columns in the outputs")
	reportOut := flag.String("report", "", "optional Markdown report output documenting the run")
	streaming := flag.Bool("stream", false, "tuple-wise constant-memory execution for unbounded inputs (no -clean-out/-report; bounded reordering)")
	reorder := flag.Int("reorder", 64, "streaming mode: bounded reordering window in tuples (which of -reorder/-shards/-checkpoint combine: core.StreamSpec, DESIGN.md §6)")
	shards := flag.Int("shards", 1, "streaming mode: partition the keyed hot path across N parallel workers, routed by -shard-key")
	shardKey := flag.String("shard-key", "", "attribute whose value routes tuples to shards")
	checkpointPath := flag.String("checkpoint", "", "streaming mode: checkpoint file; the run snapshots its state periodically so it can be resumed")
	resume := flag.Bool("resume", false, "continue an interrupted run from the -checkpoint file")
	checkpointEvery := flag.Int("checkpoint-interval", 0, "tuples between pollution-log flushes of a -stream run, and checkpoints with -checkpoint (0 = fault_policy's checkpoint_interval, default 5000)")
	deadOut := flag.String("dead-letters", "", "optional JSON-lines output for quarantined tuples (requires fault_policy.quarantine)")
	metricsOut := flag.String("metrics", "", "optional metrics snapshot output; written atomically when the run finishes (and periodically with -metrics-interval)")
	metricsFormat := flag.String("metrics-format", "json", "metrics encoding: json or prom (Prometheus text exposition)")
	metricsInterval := flag.Duration("metrics-interval", 0, "rewrite the -metrics file this often while the run is live (0 = only at the end)")
	traceSample := flag.Uint64("trace-sample", 0, "deterministically trace 1 in N tuples through the pipeline stages (0 = off; requires -metrics)")
	flag.Parse()

	if *schemaPath == "" || *configPath == "" || *inPath == "" || *outPath == "" {
		fatalUsage("-schema, -config, -in and -out are required")
	}
	// Flag range and combination validation happens before any I/O so a
	// bad invocation never partially creates output files.
	if *reorder < 1 {
		fatalUsage("-reorder must be at least 1, got %d", *reorder)
	}
	if *checkpointEvery < 0 {
		fatalUsage("-checkpoint-interval must be non-negative, got %d", *checkpointEvery)
	}
	if *metricsInterval < 0 {
		fatalUsage("-metrics-interval must be non-negative, got %v", *metricsInterval)
	}
	if *metricsInterval > 0 && *metricsOut == "" {
		fatalUsage("-metrics-interval requires -metrics")
	}
	if *traceSample > maxTraceSample {
		fatalUsage("-trace-sample must be at most %d (1 in N sampling by tuple ID), got %d", uint64(maxTraceSample), *traceSample)
	}
	if *traceSample > 0 && *metricsOut == "" {
		fatalUsage("-trace-sample requires -metrics")
	}
	if *resume && *checkpointPath == "" {
		fatalUsage("-resume requires -checkpoint")
	}
	if *streaming && (*cleanOut != "" || *reportOut != "") {
		fatalUsage("-stream cannot materialise -clean-out or -report; drop those flags")
	}
	if *shards < 1 {
		fatalUsage("-shards must be at least 1, got %d", *shards)
	}
	// The execution shape is validated by the one rulebook, still before
	// any I/O; the shard key's schema membership is re-checked by Stream.
	shape := core.StreamSpec{Reorder: *reorder, Shards: *shards, ShardKey: *shardKey, Checkpoint: *checkpointPath != ""}
	if !*streaming && (shape.Shards > 1 || shape.Checkpoint) {
		fatalUsage("-shards and -checkpoint require -stream")
	}
	if err := shape.Validate(nil); err != nil {
		fatalUsage("%v", err)
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
	proc.KeepClean = *cleanOut != ""
	if proc.Fault.Quarantine {
		proc.Fault.DLQ = stream.NewDeadLetterQueue()
	} else if *deadOut != "" {
		log.Fatal("-dead-letters requires fault_policy.quarantine in the configuration")
	}
	if err := proc.ValidateAttrs(schema); err != nil {
		log.Fatal(err)
	}

	metrics := setupMetrics(*metricsOut, *metricsFormat, *metricsInterval, *traceSample)
	proc.Obs = metrics.registry()

	in := os.Stdin
	if *inPath != "-" {
		in, err = os.Open(*inPath)
		if err != nil {
			log.Fatal(err)
		}
		defer in.Close()
	}
	reader, err := csvio.NewReader(in, schema)
	if err != nil {
		log.Fatal(err)
	}
	src := withRetry(reader, doc, metrics.registry())

	if *streaming {
		metrics.start()
		interval := *checkpointEvery
		if interval <= 0 {
			interval = doc.Fault.Interval()
		}
		runStreaming(proc, src, schema, shape, streamingRun{
			outPath:  *outPath,
			logOut:   *logOut,
			deadOut:  *deadOut,
			meta:     *meta,
			ckptPath: *checkpointPath,
			resume:   *resume,
			interval: interval,
		})
		metrics.finish()
		return
	}

	metrics.start()

	result, err := proc.Run(src)
	if err != nil {
		log.Fatal(err)
	}

	out := os.Stdout
	if *outPath != "-" {
		out, err = os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer out.Close()
	}
	writeAll := csvio.WriteAll
	if *meta {
		writeAll = csvio.WriteAllMeta
	}
	if err := writeAll(out, schema, result.Polluted); err != nil {
		log.Fatal(err)
	}
	proc.Obs.Add(obs.CSinkWrites, uint64(len(result.Polluted)))

	if *cleanOut != "" {
		cf, err := os.Create(*cleanOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeAll(cf, schema, result.Clean); err != nil {
			log.Fatal(err)
		}
		if err := cf.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *logOut != "" {
		lf, err := os.Create(*logOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := result.Log.WriteJSON(lf); err != nil {
			log.Fatal(err)
		}
		if err := lf.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *deadOut != "" {
		if err := writeDeadLetters(*deadOut, result.Quarantined); err != nil {
			log.Fatal(err)
		}
	}
	if *reportOut != "" {
		rf, err := os.Create(*reportOut)
		if err != nil {
			log.Fatal(err)
		}
		err = report.Write(rf, report.Input{
			Title:       "Icewafl pollution run: " + *configPath,
			Process:     proc,
			Result:      result,
			GeneratedAt: time.Now(),
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := rf.Close(); err != nil {
			log.Fatal(err)
		}
	}
	metrics.finish()
	log.Printf("wrote %d tuples (%d errors injected, %d dropped, %d quarantined)",
		len(result.Polluted), result.Log.Len(), result.DroppedTuples, len(result.Quarantined))
}

// metricsExport bundles the optional observability wiring of one CLI
// run: the registry every runner reports into, the snapshot file sink,
// and the optional live-rewrite ticker. The zero export (no -metrics)
// is inert: registry() returns nil, start/finish are no-ops.
type metricsExport struct {
	reg  *obs.Registry
	fn   obs.SinkFunc
	tick *obs.MetricsSink
}

// setupMetrics builds the export for the given flags. path == ""
// disables metrics entirely.
func setupMetrics(path, format string, interval time.Duration, traceSample uint64) *metricsExport {
	if path == "" {
		return &metricsExport{}
	}
	fn, err := obs.FileSink(path, format)
	if err != nil {
		log.Fatal(err)
	}
	m := &metricsExport{reg: obs.NewRegistry(), fn: fn}
	if traceSample > 0 {
		m.reg.SetTraceSampling(traceSample, 0)
	}
	if interval > 0 {
		m.tick, err = obs.NewMetricsSink(m.reg, interval, fn)
		if err != nil {
			log.Fatal(err)
		}
	}
	return m
}

// registry returns the run's registry (nil when metrics are off — the
// engine's hooks are nil-safe).
func (m *metricsExport) registry() *obs.Registry { return m.reg }

// start launches the periodic rewrite, when configured.
func (m *metricsExport) start() {
	if m.tick != nil {
		m.tick.Start()
	}
}

// finish writes the final snapshot (stopping the ticker first).
func (m *metricsExport) finish() {
	if m.reg == nil {
		return
	}
	if m.tick != nil {
		if err := m.tick.Stop(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := m.fn(m.reg.Snapshot()); err != nil {
		log.Fatal(err)
	}
}

// withRetry wraps src in a RetrySource when the configuration enables
// source retrying, instrumenting it against the run's registry.
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

// writeDeadLetters persists quarantined tuples as JSON lines.
func writeDeadLetters(path string, letters []stream.DeadLetter) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range letters {
		if err := enc.Encode(&letters[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// streamSummary writes the dead letters, when asked for, and logs the
// one-line summary of a streaming run.
func streamSummary(proc *core.Process, plog *core.Log, n int, deadOut, suffix string) {
	quarantined := 0
	if dlq := proc.Fault.DLQ; dlq != nil {
		quarantined = dlq.Len()
		if deadOut != "" {
			if err := writeDeadLetters(deadOut, dlq.Letters()); err != nil {
				log.Fatal(err)
			}
		}
	}
	log.Printf("streamed %d tuples (%d errors injected, %d quarantined%s)", n, plog.Total(), quarantined, suffix)
}

// streamingRun bundles the parameters of a -stream run; ckptPath is ""
// unless the shape is checkpointed.
type streamingRun struct {
	outPath  string
	logOut   string
	deadOut  string
	meta     bool
	ckptPath string
	resume   bool
	interval int
}

// resumableSink is the writer contract checkpointing needs: flushing to
// record exact file offsets and header suppression on resume.
type resumableSink interface {
	stream.Sink
	Flush() error
	OmitHeader()
}

// runStreaming executes the constant-memory streaming path in the given
// execution shape: tuples are polluted and written as they arrive, with
// only the bounded reordering window and one interval of pollution-log
// entries buffered. Every opt.interval emitted tuples the log entries
// recorded since the last flush are written and released; a
// checkpointed shape additionally flushes the output, snapshots the
// pipeline state and atomically rewrites the checkpoint file there. With
// opt.resume the previous run's files are truncated to the checkpointed
// offsets and the run continues exactly where the snapshot was taken.
// The sink never holds a tuple across Next calls, as Stream's loan
// contract asks.
func runStreaming(proc *core.Process, reader stream.Source, schema *stream.Schema, shape core.StreamSpec, opt streamingRun) {
	if shape.Checkpoint && opt.outPath == "-" {
		log.Fatal("-checkpoint requires a real -out file (offsets must be truncatable on resume)")
	}
	if opt.resume {
		var err error
		shape.Resume, err = core.ReadCheckpoint(opt.ckptPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	ckpt := shape.Resume

	outF := os.Stdout
	if opt.outPath != "-" {
		outF = openResumable(opt.outPath, opt.resume, ckpt, "out_bytes")
		defer outF.Close()
	}
	var logF *os.File
	if opt.logOut != "" {
		logF = openResumable(opt.logOut, opt.resume, ckpt, "log_bytes")
		defer logF.Close()
	}

	run, err := proc.Stream(reader, shape)
	if err != nil {
		log.Fatal(err)
	}
	src, plog, ck := run.Source, run.Log, run.Checkpointer

	var sink resumableSink = csvio.NewWriter(outF, schema)
	if opt.meta {
		sink = csvio.NewMetaWriter(outF, schema)
	}
	if opt.resume {
		sink.OmitHeader()
	}
	observed := stream.ObserveSink(sink, proc.Obs)

	// flush runs between Next calls, when no log entry can still be
	// rolled back. ck is nil unless the shape is checkpointed.
	flush := func() error {
		if logF != nil {
			if err := plog.WriteJSON(logF); err != nil {
				return err
			}
		}
		plog.Release()
		if ck == nil {
			return nil
		}
		if err := sink.Flush(); err != nil {
			return err
		}
		c, err := ck.Capture()
		if err != nil {
			return err
		}
		if c.Offsets["out_bytes"], err = outF.Seek(0, io.SeekCurrent); err != nil {
			return err
		}
		if logF != nil {
			if c.Offsets["log_bytes"], err = logF.Seek(0, io.SeekCurrent); err != nil {
				return err
			}
		}
		return core.WriteCheckpoint(opt.ckptPath, c)
	}

	n := 0
	for {
		t, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := observed.Write(t); err != nil {
			log.Fatal(err)
		}
		n++
		if n%opt.interval == 0 {
			if err := flush(); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
	if err := flush(); err != nil {
		log.Fatal(err)
	}
	suffix := ""
	if ck != nil {
		suffix = ", checkpoint " + opt.ckptPath
	}
	streamSummary(proc, plog, n, opt.deadOut, suffix)
}

// openResumable opens path for appending output. On resume the file is
// truncated to the checkpointed offset first, discarding rows written
// after the snapshot; otherwise a fresh file is created.
func openResumable(path string, resume bool, ckpt *core.Checkpoint, offsetKey string) *os.File {
	if !resume {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		return f
	}
	off, ok := ckpt.Offsets[offsetKey]
	if !ok {
		log.Fatalf("checkpoint has no %q offset; was it written by -checkpoint?", offsetKey)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		log.Fatal(err)
	}
	return f
}
