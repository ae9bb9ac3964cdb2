// Command dqcheck validates a stream against a JSON expectation suite —
// the data-quality-tool side of the benchmark loop: pollute with
// icewafl (or serve with icewafld), then measure with dqcheck.
//
// Usage:
//
//	dqcheck -schema schema.json -suite suite.json -in data.csv [-window 4h]
//	dqcheck -schema schema.json -suite suite.json -follow host:port -window 4h
//
// Without -window the whole input is validated at once (batch mode);
// with -window it is validated per tumbling window on the incremental
// engine (continuous monitoring mode; add -slide for sliding windows).
// With -follow the input is a live icewafld dirty channel instead of a
// file: dqcheck subscribes over TCP (reconnecting with resume on
// connection loss) and writes one NDJSON window verdict per closed
// window as the stream progresses. Offline windowed runs emit the same
// NDJSON with -ndjson, so a live run and an offline re-check of the
// same stream are byte-comparable. `-truth live` in follow mode scores
// the flagged tuples against the pollution-log channel served by the
// same daemon.
//
// A long-outage reconnect can land past the server's replay retention:
// the daemon then reports a permanent replay gap. -resume-policy
// chooses the reaction: "fail" (default) exits with the typed gap error
// (last acked and server-minimum sequence numbers), "restart" logs the
// gap and re-subscribes at the server's oldest retained frame, trading
// the lost windows for continued monitoring.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/csvio"
	"icewafl/internal/dq"
	"icewafl/internal/groundtruth"
	"icewafl/internal/netstream"
	"icewafl/internal/obs"
	"icewafl/internal/schemafile"
	"icewafl/internal/stream"
)

// fatalUsage reports a flag-validation error the conventional way: the
// diagnostic, the usage text, and exit status 2 — before any I/O.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dqcheck: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dqcheck: ")
	schemaPath := flag.String("schema", "", "path to the JSON schema file (required)")
	suitePath := flag.String("suite", "", "path to the JSON expectation suite (required unless -profile)")
	inPath := flag.String("in", "", "input CSV ('-' for stdin; required unless -follow)")
	follow := flag.String("follow", "", "subscribe to a live icewafld dirty channel at this TCP address instead of reading a file")
	window := flag.Duration("window", 0, "validate per tumbling window of this width instead of in one batch")
	slide := flag.Duration("slide", 0, "sliding-window advance (requires -window; width must be a multiple)")
	ndjson := flag.Bool("ndjson", false, "emit one NDJSON verdict per window instead of the table (windowed mode)")
	profileOut := flag.String("profile", "", "profile the input (assumed clean) into an expectation suite at this path instead of validating")
	truthPath := flag.String("truth", "", "pollution log (JSON lines from icewafl -log) to score detections against; requires -meta. With -follow, the literal 'live' scores against the served log channel")
	metaIn := flag.Bool("meta", false, "input carries icewafl's _id/_substream metadata columns (and _arrival when present)")
	metricsOut := flag.String("metrics", "", "write a Prometheus metrics snapshot of the monitor here at exit (windowed mode)")
	resumePolicy := flag.String("resume-policy", "fail", "reaction to a permanent replay gap in -follow mode: fail (exit) or restart (re-subscribe at the server's oldest retained frame)")
	flag.Parse()

	// Flag validation: every rejected range and combination exits 2 with
	// usage before any file or network I/O.
	if *schemaPath == "" || (*inPath == "" && *follow == "") || (*suitePath == "" && *profileOut == "") {
		fatalUsage("-schema, -suite (or -profile) and -in (or -follow) are required")
	}
	if *inPath != "" && *follow != "" {
		fatalUsage("-in and -follow are mutually exclusive")
	}
	if *profileOut != "" {
		if *suitePath != "" {
			fatalUsage("-profile cannot be combined with -suite")
		}
		if *truthPath != "" {
			fatalUsage("-profile cannot be combined with -truth")
		}
		if *follow != "" || *window != 0 {
			fatalUsage("-profile cannot be combined with -follow or -window")
		}
	}
	if *window < 0 {
		fatalUsage("-window must be positive, got %v", *window)
	}
	if *follow != "" && *window <= 0 {
		fatalUsage("-follow requires a positive -window")
	}
	if (*slide != 0 || *ndjson) && *window <= 0 {
		fatalUsage("-slide and -ndjson require a positive -window")
	}
	if *slide < 0 {
		fatalUsage("-slide must be positive, got %v", *slide)
	}
	if *slide > 0 {
		if *slide > *window {
			fatalUsage("-slide %v must not exceed -window %v", *slide, *window)
		}
		if *window%*slide != 0 {
			fatalUsage("-window %v must be a multiple of -slide %v", *window, *slide)
		}
	}
	if *truthPath != "" {
		if *follow != "" && *truthPath != "live" {
			fatalUsage("with -follow, -truth must be the literal 'live' (the served log channel)")
		}
		if *follow == "" && *truthPath == "live" {
			fatalUsage("-truth live requires -follow")
		}
		if *follow == "" && !*metaIn {
			fatalUsage("-truth requires -meta input (raw CSV rows have no joinable tuple IDs)")
		}
	}
	if *metricsOut != "" && *window <= 0 {
		fatalUsage("-metrics requires a positive -window (it snapshots the streaming monitor)")
	}
	switch *resumePolicy {
	case "fail", "restart":
	default:
		fatalUsage("-resume-policy must be fail or restart, got %q", *resumePolicy)
	}
	if *resumePolicy != "fail" && *follow == "" {
		fatalUsage("-resume-policy applies to -follow mode only")
	}

	schema, err := schemafile.Load(*schemaPath)
	if err != nil {
		log.Fatal(err)
	}

	if *profileOut != "" {
		profile(schema, *inPath, *metaIn, *profileOut)
		return
	}

	sf, err := os.Open(*suitePath)
	if err != nil {
		log.Fatal(err)
	}
	suite, err := dq.LoadSuite(sf)
	sf.Close()
	if err != nil {
		log.Fatal(err)
	}

	if *follow != "" {
		runFollow(suite, *follow, *window, *slide, *truthPath == "live", *metricsOut, *resumePolicy)
		return
	}

	src := openInput(schema, *inPath, *metaIn)
	if *window > 0 {
		runWindowed(suite, src, *window, *slide, *ndjson, *truthPath, *metricsOut)
		return
	}
	runBatch(suite, src, *truthPath)
}

// openInput opens the file (or stdin) input as a stream source.
func openInput(schema *stream.Schema, inPath string, metaIn bool) stream.Source {
	in := os.Stdin
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			log.Fatal(err)
		}
		in = f
	}
	if metaIn {
		// The metadata format already carries icewafl's tuple IDs (and,
		// when written with _arrival, exact delivery times), so
		// detections join against a pollution log and windows match the
		// live stream.
		mr, err := csvio.NewMetaReader(in, schema)
		if err != nil {
			log.Fatal(err)
		}
		return mr
	}
	reader, err := csvio.NewReader(in, schema)
	if err != nil {
		log.Fatal(err)
	}
	// Prepare assigns IDs and arrival times so windows and
	// unexpected-ID reporting work on raw CSV input.
	return stream.NewPrepare(reader, 1)
}

// profile drains the input and writes a profiled expectation suite.
func profile(schema *stream.Schema, inPath string, metaIn bool, outPath string) {
	src := openInput(schema, inPath, metaIn)
	tuples, err := stream.Drain(src)
	if err != nil {
		log.Fatal(err)
	}
	suite := dq.Profile("profiled", tuples, 0.1)
	out, err := os.Create(outPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := dq.SaveSuite(out, suite); err != nil {
		log.Fatal(err)
	}
	if err := out.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("profiled %d tuples into %d expectations at %s",
		len(tuples), len(suite.Expectations), outPath)
}

// newMonitor builds the streaming monitor for the given window shape.
func newMonitor(suite *dq.Suite, window, slide time.Duration) *dq.Monitor {
	m, err := dq.NewSlidingMonitor(suite, window, slide)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

// writeMetrics snapshots reg as Prometheus text exposition at path.
func writeMetrics(reg *obs.Registry, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Snapshot().WritePrometheus(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// collectFlagged dedups the unexpected tuple IDs of one window into
// flagged (sliding windows report overlapping tuples repeatedly).
func collectFlagged(flagged map[uint64]bool, wr dq.WindowResult) {
	for _, r := range wr.Results {
		for _, id := range r.UnexpectedIDs {
			flagged[id] = true
		}
	}
}

// scoreTruth prints precision/recall/F1 of flagged against the log.
func scoreTruth(flagged map[uint64]bool, plog *core.Log) {
	ids := make([]uint64, 0, len(flagged))
	for id := range flagged {
		ids = append(ids, id)
	}
	score := groundtruth.Evaluate(ids, plog.PollutedTuples())
	log.Printf("vs ground truth (%d polluted tuples): precision %.2f, recall %.2f, F1 %.2f",
		len(plog.PollutedTuples()), score.Precision(), score.Recall(), score.F1())
}

// runWindowed validates a file input window by window on the
// incremental engine.
func runWindowed(suite *dq.Suite, src stream.Source, window, slide time.Duration, ndjson bool, truthPath, metricsOut string) {
	m := newMonitor(suite, window, slide)
	reg := obs.NewRegistry()
	m.SetObs(reg)
	out := bufio.NewWriter(os.Stdout)
	flagged := make(map[uint64]bool)
	var windows []dq.WindowResult
	err := m.Run(src, func(wr dq.WindowResult) error {
		collectFlagged(flagged, wr)
		if ndjson {
			return dq.WriteVerdict(out, wr)
		}
		windows = append(windows, wr)
		return nil
	})
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		log.Fatal(err)
	}
	if !ndjson {
		fmt.Printf("%-20s %8s %10s\n", "window start", "tuples", "unexpected")
		for _, w := range windows {
			fmt.Printf("%-20s %8d %10d\n", w.Start.Format("2006-01-02 15:04"), w.Tuples, w.Unexpected())
		}
		if worst := dq.WorstWindow(windows); worst >= 0 {
			fmt.Printf("worst window: %s with %d unexpected rows\n",
				windows[worst].Start.Format("2006-01-02 15:04"), windows[worst].Unexpected())
		}
	}
	if truthPath != "" {
		tf, err := os.Open(truthPath)
		if err != nil {
			log.Fatal(err)
		}
		plog, err := core.ReadLogJSON(tf)
		tf.Close()
		if err != nil {
			log.Fatal(err)
		}
		scoreTruth(flagged, plog)
	}
	writeMetrics(reg, metricsOut)
}

// runFollow subscribes to a live icewafld dirty channel and streams one
// NDJSON verdict per closed window. The subscription survives
// connection loss: the ClientSource re-dials with backoff and resumes
// at the next sequence number. A replay gap (resume point past the
// server's retention) ends the run, unless resumePolicy is "restart",
// which re-subscribes at the server's oldest retained frame and keeps
// monitoring.
func runFollow(suite *dq.Suite, addr string, window, slide time.Duration, truthLive bool, metricsOut, resumePolicy string) {
	m := newMonitor(suite, window, slide)
	reg := obs.NewRegistry()
	m.SetObs(reg)

	cs, err := netstream.Dial(addr, netstream.ChannelDirty)
	if err != nil {
		log.Fatal(err)
	}
	defer cs.Stop()
	var src stream.Source = cs
	if resumePolicy == "restart" {
		src = &gapRestartSource{ClientSource: cs}
	}

	out := bufio.NewWriter(os.Stdout)
	flagged := make(map[uint64]bool)
	err = m.Run(src, func(wr dq.WindowResult) error {
		if err := dq.WriteVerdict(out, wr); err != nil {
			return err
		}
		collectFlagged(flagged, wr)
		// Verdicts flush as windows close — this is live monitoring, not
		// a report at EOF.
		return out.Flush()
	})
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		log.Fatal(err)
	}
	if n := cs.Reconnects(); n > 0 {
		log.Printf("reconnected %d time(s) during the run", n)
	}
	if truthLive {
		plog, err := readServedLog(addr)
		if err != nil {
			log.Fatal(err)
		}
		scoreTruth(flagged, plog)
	}
	writeMetrics(reg, metricsOut)
}

// gapRestartSource implements -resume-policy restart: when the client
// fails with a replay gap, it moves the subscription to the server's
// oldest retained frame and keeps going.
// The frames between the last acked and the server minimum are lost —
// that trade is the policy's point, so each restart is logged.
type gapRestartSource struct {
	*netstream.ClientSource
	restarts int
}

func (g *gapRestartSource) Next() (stream.Tuple, error) {
	for {
		t, err := g.ClientSource.Next()
		var gap *netstream.GapError
		if err == nil || !errors.As(err, &gap) {
			return t, err
		}
		g.restarts++
		log.Printf("replay gap on %s (last acked seq %d, server retains from %d): restarting at server minimum (restart %d)",
			gap.Channel, gap.LastAcked, gap.ServerMin, g.restarts)
		g.RestartAt(gap.ServerMin)
	}
}

// readServedLog drains the daemon's pollution-log channel over raw TCP
// frames (the log channel carries entries, not tuples, so ClientSource
// does not apply).
func readServedLog(addr string) (*core.Log, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial log channel: %w", err)
	}
	defer conn.Close()
	req, err := json.Marshal(netstream.SubscribeRequest{Channel: netstream.ChannelLog})
	if err != nil {
		return nil, err
	}
	if err := netstream.WriteFrame(conn, req); err != nil {
		return nil, fmt.Errorf("subscribe log channel: %w", err)
	}
	br := bufio.NewReader(conn)
	plog := &core.Log{}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		payload, err := netstream.ReadFrame(br)
		if err != nil {
			return nil, fmt.Errorf("read log frame: %w", err)
		}
		f, err := netstream.DecodeFrame(payload)
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case netstream.FrameHello:
		case netstream.FrameLog:
			plog.Record(*f.Entry)
		case netstream.FrameEOF:
			return plog, nil
		case netstream.FrameError:
			return nil, fmt.Errorf("log channel error: %s", f.Error)
		default:
			return nil, fmt.Errorf("unexpected frame %q on log channel", f.Type)
		}
	}
}

// runBatch validates the whole input at once (the original CLI mode).
func runBatch(suite *dq.Suite, src stream.Source, truthPath string) {
	tuples, err := stream.Drain(src)
	if err != nil {
		log.Fatal(err)
	}
	results := suite.Validate(tuples)
	failures := 0
	var flagged []uint64
	fmt.Printf("%-55s %9s %10s %8s\n", "expectation", "evaluated", "unexpected", "success")
	for _, r := range results {
		fmt.Printf("%-55s %9d %10d %8v\n", r.Expectation, r.Evaluated, r.Unexpected, r.Success)
		flagged = append(flagged, r.UnexpectedIDs...)
		if !r.Success {
			failures++
		}
	}
	if truthPath != "" {
		tf, err := os.Open(truthPath)
		if err != nil {
			log.Fatal(err)
		}
		plog, err := core.ReadLogJSON(tf)
		tf.Close()
		if err != nil {
			log.Fatal(err)
		}
		score := groundtruth.Evaluate(flagged, plog.PollutedTuples())
		fmt.Printf("vs ground truth (%d polluted tuples): precision %.2f, recall %.2f, F1 %.2f\n",
			len(plog.PollutedTuples()), score.Precision(), score.Recall(), score.F1())
	}
	if failures > 0 {
		fmt.Printf("%d of %d expectations failed\n", failures, len(results))
		os.Exit(1)
	}
	fmt.Println("all expectations passed")
}
