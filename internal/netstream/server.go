package netstream

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

// Config configures one session's pipeline: a compiled process, the
// source it consumes, and the fan-out behaviour. The hosting Service
// supplies the rest: the channel namespace, the registry and the log.
type Config struct {
	// Schema is the input schema (announced to clients in hello frames).
	Schema *stream.Schema
	// Proc is the compiled pollution process (exactly one pipeline; the
	// server drives it through the streaming runner). The server owns
	// Proc.CleanTap for the duration of the run.
	Proc *core.Process
	// NewSource opens the input stream for the run.
	NewSource func() (stream.Source, error)
	// Reorder, Shards and ShardKey are the run's execution shape (see
	// shape); core.StreamSpec decides which combinations are valid and
	// whether a durable run checkpoints.
	//
	// Reorder is the bounded reordering window of the streaming runner.
	Reorder int
	// Shards partitions the keyed pollution hot path across this many
	// parallel workers (<= 1 = sequential).
	Shards int
	// ShardKey names the attribute whose value routes tuples to shards.
	ShardKey string
	// Buffer is the per-subscriber send queue capacity (frames).
	Buffer int
	// Replay is the number of frames a memory-only server retains per
	// channel for late subscribers and reconnects; with StateDir the log
	// is the only replay path and Replay is unused.
	Replay int
	// Policy selects the backpressure behaviour for slow subscribers.
	Policy Policy
	// DrainTimeout bounds the graceful drain on shutdown: how long the
	// server waits for subscribers to finish reading after the pipeline
	// ends (default 5s). When the deadline fires with subscribers still
	// connected, their connections are force-closed and DrainExpired
	// reports true.
	DrainTimeout time.Duration
	// StateDir makes the session durable: every channel's frames go to
	// one write-ahead log, the session log, under StateDir/wal, so from_seq
	// resume survives restarts. A checkpointable shape also appends a
	// checkpoint record every CheckpointEvery emitted tuples, where a
	// restarted daemon resumes the run. Empty = memory-only (the ring).
	StateDir string
	// WAL tunes the session log (zero value = defaults); only meaningful
	// with StateDir.
	WAL WALOptions
	// CheckpointEvery is the capture cadence in emitted tuples (default
	// 256).
	CheckpointEvery int
	// Supervise runs the pipeline as a restartable session: a failed or
	// panicked run is restarted with exponential backoff until the
	// restart budget is exhausted, then quarantined (surfaced on
	// /healthz).
	Supervise bool
	// RestartBudget is the number of restarts tolerated per
	// RestartWindow before quarantine (default 3).
	RestartBudget int
	// RestartWindow is the sliding restart-budget window (default 1m).
	RestartWindow time.Duration
	// RestartBackoff is the base restart delay, doubled per consecutive
	// failure (default 100ms).
	RestartBackoff time.Duration
}

// shape is the execution shape the flat fields describe.
func (c Config) shape() core.StreamSpec {
	return core.StreamSpec{Reorder: c.Reorder, Shards: c.Shards, ShardKey: c.ShardKey}
}

// chanName pairs a channel's local identity (dirty/clean/log — the
// checkpoint-offset key) with its full, possibly namespaced wire name.
type chanName struct {
	local string
	full  string
}

// Server runs one session's pollution pipeline and fans its outputs out
// through its hub. A Service builds every Server and owns the listeners;
// it hands each subscriber to the owning server's streamTCP or
// streamHTTP.
type Server struct {
	cfg  Config
	hub  *Hub
	sup  *Supervisor
	reg  *obs.Registry
	logf func(format string, args ...any)

	// chans maps the standard channels to their wire names; chDirty,
	// chClean and chLog are the wire names used on the hot paths.
	chans   []chanName
	chDirty string
	chClean string
	chLog   string

	mu    sync.Mutex
	conns map[io.Closer]struct{}

	drainExpired atomic.Bool

	pipelineDone chan struct{}
	pipelineErr  error
}

// newServer validates cfg and builds the server (hub and hello frames
// included, so clients may subscribe before the pipeline starts). Its
// channels are <namespace>/dirty|clean|log, or the bare names when
// namespace is empty (the unnamed session). reg is shared with every
// sibling session, so only the unnamed session's hub registers gauges
// under fixed names.
func newServer(cfg Config, namespace string, reg *obs.Registry, logf func(format string, args ...any)) (*Server, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("netstream: config needs a schema")
	}
	if cfg.Proc == nil {
		return nil, fmt.Errorf("netstream: config needs a process")
	}
	if cfg.NewSource == nil {
		return nil, fmt.Errorf("netstream: config needs a source factory")
	}
	if cfg.Reorder < 1 {
		cfg.Reorder = 1
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if err := cfg.shape().Validate(cfg.Schema); err != nil {
		return nil, fmt.Errorf("netstream: %w", err)
	}
	// A durable run checkpoints exactly when its shape can be captured;
	// the others are WAL-only (deterministic re-run + suppression).
	switch {
	case cfg.StateDir == "" || !cfg.shape().Checkpointable():
		cfg.CheckpointEvery = 0
	case cfg.CheckpointEvery <= 0:
		cfg.CheckpointEvery = 256
	}
	s := &Server{
		cfg:          cfg,
		reg:          reg,
		logf:         logf,
		conns:        make(map[io.Closer]struct{}),
		pipelineDone: make(chan struct{}),
	}
	var names []string
	for _, local := range Channels() {
		full := local
		if namespace != "" {
			full = namespace + "/" + local
		}
		s.chans = append(s.chans, chanName{local: local, full: full})
		names = append(names, full)
	}
	s.chDirty, s.chClean, s.chLog = s.chans[0].full, s.chans[1].full, s.chans[2].full
	s.hub = NewHubNamed(names, cfg.Buffer, cfg.Replay, cfg.Policy, reg)
	s.hub.trackDelivery = true
	if cfg.StateDir != "" {
		if err := checkStateDir(cfg.StateDir); err != nil {
			return nil, err
		}
		w, err := OpenWAL(filepath.Join(cfg.StateDir, "wal"), cfg.WAL)
		if err != nil {
			return nil, err
		}
		s.hub.attachLog(w)
	}
	if namespace == "" {
		s.hub.registerGauges()
	}
	if cfg.Supervise {
		s.hub.resumable = true
		s.sup = NewSupervisor(cfg.RestartBudget, cfg.RestartWindow, cfg.RestartBackoff, logf)
		if namespace == "" {
			reg.RegisterFunc("net_session_restarts", s.sup.Restarts)
		}
	}
	doc := SchemaDocument(cfg.Schema)
	for _, cn := range s.chans {
		if err := s.hub.SetHello(cn.full, &Frame{Type: FrameHello, Channel: cn.full, Schema: doc}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Supervisor returns the session supervisor (nil unless Supervise).
func (s *Server) Supervisor() *Supervisor { return s.sup }

// DrainExpired reports whether the shutdown drain deadline fired with
// subscribers still connected (their connections were force-closed; the
// daemon exits nonzero).
func (s *Server) DrainExpired() bool { return s.drainExpired.Load() }

// Hub exposes the server's broadcast hub (tests and embedders).
func (s *Server) Hub() *Hub { return s.hub }

// ErrOldStateDir refuses a state dir in an older build's layout: a log
// per channel (wal/<channel> or <channel>) or checkpoint/ck.json.
var ErrOldStateDir = errors.New("netstream: state dir written by an older build")

// checkStateDir refuses dir if it holds the older layout.
func checkStateDir(dir string) error {
	for _, old := range []string{"checkpoint/ck.json", "wal/dirty", "wal/clean", "wal/log", "dirty", "clean", "log"} {
		p := filepath.Join(dir, old)
		if _, err := os.Stat(p); err == nil {
			return fmt.Errorf("%w: %s holds %s; finish that run with the build that wrote it, or use a fresh state dir", ErrOldStateDir, dir, p)
		}
	}
	return nil
}

// allTerminal reports whether every channel ends durably in a terminal
// frame (a previous run completed — nothing to rerun).
func (s *Server) allTerminal() bool {
	for _, cn := range s.chans {
		if !s.hub.wal.Channel(cn.full).Terminal {
			return false
		}
	}
	return true
}

// armRecovery rewinds every channel's publish cursor to the checkpoint
// (or zero) and arms the suppression boundary at the current durable
// maximum, so the deterministic re-run regenerates the already-durable
// region without duplicating it.
func (s *Server) armRecovery(resume *core.Checkpoint) error {
	for _, cn := range s.chans {
		cursor := uint64(0)
		if resume != nil {
			if v := resume.Offsets["net."+cn.local]; v > 0 {
				cursor = uint64(v)
			}
		}
		if err := s.hub.BeginRecovery(cn.full, cursor); err != nil {
			return err
		}
	}
	return nil
}

// captureCheckpoint appends a consistent run snapshot to the session
// log, after every frame it references.
func (s *Server) captureCheckpoint(ckr *core.Checkpointer) error {
	ck, err := ckr.Capture()
	if err != nil {
		return err
	}
	for _, cn := range s.chans {
		ck.Offsets["net."+cn.local] = int64(s.hub.Seq(cn.full))
	}
	return s.hub.wal.AppendCheckpoint(ck)
}

// runPipeline executes the pollution process once, publishing every
// output to the hub, and finishes each channel with a terminal frame.
// Client-side failures never reach the pipeline: a disconnected or slow
// subscriber only affects its own subscription (per the backpressure
// policy), while source-side faults follow the process's fault policy
// as in-process: a malformed row is a dead letter under quarantine and
// ends the run without it.
//
// In durable mode (StateDir) each run first arms the hub's recovery
// suppression: frames the deterministic (re-)run regenerates below the
// durable maximum consume their sequence numbers silently, so a
// restarted daemon resumes the stream with no duplicates or gaps. A
// checkpointed run additionally resumes pipeline state from the last
// checkpoint instead of replaying the whole input.
func (s *Server) runPipeline(ctx context.Context) error {
	proc := s.cfg.Proc
	durable := s.cfg.StateDir != ""
	if durable && s.allTerminal() {
		s.logf("durable run already complete; serving from wal")
		return nil
	}
	var resume *core.Checkpoint
	if s.cfg.CheckpointEvery > 0 {
		ck, err := s.hub.wal.Checkpoint()
		switch {
		case err != nil:
			s.logf("checkpoint unreadable, replaying from scratch: %v", err)
		case ck != nil:
			resume = ck
			s.logf("resuming from checkpoint: %d tuples in, %d out", ck.TuplesIn, ck.TuplesOut)
		}
	}

	proc.CleanTap = func(t stream.Tuple) {
		if err := s.hub.PublishTuple(s.chClean, t); err != nil {
			s.logf("clean publish: %v", err)
		}
	}
	defer func() { proc.CleanTap = nil }()

	fail := func(err error) error {
		msg := err.Error()
		for _, cn := range s.chans {
			if perr := s.hub.Publish(cn.full, &Frame{Type: FrameError, Error: msg}); perr != nil && !errors.Is(perr, ErrHubClosed) {
				s.logf("error publish on %s: %v", cn.full, perr)
			}
		}
		return err
	}

	if durable || s.cfg.Supervise {
		// Arm recovery on every attempt: the first run of a fresh log is a
		// no-op (cursor and boundary both zero), later runs replay into the
		// suppressed region.
		if err := s.armRecovery(resume); err != nil {
			return fail(err)
		}
	}

	src, err := s.cfg.NewSource()
	if err != nil {
		return fail(fmt.Errorf("netstream: open source: %w", err))
	}
	defer stopSource(src)

	// Sharded runs emit loaned tuples; that is safe here because the
	// publish loop below fully encodes each tuple into its frame before
	// the next Next call.
	shape := s.cfg.shape()
	shape.Checkpoint, shape.Resume = s.cfg.CheckpointEvery > 0, resume
	run, err := proc.Stream(stream.WithContext(ctx, src), shape)
	if err != nil {
		return fail(err)
	}
	polluted, plog, ckr := run.Source, run.Log, run.Checkpointer
	// flushLog publishes the entries recorded since the last flush and
	// releases them, so a session over an unbounded source retains one
	// flush interval of entries, not its whole history. It runs between
	// Next calls only, when no entry can still be rolled back.
	flushLog := func() error {
		if plog == nil {
			return nil
		}
		for i := range plog.Entries {
			if err := s.hub.PublishEntry(s.chLog, &plog.Entries[i]); err != nil {
				return err
			}
		}
		plog.Release()
		return nil
	}
	emitted := 0
	for {
		t, err := polluted.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		// The log trails the polluted stream by at most the reorder
		// window; flushing per emitted tuple keeps subscribers current
		// without observing entries that could still be rolled back
		// (rollback happens inside Next, before the tuple is emitted).
		if err := flushLog(); err != nil {
			return fail(err)
		}
		if err := s.hub.PublishTuple(s.chDirty, t); err != nil {
			return fail(err)
		}
		emitted++
		if ckr != nil && emitted%s.cfg.CheckpointEvery == 0 {
			// Capture between Next calls, when no tuple is in flight; a
			// failed capture only widens the replay window of the next
			// restart, it does not corrupt the run.
			if cerr := s.captureCheckpoint(ckr); cerr != nil {
				s.logf("checkpoint: %v", cerr)
			}
		}
	}
	if err := flushLog(); err != nil {
		return fail(err)
	}
	for _, cn := range s.chans {
		if err := s.hub.Publish(cn.full, &Frame{Type: FrameEOF}); err != nil && !errors.Is(err, ErrHubClosed) {
			return err
		}
	}
	return nil
}

// stopSource stops a source implementing stream.Stopper.
func stopSource(src stream.Source) {
	if st, ok := src.(stream.Stopper); ok {
		st.Stop()
	}
}

// startPipeline launches the pollution run (supervised when configured)
// and returns a one-shot channel carrying its terminal error.
func (s *Server) startPipeline(ctx context.Context) <-chan error {
	pipeRes := make(chan error, 1)
	go func() {
		var err error
		if s.sup != nil {
			err = s.sup.Run(ctx, s.runPipeline)
		} else {
			err = s.runPipeline(ctx)
		}
		s.mu.Lock()
		s.pipelineErr = err
		s.mu.Unlock()
		close(s.pipelineDone)
		pipeRes <- err
	}()
	return pipeRes
}

// drainAndClose is the bounded shutdown path of every session stop —
// SIGTERM and DELETE alike: give connected subscribers DrainTimeout to
// empty their queues, then force-close whatever is left — the hub close
// releases any Publish wedged on a stuck block-policy subscriber, so the
// pipeline goroutine (and therefore this call) finishes promptly instead
// of blocking the caller indefinitely. Returns the pipeline's error.
func (s *Server) drainAndClose(pipeRes <-chan error) error {
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for time.Now().Before(deadline) && s.hub.subscribers.Load() > 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.hub.subscribers.Load(); n > 0 {
		s.drainExpired.Store(true)
		s.logf("drain deadline expired with %d subscriber(s) connected; force-closing", n)
	}
	s.hub.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	// hub.Close above released any Publish still blocked on a stuck
	// subscriber, so the pipeline goroutine finishes promptly.
	err := <-pipeRes
	s.closeLog()
	return err
}

// closeLog releases the session log from its tenant's budget and closes it.
func (s *Server) closeLog() {
	if w := s.hub.wal; w != nil {
		w.ReleaseBudget()
		if err := w.Close(); err != nil {
			s.logf("wal close: %v", err)
		}
	}
}

// trackConn registers a subscriber connection (or closer) for
// force-close when the drain deadline expires; untrackConn releases it.
func (s *Server) trackConn(c io.Closer) {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrackConn(c io.Closer) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// PipelineDone reports completion of the pollution run (closed channel)
// and its error.
func (s *Server) PipelineDone() <-chan struct{} { return s.pipelineDone }

// PipelineErr returns the pipeline's terminal error (nil before
// completion or on success).
func (s *Server) PipelineErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pipelineErr
}

// readSubscribe reads a connection's opening subscribe request under a
// read deadline. Nothing is known about the peer yet, so the frame is
// capped at maxSubscribeBytes before any of it is buffered; an oversized
// or malformed request is answered with a terminal error frame.
func readSubscribe(conn net.Conn) (req SubscribeRequest, ok bool) {
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := readFrameInto(conn, nil, maxSubscribeBytes)
	if err == nil {
		err = json.Unmarshal(payload, &req)
	} else if !errors.Is(err, errFrameTooLarge) {
		return req, false // the peer went away or never spoke
	}
	if err != nil {
		writeConnError(conn, fmt.Errorf("netstream: bad subscribe request: %w", err))
		return req, false
	}
	_ = conn.SetReadDeadline(time.Time{})
	return req, true
}

// streamTCP subscribes the connection to channel and streams frames
// until a terminal frame or disconnect. throttle, when set, is applied
// before each frame write (the session service's per-tenant rate limit
// and throughput accounting); a throttle error ends the stream with a
// terminal error frame.
//
// Socket writes are coalesced while the subscriber has backlog: a frame
// goes into the buffered writer and the buffer goes to the socket only
// when nothing more is ready (hello, replay and log drained, queue
// empty), on a terminal frame, when the buffer fills, or before a
// throttle sleeps. A frame is therefore never held across a wait — a
// paced stream, whose queue is empty after every frame, is written frame
// by frame as before — while a saturated one shares one write(2) among
// the frames queued behind it.
func (s *Server) streamTCP(conn net.Conn, channel string, fromSeq uint64, throttle throttleFunc) {
	sub, err := s.hub.Subscribe(channel, fromSeq)
	if err != nil {
		writeConnError(conn, err)
		return
	}
	defer sub.Close()
	bw := bufio.NewWriter(conn)
	for {
		data, terminal, err := sub.Recv()
		if err != nil {
			// Frames still buffered were delivered before the failure.
			if bw.Flush() == nil && errors.Is(err, ErrSlowClient) {
				writeConnError(conn, err)
			}
			return
		}
		if throttle != nil {
			if terr := throttle(len(data), bw.Flush); terr != nil {
				if bw.Flush() == nil {
					writeConnError(conn, terr)
				}
				return
			}
		}
		start := time.Now()
		if err := WriteFrame(bw, data); err != nil {
			return // client went away; pipeline unaffected
		}
		if terminal || !sub.more() {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		s.reg.ObserveStage(obs.StageNetSend, time.Since(start))
		if terminal {
			return
		}
	}
}

// throttleFunc gates one frame of n payload bytes. When it has to sleep
// it calls beforeSleep first (nil = nothing to do), so a coalescing
// writer can hand over what it holds.
type throttleFunc func(n int, beforeSleep func() error) error

// parseFromSeq reads the from_seq query parameter, reporting 400 on a
// malformed value.
func parseFromSeq(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	raw := r.URL.Query().Get("from_seq")
	if raw == "" {
		return 0, true
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		http.Error(w, "bad from_seq", http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// streamHTTP subscribes the request to channel and streams frames as
// NDJSON lines. throttle, when set, is applied before each frame write (per-tenant rate limit and accounting); a throttle
// error terminates the stream with an error frame.
func (s *Server) streamHTTP(w http.ResponseWriter, r *http.Request, channel string, fromSeq uint64, throttle throttleFunc) {
	sub, err := s.hub.Subscribe(channel, fromSeq)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrGap) {
			status = http.StatusGone
		}
		http.Error(w, err.Error(), status)
		return
	}
	defer sub.Close()
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Register the response for force-close: when the session's drain
	// deadline fires with this subscriber wedged mid-write, an immediate
	// write deadline unblocks the handler.
	rc := &httpCloser{rc: http.NewResponseController(w)}
	s.trackConn(rc)
	defer s.untrackConn(rc)
	ctx := r.Context()
	for {
		data, terminal, err := sub.RecvContext(ctx)
		if err != nil {
			if errors.Is(err, ErrSlowClient) {
				s.writeHTTPError(w, flusher, err)
			}
			return
		}
		if len(data) > 0 && data[0] != '{' {
			// The HTTP edge is where a binary payload becomes the JSON a
			// browser reads; JSON payloads (control frames) pass through
			// untouched.
			f, derr := decodeBinary(data)
			if derr == nil {
				data, derr = json.Marshal(f)
			}
			if derr != nil {
				s.writeHTTPError(w, flusher, derr)
				return
			}
		}
		if throttle != nil {
			if terr := throttle(len(data), nil); terr != nil {
				s.writeHTTPError(w, flusher, terr)
				return
			}
		}
		start := time.Now()
		if !s.writeHTTPFrame(w, flusher, data) {
			return
		}
		s.reg.ObserveStage(obs.StageNetSend, time.Since(start))
		if terminal {
			return
		}
	}
}

// errorFrame renders err as a terminal error frame with its typed
// payload attached: replay-gap and quota rejections carry
// machine-readable bounds so the client maps them to typed,
// non-retryable errors.
func errorFrame(err error) *Frame {
	f := &Frame{Type: FrameError, Error: err.Error()}
	var gap *GapError
	if errors.As(err, &gap) {
		f.Gap = &GapInfo{Requested: gap.Requested, ServerMin: gap.ServerMin}
	}
	var quota *QuotaError
	if errors.As(err, &quota) {
		f.Quota = quota.Info()
	}
	return f
}

// httpCloser adapts an HTTP response to the force-close registry: Close
// sets an immediate write deadline, unblocking a handler wedged on an
// unread client.
type httpCloser struct{ rc *http.ResponseController }

func (c *httpCloser) Close() error {
	return c.rc.SetWriteDeadline(time.Now())
}

// writeHTTPError best-effort ends an HTTP stream with err as a terminal
// frame.
func (s *Server) writeHTTPError(w http.ResponseWriter, flusher http.Flusher, err error) {
	if data, merr := EncodeFrame(errorFrame(err)); merr == nil {
		s.writeHTTPFrame(w, flusher, data)
	}
}

// writeHTTPFrame writes one frame as an NDJSON line.
func (s *Server) writeHTTPFrame(w http.ResponseWriter, flusher http.Flusher, data []byte) bool {
	// Two writes, never append: frames replayed from the WAL alias the
	// reader's internal buffer, and appending in place would clobber the
	// next record's length prefix.
	if _, err := w.Write(data); err != nil {
		return false
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return false
	}
	if flusher != nil {
		flusher.Flush()
	}
	return true
}
