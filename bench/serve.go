package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"icewafl/internal/netstream"
	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

const (
	// serveSatTuples and servePacedTuples are the phase sizes at -scale 1.
	serveSatTuples   = 60_000
	servePacedTuples = 20_000
	// servePacedRate is the open-loop rate of the serve workloads' paced
	// phase: a fixed number, at most half of what serve_wal sustains.
	servePacedRate = 10_000
	// serveSubs is the number of loopback subscribers; the box has two
	// cores, so the harness never opens more than two connections.
	serveSubs = 2

	serveTenant, serveSession = "bench", "s"
	serveChannel              = serveTenant + "/" + serveSession + "/" + netstream.ChannelDirty
)

// serveWorkload is serve_mem or serve_wal: an in-process
// netstream.Service hosting one session of cmd/icewafload's pipeline,
// fed from memory and read by loopback TCP subscribers.
type serveWorkload struct {
	e       *env
	durable bool
	cfgJSON string
	in      *loadInput

	refs      map[int]string // reference dirty digest by tuple count
	refTuples []stream.Tuple // the reference dirty stream of the sat phase

	// arm is what the next session's source is built from; the Build
	// hook picks it up because Service.Create gives it only the spec.
	arm       *armed
	reg       *obs.Registry // the running host's registry
	lastBuild time.Duration
}

// armed describes one session's input: how many tuples, on what
// schedule, behind which gate.
type armed struct {
	n    int
	pace *pacer
	gate chan struct{}
	gen  *tracer // traced run: spans around the generator's Next
}

// serveSpec is the opaque session spec the harness's Build hook reads.
type serveSpec struct {
	Config json.RawMessage `json:"config"`
}

// build is the service's Build hook, the counterpart of icewafld's
// sessionBuilder with the harness's generator as the input.
func (w *serveWorkload) build(raw json.RawMessage) (netstream.Config, error) {
	var spec serveSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return netstream.Config{}, err
	}
	doc, proc, took, err := buildProcess(string(spec.Config), loadSchema)
	if err != nil {
		return netstream.Config{}, err
	}
	w.lastBuild = took
	// As icewafld's single-pipeline mode does (proc.Obs = reg): the
	// engine's counters and the checkpoint count land in the registry.
	proc.Obs = w.reg
	ss, err := doc.Serve.Normalize()
	if err != nil {
		return netstream.Config{}, err
	}
	policy, err := netstream.ParsePolicy(ss.Policy)
	if err != nil {
		return netstream.Config{}, err
	}
	a := w.arm
	return netstream.Config{
		Schema: loadSchema,
		Proc:   proc,
		NewSource: func() (stream.Source, error) {
			if a == nil {
				return nil, errors.New("no input armed for this session")
			}
			return w.source(a), nil
		},
		Reorder:         ss.Reorder,
		Buffer:          ss.Buffer,
		Replay:          ss.Replay,
		Policy:          policy,
		CheckpointEvery: ss.CheckpointEvery,
	}, nil
}

// source assembles the generator for one session: memory source, then
// the schedule, then the span wrapper, behind the gate.
func (w *serveWorkload) source(a *armed) stream.Source {
	var src stream.Source = w.in.source(a.n)
	if a.pace != nil {
		src = paced(src, a.pace)
	}
	if a.gen != nil {
		src = tracedEvery(src, a.gen, "gen.next", traceBatch)
	}
	return &gatedSource{inner: src, gate: a.gate}
}

// host is one running service with its loopback listener.
type host struct {
	svc    *netstream.Service
	reg    *obs.Registry
	addr   string
	cancel context.CancelFunc
	done   chan error
}

// startHost brings a service up the way icewafld -sessions does:
// NewService, Recover when there is a state dir to recover from, then
// the listener.
func (w *serveWorkload) startHost(stateDir string, recover bool) (*host, time.Duration, error) {
	h := &host{reg: obs.NewRegistry(), done: make(chan error, 1)}
	w.reg = h.reg
	var err error
	h.svc, err = netstream.NewService(netstream.ServiceConfig{
		Build:        w.build,
		Reg:          h.reg,
		StateDir:     stateDir,
		DrainTimeout: 2 * time.Second,
	})
	if err != nil {
		return nil, 0, err
	}
	var scan time.Duration
	if recover {
		start := time.Now()
		ids, err := h.svc.Recover()
		scan = time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		if len(ids) != 1 {
			return nil, 0, fmt.Errorf("recovered %d sessions, want 1", len(ids))
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	h.addr = ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	go func() { h.done <- h.svc.Serve(ctx, ln, nil) }()
	return h, scan, nil
}

// stop shuts the service down and waits for it; sessions keep their
// durable state.
func (h *host) stop() error {
	h.cancel()
	return <-h.done
}

// subResult is what one subscriber received.
type subResult struct {
	tuples []stream.Tuple
	pickup []int64 // ns since the gate opened, by tuple id - 1
	err    error
}

// drain reads cs to its end, stamping each tuple's pickup time.
func drain(cs *netstream.ClientSource, t0 time.Time, want int) *subResult {
	r := &subResult{tuples: make([]stream.Tuple, 0, want), pickup: make([]int64, want)}
	for {
		t, err := cs.Next()
		if err == io.EOF {
			return r
		}
		if err != nil {
			r.err = err
			cs.Stop()
			return r
		}
		if i := int(t.ID) - 1; i >= 0 && i < want {
			r.pickup[i] = int64(time.Since(t0))
		}
		r.tuples = append(r.tuples, t)
	}
}

// serveCycle is one cold cycle of a serve workload.
type serveCycle struct {
	setup, build, create, del, run time.Duration
	mem0, mem1                     memSnap
	subs                           []*subResult
	pace                           *pacer

	frames, framesSent, wireBytes                uint64
	netSend, deliver                             obs.HistSnapshot
	checkpoints, tuplesIn, tuplesOut, logEntries uint64
	walBytes, walFsyncs                          uint64
	walSegments                                  int
}

// stream runs one session to its end on a fresh service: set-up
// (service, session, subscribers' hello), gate open, every subscriber
// drained. rate 0 is the closed-loop saturation phase. The service is
// returned still running so the caller decides between delete and
// restart.
func (w *serveWorkload) stream(n int, rate float64, subs int, tr *tracer) (*serveCycle, *host, error) {
	c := &serveCycle{}
	a := &armed{n: n, gate: make(chan struct{})}
	if rate > 0 {
		a.pace = newPacer(rate, n)
		c.pace = a.pace
	}
	root := -1
	if tr != nil {
		root = tr.begin("cycle", -1, -1)
		a.gen = &tracer{t0: tr.t0}
	}
	w.arm = a
	stateDir := ""
	if w.durable {
		stateDir = filepath.Join(w.e.dir, "state")
	}
	runtime.GC()
	c.mem0 = readMem()

	setupStart := time.Now()
	h, _, err := w.startHost(stateDir, false)
	if err != nil {
		return nil, nil, err
	}
	spec, err := json.Marshal(serveSpec{Config: json.RawMessage(w.cfgJSON)})
	if err != nil {
		return nil, nil, err
	}
	createStart := time.Now()
	sess, err := h.svc.Create(netstream.SessionRequest{Tenant: serveTenant, Name: serveSession, Spec: spec})
	if err != nil {
		h.stop()
		return nil, nil, err
	}
	c.create, c.build = time.Since(createStart), w.lastBuild
	clients := make([]*netstream.ClientSource, subs)
	for i := range clients {
		if clients[i], err = netstream.Dial(h.addr, serveChannel); err != nil {
			close(a.gate)
			h.stop()
			return nil, nil, err
		}
	}
	c.setup = time.Since(setupStart)
	if tr != nil {
		tr.add(tr.begin("setup", root, -1), setupStart, time.Now())
	}

	c.subs = make([]*subResult, subs)
	var wg sync.WaitGroup
	runStart := time.Now()
	if a.pace != nil {
		a.pace.t0 = runStart
	}
	for i, cs := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.subs[i] = drain(cs, runStart, n)
		}()
	}
	close(a.gate)
	wg.Wait()
	c.run = time.Since(runStart)
	c.mem1 = readMem()
	<-sess.Server().PipelineDone()
	if tr != nil {
		tr.add(tr.begin("stream", root, -1), runStart, runStart.Add(c.run))
		tr.merge(a.gen, len(tr.spans)-1)
		tr.add(root, setupStart, time.Now())
	}

	hub := sess.Server().Hub()
	c.framesSent = hub.FramesSent()
	for _, ch := range netstream.Channels() {
		full := serveTenant + "/" + serveSession + "/" + ch
		c.frames += hub.Seq(full)
		if wal := hub.WAL(full); wal != nil {
			c.walBytes += uint64(wal.SizeBytes())
			c.walFsyncs += wal.Fsyncs()
			c.walSegments += wal.Segments()
		}
	}
	frames, bytes, _ := h.reg.TenantCounts()
	// The tenant family counts payload bytes; each frame also carries
	// its 4-byte length prefix on the socket.
	c.wireBytes = bytes[serveTenant] + 4*frames[serveTenant]
	c.netSend, c.deliver = h.reg.Histogram(obs.StageNetSend), h.reg.Histogram(obs.StageDeliver)
	c.checkpoints = h.reg.Counter(obs.CCheckpointWrites)
	c.tuplesIn, c.tuplesOut = h.reg.Counter(obs.CTuplesIn), h.reg.Counter(obs.CTuplesOut)
	c.logEntries = h.reg.Counter(obs.CLogEntries)
	return c, h, nil
}

// remove deletes the session and stops the service.
func (w *serveWorkload) remove(h *host, c *serveCycle) error {
	start := time.Now()
	w.e.res.ops(1)
	if err := h.svc.Delete(serveTenant, serveSession); err != nil {
		w.e.res.failf(1, "delete: %v", err)
	}
	if c != nil {
		c.del = time.Since(start)
	}
	return h.stop()
}

// comeBack restarts the service after h has streamed a session and
// times how long until a subscriber starting at sequence 1 has the
// whole stream again: WAL replay through Service.Recover for serve_wal,
// a full re-run of a re-created session for serve_mem.
func (w *serveWorkload) comeBack(h *host, n int) (total, scan, replay time.Duration, err error) {
	if err := h.stop(); err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	var cs *netstream.ClientSource
	var sub *subResult
	var h2 *host
	if w.durable {
		if h2, scan, err = w.startHost(filepath.Join(w.e.dir, "state"), true); err != nil {
			return 0, 0, 0, err
		}
		if cs, err = netstream.DialFrom(h2.addr, serveChannel, 1, 10*time.Second); err != nil {
			h2.stop()
			return 0, 0, 0, err
		}
		replayStart := time.Now()
		sub = drain(cs, replayStart, n)
		replay = time.Since(replayStart)
	} else {
		var c *serveCycle
		if c, h2, err = w.stream(n, 0, 1, nil); err != nil {
			return 0, 0, 0, err
		}
		sub, replay = c.subs[0], c.run
	}
	total = time.Since(start)
	w.e.res.ops(1) // the restart itself
	w.verify(sub, n)
	return total, scan, replay, w.remove(h2, nil)
}

// verify checks one subscriber's stream against the direct run: every
// expected tuple is one attempted operation; a transport error, a
// missing or extra tuple, or a digest mismatch fails the whole stream.
func (w *serveWorkload) verify(sub *subResult, n int) {
	res := w.e.res
	res.ops(int64(n))
	d := newTupleDigest()
	for _, t := range sub.tuples {
		d.add(t)
	}
	var gap *netstream.GapError
	switch {
	case errors.As(sub.err, &gap):
		res.failf(int64(n), "subscriber hit a replay gap: %v", sub.err)
	case sub.err != nil:
		res.failf(int64(n), "subscriber: %v", sub.err)
	case len(sub.tuples) != n:
		res.failf(int64(n), "subscriber received %d tuples, want %d", len(sub.tuples), n)
	case d.hex() != w.refs[n]:
		res.failf(int64(n), "served digest %s, direct run %s", d.hex(), w.refs[n])
	}
}

// direct is the in-process reference: the same pipeline and seed over
// the same generated tuples through RunStream, no service and no wire.
// With keep it returns the dirty stream and records its digest, which
// every served stream must equal. Without, it only times the run — the
// baseline of the serve workloads' overhead_ratio — and retains nothing,
// so that whether a GC cycle lands inside so short a run does not depend
// on the heap the capture would leave behind.
func (w *serveWorkload) direct(n int, keep bool) ([]stream.Tuple, time.Duration, error) {
	_, proc, _, err := buildProcess(w.cfgJSON, loadSchema)
	if err != nil {
		return nil, 0, err
	}
	var out []stream.Tuple
	if keep {
		out = make([]stream.Tuple, 0, n)
	}
	runtime.GC()
	start := time.Now()
	dirty, _, err := proc.RunStream(w.in.source(n), 1)
	if err != nil {
		return nil, 0, err
	}
	emitted := 0
	for {
		t, err := dirty.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		emitted++
		if keep {
			out = append(out, t)
		}
	}
	took := time.Since(start)
	if emitted != n {
		return nil, 0, fmt.Errorf("direct run emitted %d of %d tuples; the pipeline must not drop", emitted, n)
	}
	if keep {
		d := newTupleDigest()
		for _, t := range out {
			d.add(t)
		}
		w.refs[n] = d.hex()
	}
	return out, took, nil
}

func runServe(e *env, durable bool) error {
	nSat, nPaced := e.scaled(serveSatTuples), e.scaled(servePacedTuples)
	w := &serveWorkload{e: e, durable: durable, cfgJSON: fmt.Sprintf(loadConfig, e.seed), refs: map[int]string{}}
	res := e.res

	genStart := time.Now()
	w.in = genLoad(e.seed, max(nSat, nPaced))
	res.add("gen.input_s", time.Since(genStart).Seconds())
	var err error
	if _, _, err = w.direct(nPaced, true); err != nil {
		return err
	}
	if w.refTuples, _, err = w.direct(nSat, true); err != nil {
		return err
	}
	n := float64(nSat)
	var satRuns, backRuns, tracedRuns []float64
	directRun := math.Inf(1)
	var last *serveCycle
	record := func(c *serveCycle, nTuples int) {
		e.noteMem(c.mem0, c.mem1)
		res.ops(1) // create
		for _, sub := range c.subs {
			w.verify(sub, nTuples)
		}
		res.add("setup_s", c.setup.Seconds())
		res.add("config.build_ms", ms(c.build))
		res.add("session.create_ms", ms(c.create))
	}
	e.start = time.Now()
	for round := 0; !e.done(round); round++ {
		c, h, err := w.stream(nSat, 0, serveSubs, nil)
		if err != nil {
			return err
		}
		record(c, nSat)
		last = c
		satRuns = append(satRuns, c.run.Seconds())
		res.add("tuples_per_s", n/c.run.Seconds())
		res.add("wire_bytes_per_tuple", float64(c.wireBytes)/(n*serveSubs))
		res.add("alloc_bytes_per_tuple", float64(c.mem1.totalAlloc-c.mem0.totalAlloc)/n)

		total, scan, replay, err := w.comeBack(h, nSat)
		if err != nil {
			return err
		}
		backRuns = append(backRuns, total.Seconds())
		// The baseline of overhead_ratio is taken right after the served
		// run it is compared with, in the same warm process, so that slow
		// drift cancels in the ratio. A direct run is short (tens of ms):
		// the best of five stands for it.
		direct := math.Inf(1)
		for i := 0; i < 5; i++ {
			_, took, err := w.direct(nSat, false)
			if err != nil {
				return err
			}
			direct = min(direct, took.Seconds())
		}
		directRun = min(directRun, direct)
		res.add("overhead_ratio", c.run.Seconds()/direct)
		res.add("recover_s", total.Seconds())
		res.add("session.replay_tuples_per_s", n/replay.Seconds())
		if durable {
			res.add("session.recover_scan_ms", ms(scan))
		}

		if round < e.reps {
			pc, ph, err := w.stream(nPaced, servePacedRate, serveSubs, nil)
			if err != nil {
				return err
			}
			record(pc, nPaced)
			if err := w.remove(ph, pc); err != nil {
				return err
			}
			res.add("session.delete_ms", ms(pc.del))
			pickups := make([][]int64, len(pc.subs))
			for i, sub := range pc.subs {
				pickups[i] = sub.pickup
			}
			recordPaced(res, pc.pace, pickups...)
		}
		if !e.traced {
			continue
		}

		tr := newTracer()
		tc, th, err := w.stream(nSat, 0, serveSubs, tr)
		if err != nil {
			return err
		}
		record(tc, nSat)
		if err := w.remove(th, tc); err != nil {
			return err
		}
		tracedRuns = append(tracedRuns, tc.run.Seconds())
		if err := tr.flush(filepath.Join(e.outDir, "trace-"+res.Workload+".json")); err != nil {
			return err
		}
	}
	satRun := slices.Min(satRuns)
	res.best("tuples_per_s", n/satRun)
	res.best("recover_s", slices.Min(backRuns))
	if !e.traced {
		return nil
	}

	tracedRun := slices.Min(tracedRuns)
	res.add("trace.overhead_ratio", satRun/tracedRun)
	e.recordRuntime()
	res.add("hub.frames_sent", float64(last.framesSent))
	res.add("server.net_send_mean_ns", float64(last.netSend.SumNs)/float64(max(last.netSend.Count, 1)))
	res.add("server.deliver_mean_ns", float64(last.deliver.SumNs)/float64(max(last.deliver.Count, 1)))
	res.add("core.tuples_in", float64(last.tuplesIn))
	res.add("core.tuples_out", float64(last.tuplesOut))
	res.add("core.log_entries_per_tuple", float64(last.logEntries)/n)
	if durable {
		res.add("wal.bytes_per_tuple", float64(last.walBytes)/n)
		res.add("wal.fsyncs_per_ktuple", float64(last.walFsyncs)/n*1000)
		res.add("wal.segments", float64(last.walSegments))
		res.add("session.checkpoint_writes", float64(last.checkpoints))
	}

	b, err := runBudget(w.refTuples[:min(len(w.refTuples), budgetTuples)], durable, e.dir)
	if err != nil {
		return err
	}
	b.record(res)

	framesPerTuple := float64(last.frames) / n
	// The generator alone, untraced, so that the direct run minus it is
	// the core layer's own time.
	gen := math.Inf(1)
	for i := 0; i < 3; i++ {
		start, src := time.Now(), w.in.source(nSat)
		for {
			if _, err := src.Next(); err != nil {
				break
			}
		}
		gen = min(gen, float64(time.Since(start))/n)
	}
	e2e := tracedRun * 1e9 / n
	rows := []layerRow{
		{"gen", gen, -1, -1},
		{"core (direct run - gen)", directRun*1e9/n - gen, -1, -1},
		{"wire encode x frames/tuple", b.encodeNs() * framesPerTuple, b.frameBytes * framesPerTuple, b.encodeAllocs * framesPerTuple},
	}
	if durable {
		rows = append(rows, layerRow{"wal append x frames/tuple", b.walAppendNs * framesPerTuple, float64(last.walBytes) / n, -1})
	}
	rows = append(rows,
		layerRow{"hub (publish+recv - marshal)", b.hub2Ns - b.marshalNs, -1, -1},
		layerRow{"server send x subscribers", b.loopbackNs * serveSubs, b.frameBytes * serveSubs, -1},
		layerRow{"client decode x subscribers", b.decodeNs * serveSubs, -1, b.decodeAllocs * serveSubs},
	)
	cpu := 0.0
	for _, r := range rows {
		cpu += r.ns
	}
	res.add("budget.coverage_ratio", cpu/e2e)
	printLayerTable(e.log, res.Workload, rows, e2e)
	return nil
}
