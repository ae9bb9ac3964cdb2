package netstream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

// Policy selects how the hub reacts when a subscriber's bounded send
// buffer is full — the backpressure contract of the service.
type Policy int

const (
	// PolicyBlock stalls the publisher until the slow subscriber drains
	// (lossless; one slow client throttles the pipeline and therefore
	// every other client).
	PolicyBlock Policy = iota
	// PolicyDropOldest evicts the subscriber's oldest queued frame to
	// make room (lossy for the slow client only; the pipeline and fast
	// clients are unaffected; drops are counted per client).
	PolicyDropOldest
	// PolicyDisconnectSlow closes the slow subscriber's subscription
	// (the client may reconnect and resume from its last sequence
	// number via the replay ring).
	PolicyDisconnectSlow
)

// ParsePolicy parses the configuration spelling of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "block":
		return PolicyBlock, nil
	case "drop-oldest":
		return PolicyDropOldest, nil
	case "disconnect-slow":
		return PolicyDisconnectSlow, nil
	}
	return 0, fmt.Errorf("netstream: unknown backpressure policy %q (want block, drop-oldest or disconnect-slow)", s)
}

// String returns the configuration spelling.
func (p Policy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyDropOldest:
		return "drop-oldest"
	case PolicyDisconnectSlow:
		return "disconnect-slow"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ErrSlowClient terminates a subscription under PolicyDisconnectSlow.
var ErrSlowClient = errors.New("netstream: subscriber too slow, disconnected by backpressure policy")

// ErrGap reports that a subscription's from_seq is no longer retained in
// the replay ring — the client reconnected too late to resume without
// loss.
var ErrGap = errors.New("netstream: requested sequence no longer retained (replay gap)")

// GapError is the typed form of ErrGap: the requested resume point fell
// behind the server's retention. Re-dialing the same from_seq can never
// succeed, so ClientSource returns it at once instead of reconnecting.
type GapError struct {
	// Channel is the subscribed channel.
	Channel string
	// Requested is the from_seq the subscriber asked for.
	Requested uint64
	// LastAcked is the last sequence the subscriber had received
	// (Requested-1; 0 when it had received nothing).
	LastAcked uint64
	// ServerMin is the oldest sequence the server still retains (0 when
	// it retains nothing).
	ServerMin uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("netstream: channel %q retains from seq %d, requested %d (replay gap)", e.Channel, e.ServerMin, e.Requested)
}

// Unwrap makes errors.Is(err, ErrGap) hold.
func (e *GapError) Unwrap() error { return ErrGap }

// ErrHubClosed reports that the hub shut down (graceful drain finished).
var ErrHubClosed = errors.New("netstream: hub closed")

// ErrUnknownChannel reports an operation on a channel the hub does not
// carry — in the session service this is also the prompt answer for a
// subscribe addressed at a deleted or never-created session.
var ErrUnknownChannel = errors.New("netstream: unknown channel")

// UnknownChannelError is the typed form of ErrUnknownChannel. The hub's
// channel set is fixed at construction, so retrying the same name can
// never succeed.
type UnknownChannelError struct {
	// Channel is the requested channel name.
	Channel string
}

func (e *UnknownChannelError) Error() string {
	return fmt.Sprintf("netstream: unknown channel %q", e.Channel)
}

// Unwrap makes errors.Is(err, ErrUnknownChannel) hold.
func (e *UnknownChannelError) Unwrap() error { return ErrUnknownChannel }

// savedFrame is one published, already-encoded frame, as the replay
// ring holds it: its seq is its position in the ring, and only the
// newest frame of a done channel is terminal.
type savedFrame struct {
	data []byte
	// at is the publish time in nanoseconds since the hub's epoch, stamped
	// only when the hub tracks delivery latency (every session's hub
	// does); 0 when unstamped.
	at int64
}

// delivery is a frame queued to one subscriber.
type delivery struct {
	savedFrame
	terminal bool
}

// ringBlock is the number of frames in one block of a replay ring: 255 ×
// 32 B and the allocator's 8-byte header for an object with pointers fill
// the 8 KiB size class (256 entries would round up to 9 472 B).
const ringBlock = 255

// frameRing is a memory-only channel's replay ring: the newest frames,
// oldest first, in fixed-size blocks. Eviction zeroes the oldest entry,
// releasing its payload, and a block whose entries are all evicted moves
// to the end for the next entries, so a full ring allocates nothing.
type frameRing struct {
	blocks  [][]savedFrame
	head, n int    // blocks[0][head] is the oldest of the n entries held
	first   uint64 // the oldest entry's seq; the i-th oldest has first+i
}

// at returns the i-th oldest entry.
func (r *frameRing) at(i int) *savedFrame {
	p := r.head + i
	return &r.blocks[p/ringBlock][p%ringBlock]
}

// push appends sf as frame seq, which follows the newest entry, first
// evicting the oldest entry when limit are held.
func (r *frameRing) push(seq uint64, sf savedFrame, limit int) {
	if r.n == 0 {
		r.first = seq
	}
	if r.n == limit {
		*r.at(0) = savedFrame{}
		r.head, r.n, r.first = r.head+1, r.n-1, r.first+1
		if r.head == ringBlock {
			b := r.blocks[0]
			r.blocks = append(r.blocks[:copy(r.blocks, r.blocks[1:])], b)
			r.head = 0
		}
	}
	if (r.head+r.n)/ringBlock == len(r.blocks) {
		r.blocks = append(r.blocks, make([]savedFrame, ringBlock))
	}
	*r.at(r.n) = sf
	r.n++
}

// since returns the entries from seq start (at least first) on, as
// deliveries: the newest is terminal when the channel is done.
func (r *frameRing) since(start uint64, done bool) []delivery {
	i := int(min(start-r.first, uint64(r.n)))
	out := make([]delivery, r.n-i)
	for j := range out {
		out[j].savedFrame = *r.at(i + j)
	}
	if done && len(out) > 0 {
		out[len(out)-1].terminal = true
	}
	return out
}

// channel is one named broadcast stream inside the hub.
type channel struct {
	name string
	seq  uint64
	// ring retains the newest Hub.replay frames of a memory-only channel,
	// oldest first. A durable hub keeps no ring: the log is its one replay
	// path.
	ring frameRing
	// hello is the channel's opening frame, replayed to every new
	// subscriber (it is not part of the sequence space).
	hello []byte
	// subs is the live subscriber set as a copy-on-write snapshot: it is
	// replaced, never edited, on subscribe and unsubscribe, so Publish
	// hands it to the delivery loop without copying it per frame.
	subs []*Subscriber
	// scratch is the encode buffer the channel's frames are built in
	// before the exact-size copy that is retained and queued.
	scratch []byte
	// done is set once a terminal frame was published.
	done bool
	// recoverMax is the recovery suppression boundary: while seq <=
	// recoverMax, the deterministic re-run is regenerating frames that
	// were already durably published before a restart, so Publish assigns
	// the sequence number but neither persists nor delivers the frame.
	recoverMax uint64
}

// Hub fans published frames out to per-channel subscribers with bounded
// buffers and a configurable backpressure policy. Publishing is safe
// from one goroutine per channel; subscribing and unsubscribing are safe
// from any goroutine.
type Hub struct {
	mu       sync.Mutex
	channels map[string]*channel
	buffer   int
	replay   int
	policy   Policy
	closed   bool
	// trackDelivery stamps published frames with the publish time and
	// observes publish→Recv pickup into StageDeliver (the service's
	// p50/p99 source). Every session's hub sets it; a bare hub leaves it
	// off and never reads the clock per frame.
	trackDelivery bool
	// epoch is the monotonic origin of the frames' publish stamps.
	epoch time.Time
	// perSubGauges registers per-subscriber queue-depth/dropped gauges
	// on the registry (the unnamed session). Named session hubs leave it
	// off: thousands of subscribers would swamp /metrics.
	perSubGauges bool
	// wal, when attached, is the session log: it persists every channel's
	// frames (error frames are live-delivery only) and serves every replay.
	wal *WAL

	nextSubID atomic.Uint64

	// Aggregate counters, exported as obs gauges.
	framesSent      atomic.Uint64
	framesDropped   atomic.Uint64
	slowDisconnects atomic.Uint64
	subscribers     atomic.Int64
	recovered       atomic.Uint64

	reg *obs.Registry
}

// registerGauges turns on per-subscriber gauges and registers the hub's
// own counters under fixed names — so at most one hub per registry may
// call it: the unnamed session's, whose service already aggregates
// subscribers and frames sent across every session. A durable hub calls
// it after attaching its log.
func (h *Hub) registerGauges() {
	h.perSubGauges = true
	h.reg.RegisterFunc("net_frames_dropped_total", h.framesDropped.Load)
	h.reg.RegisterFunc("net_slow_disconnects_total", h.slowDisconnects.Load)
	h.reg.RegisterFunc("net_recovery_frames_replayed_total", h.recovered.Load)
	fsyncs, appends := func() uint64 { return 0 }, func() uint64 { return 0 }
	if h.wal != nil {
		fsyncs, appends = h.wal.Fsyncs, h.wal.Appends
	}
	h.reg.RegisterFunc("net_wal_fsyncs_total", fsyncs)
	h.reg.RegisterFunc("net_wal_appends_total", appends)
}

// NewHubNamed builds a hub carrying exactly the given channels (the
// session service namespaces them as <tenant>/<session>/<channel>).
// buffer is the per-subscriber queue capacity (64 when below 1), replay
// the number of frames a memory-only channel retains for late
// subscribers and reconnects (minimum buffer). It registers no gauges on
// reg: session hubs share one registry per daemon process, so a second
// hub would clobber the first's registrations — the service layer
// aggregates across hubs under per-tenant families instead.
func NewHubNamed(channelNames []string, buffer, replay int, policy Policy, reg *obs.Registry) *Hub {
	if buffer < 1 {
		buffer = 64
	}
	if replay < buffer {
		replay = buffer
	}
	h := &Hub{
		channels: make(map[string]*channel),
		buffer:   buffer,
		replay:   replay,
		policy:   policy,
		reg:      reg,
		epoch:    time.Now(),
	}
	for _, name := range channelNames {
		h.channels[name] = &channel{name: name}
	}
	return h
}

// FramesSent returns how many frames the hub queued to subscribers.
func (h *Hub) FramesSent() uint64 { return h.framesSent.Load() }

// SubscriberCount returns the number of open subscriptions.
func (h *Hub) SubscriberCount() int64 { return h.subscribers.Load() }

// Recovered returns how many regenerated frames the recovery suppression
// boundary absorbed (frames already durable before a restart).
func (h *Hub) Recovered() uint64 { return h.recovered.Load() }

// attachLog makes the session log w every channel's one replay path and
// advances each channel to its newest frame there (done if terminal).
// Attach before publishing anything.
func (h *Hub) attachLog(w *WAL) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.wal = w
	for name, ch := range h.channels {
		r := w.Channel(name)
		ch.seq, ch.done = r.Max, r.Terminal
	}
}

// WAL returns the session log, the same for every channel the hub
// carries (nil when memory-only or the channel is unknown).
func (h *Hub) WAL(channelName string) *WAL {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.channels[channelName]; ok {
		return h.wal
	}
	return nil
}

// BeginRecovery rewinds the named channel's publish cursor to a
// checkpoint's frame count and arms the suppression boundary at the
// current maximum: the deterministic re-run between cursor and the
// boundary regenerates frames that are already durable, so Publish
// consumes their sequence numbers silently — subscribers never see a
// duplicate, and the first genuinely new frame continues the sequence
// with no gap.
func (h *Hub) BeginRecovery(channelName string, cursor uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, ok := h.channels[channelName]
	if !ok {
		return &UnknownChannelError{Channel: channelName}
	}
	if cursor > ch.seq {
		return fmt.Errorf("netstream: channel %q recovery cursor %d ahead of durable seq %d", channelName, cursor, ch.seq)
	}
	ch.recoverMax = ch.seq
	ch.seq = cursor
	return nil
}

// SetHello stores the channel's opening frame, delivered to every new
// subscriber before any data frame.
func (h *Hub) SetHello(channelName string, f *Frame) error {
	data, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, ok := h.channels[channelName]
	if !ok {
		return &UnknownChannelError{Channel: channelName}
	}
	ch.hello = data
	return nil
}

// Publish broadcasts f on the named channel, assigning the next sequence
// number. Terminal frames (eof/error) are retained like data frames, so
// late subscribers observe the stream's end. The call applies the hub's
// backpressure policy per subscriber.
func (h *Hub) Publish(channelName string, f *Frame) error {
	return h.publish(channelName, f.Type, func(dst []byte, seq uint64) ([]byte, error) {
		f.Seq, f.Channel = seq, channelName
		return appendFrame(dst, f)
	})
}

// PublishTuple is Publish of a tuple frame encoded straight from t.
func (h *Hub) PublishTuple(channelName string, t stream.Tuple) error {
	return h.publish(channelName, FrameTuple, func(dst []byte, seq uint64) ([]byte, error) {
		return appendTuple(dst, seq, channelName, &t), nil
	})
}

// PublishEntry is Publish of a log frame encoded straight from e.
func (h *Hub) PublishEntry(channelName string, e *core.Entry) error {
	return h.publish(channelName, FrameLog, func(dst []byte, seq uint64) ([]byte, error) {
		return appendEntry(dst, seq, channelName, e), nil
	})
}

// publish is the one publish path: encode appends the frame's payload
// for the sequence number it is given (0 for a live-only error frame).
func (h *Hub) publish(channelName, typ string, encode func(dst []byte, seq uint64) ([]byte, error)) error {
	terminal := typ == FrameEOF || typ == FrameError
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrHubClosed
	}
	ch, ok := h.channels[channelName]
	if !ok {
		h.mu.Unlock()
		return &UnknownChannelError{Channel: channelName}
	}
	if typ == FrameError && h.wal != nil {
		// A durable session failed. The error is not part of the durable
		// stream, so it takes no sequence number, is never persisted, and
		// does not mark the channel done — connected subscribers learn the
		// session failed, while the log stays resumable for the next
		// daemon start.
		data, err := encode(nil, 0)
		subs := ch.subs
		h.mu.Unlock()
		if err != nil {
			return err
		}
		for _, s := range subs {
			h.deliver(s, delivery{savedFrame{data: data}, true})
		}
		return nil
	}
	if ch.seq < ch.recoverMax {
		// Recovery suppression: this frame was durably published before a
		// restart; the deterministic re-run regenerates it byte-identically,
		// so consume its sequence number without persisting or delivering.
		// Checked before the done guard so a channel whose terminal frame
		// was already durable replays cleanly.
		ch.seq++
		h.recovered.Add(1)
		h.mu.Unlock()
		return nil
	}
	if ch.done {
		h.mu.Unlock()
		return fmt.Errorf("netstream: channel %q already terminated", channelName)
	}
	ch.seq++
	scratch, err := encode(ch.scratch[:0], ch.seq)
	if err != nil {
		ch.seq--
		h.mu.Unlock()
		return err
	}
	ch.scratch = scratch
	// The one allocation a frame costs once the ring is full: the
	// exact-size payload the ring, the WAL append and every subscriber
	// queue share.
	data := append([]byte(nil), scratch...)
	if terminal {
		ch.done = true
	}
	if h.wal != nil {
		// Only eof is durably terminal (error frames are live-only, above).
		// The eof that finishes the last channel fsyncs all three.
		t0 := time.Now()
		werr := h.wal.AppendFrame(channelName, ch.seq, terminal, terminal && h.allDoneLocked(), data)
		h.reg.ObserveStage(obs.StageWALAppend, time.Since(t0))
		if werr != nil {
			// The log is stopped: the run fails, and a reopen resumes it.
			h.mu.Unlock()
			return fmt.Errorf("netstream: durable publish on %q: %w", channelName, werr)
		}
	}
	d := delivery{savedFrame{data: data}, terminal}
	if h.trackDelivery {
		d.at = max(int64(time.Since(h.epoch)), 1)
	}
	if h.wal == nil {
		ch.ring.push(ch.seq, d.savedFrame, h.replay)
	}
	subs := ch.subs
	h.mu.Unlock()

	for _, s := range subs {
		h.deliver(s, d)
	}
	return nil
}

// allDoneLocked reports whether every channel is done.
func (h *Hub) allDoneLocked() bool {
	for _, ch := range h.channels {
		if !ch.done {
			return false
		}
	}
	return true
}

// deliver hands one frame to one subscriber under the backpressure
// policy.
func (h *Hub) deliver(s *Subscriber, d delivery) {
	switch h.policy {
	case PolicyBlock:
		select {
		case s.ch <- d: // room in the queue needs no multi-way wait
			h.framesSent.Add(1)
			return
		default:
		}
		select {
		case s.ch <- d:
			h.framesSent.Add(1)
		case <-s.closed:
		}
	case PolicyDropOldest:
		for {
			select {
			case s.ch <- d:
				h.framesSent.Add(1)
				return
			case <-s.closed:
				return
			default:
			}
			select {
			case <-s.ch:
				s.droppedN.Add(1)
				h.framesDropped.Add(1)
			default:
			}
		}
	case PolicyDisconnectSlow:
		select {
		case s.ch <- d:
			h.framesSent.Add(1)
		case <-s.closed:
		default:
			h.slowDisconnects.Add(1)
			s.fail(ErrSlowClient)
			h.unsubscribe(s)
		}
	}
}

// Subscriber is one client's bounded subscription to a channel.
type Subscriber struct {
	id        uint64
	hub       *Hub
	channel   string
	ch        chan delivery
	closed    chan struct{}
	once      sync.Once
	closeOnce sync.Once
	err       atomic.Value // error

	// Locally-buffered frames, delivered in order before any live frame:
	// the hello, then the channel's replay from the resume point — the
	// durable log (walIter) or the ring snapshot (replay), never both. All
	// are consumed by the single Recv goroutine.
	hello   []byte
	walIter *WALReader
	replay  []delivery
	// replayN mirrors len(replay) for the queue-depth gauge, which runs
	// on the snapshot goroutine while the Recv goroutine pops replay.
	replayN atomic.Int64

	droppedN atomic.Uint64
}

// Subscribe registers a subscriber on the named channel, resuming at
// fromSeq (0 = from the beginning). The returned subscriber already
// holds every retained frame with seq >= fromSeq; frames published after
// the call are queued into its bounded buffer under the hub's policy.
// Subscribe fails with ErrGap when fromSeq (or the beginning) is no
// longer retained.
func (h *Hub) Subscribe(channelName string, fromSeq uint64) (*Subscriber, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrHubClosed
	}
	ch, ok := h.channels[channelName]
	if !ok {
		return nil, &UnknownChannelError{Channel: channelName}
	}
	start := fromSeq
	if start == 0 {
		start = 1
	}
	lastAcked := uint64(0)
	if fromSeq > 0 {
		lastAcked = fromSeq - 1
	}
	var walIter *WALReader
	var replay []delivery
	if h.wal != nil {
		// Durable replay: the log holds every frame published so far (the
		// append happens under h.mu, before delivery), so the reader covers
		// [start, the channel's max] and live delivery everything after.
		if r := h.wal.Channel(channelName); r.Max >= start {
			if r.Min > start {
				return nil, &GapError{Channel: channelName, Requested: start, LastAcked: lastAcked, ServerMin: r.Min}
			}
			iter, err := h.wal.ReadChannel(channelName, start)
			if err != nil {
				return nil, err
			}
			walIter = iter
		}
	} else {
		if ch.ring.n > 0 && ch.ring.first > start {
			return nil, &GapError{Channel: channelName, Requested: start, LastAcked: lastAcked, ServerMin: ch.ring.first}
		}
		if ch.ring.n == 0 && ch.seq >= start {
			return nil, &GapError{Channel: channelName, Requested: start, LastAcked: lastAcked}
		}
		replay = ch.ring.since(start, ch.done)
	}
	s := &Subscriber{
		id:      h.nextSubID.Add(1),
		hub:     h,
		channel: channelName,
		ch:      make(chan delivery, h.buffer),
		closed:  make(chan struct{}),
		hello:   ch.hello,
		walIter: walIter,
		replay:  replay,
	}
	s.replayN.Store(int64(len(s.replay)))
	if !ch.done {
		ch.subs = append(slices.Clip(ch.subs), s)
	}
	h.subscribers.Add(1)
	if h.perSubGauges {
		// The gauge closure runs on the snapshot goroutine while the Recv
		// goroutine consumes the replay backlog, so it reads the atomic
		// replayN mirror, never the replay slice header itself.
		h.reg.RegisterFunc(s.queueGaugeName(), func() uint64 {
			return uint64(len(s.ch)) + uint64(s.replayN.Load())
		})
		h.reg.RegisterFunc(s.droppedGaugeName(), s.droppedN.Load)
	}
	return s, nil
}

// unsubscribe removes s from its channel's live set.
func (h *Hub) unsubscribe(s *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ch, ok := h.channels[s.channel]; ok {
		if i := slices.Index(ch.subs, s); i >= 0 {
			ch.subs = slices.Delete(slices.Clone(ch.subs), i, i+1)
		}
	}
}

// ID returns the subscriber's hub-unique identifier.
func (s *Subscriber) ID() uint64 { return s.id }

func (s *Subscriber) queueGaugeName() string {
	return fmt.Sprintf("net_queue_depth_client_%d", s.id)
}

func (s *Subscriber) droppedGaugeName() string {
	return fmt.Sprintf("net_dropped_client_%d", s.id)
}

// Dropped returns how many frames the backpressure policy evicted from
// this subscriber's queue.
func (s *Subscriber) Dropped() uint64 { return s.droppedN.Load() }

// fail records the terminal error and stops deliveries.
func (s *Subscriber) fail(err error) {
	s.once.Do(func() {
		s.err.Store(err)
		close(s.closed)
	})
}

// Close detaches the subscriber (idempotent). Queued frames already
// buffered remain readable via Recv until drained.
func (s *Subscriber) Close() {
	s.fail(ErrHubClosed)
	s.closeOnce.Do(func() {
		// Close is issued by the Recv goroutine (the subscription owner),
		// so releasing the log iterator here does not race with pending.
		if s.walIter != nil {
			s.walIter.Close()
			s.walIter = nil
		}
		if s.hub.perSubGauges {
			// Long-lived registries must not accumulate dead per-client
			// gauges across subscriber lifetimes.
			s.hub.reg.Unregister(s.queueGaugeName())
			s.hub.reg.Unregister(s.droppedGaugeName())
		}
		s.hub.unsubscribe(s)
		s.hub.subscribers.Add(-1)
	})
}

// termErr returns the subscription's terminal error.
func (s *Subscriber) termErr() error {
	if e, ok := s.err.Load().(error); ok && e != nil {
		return e
	}
	return ErrHubClosed
}

// pending pops the next locally-buffered frame: the hello, then the
// durable log replay or the ring snapshot. ok is false once only live
// frames remain. Data served from the log replay is valid
// until the next Recv call.
func (s *Subscriber) pending() (data []byte, terminal bool, ok bool, err error) {
	if s.hello != nil {
		data, s.hello = s.hello, nil
		return data, false, true, nil
	}
	if s.walIter != nil {
		rec, rerr := s.walIter.Next()
		// The reader knows its last record, so it is released with it:
		// walIter set means the log still holds a frame for this subscriber.
		if rerr != nil || s.walIter.next > s.walIter.until {
			s.walIter.Close()
			s.walIter = nil
		}
		if rerr != io.EOF {
			return rec.Payload, rec.Terminal, true, rerr
		}
	}
	if len(s.replay) > 0 {
		d := s.replay[0]
		s.replay = s.replay[1:]
		s.replayN.Add(-1)
		s.observeDeliver(d)
		return d.data, d.terminal, true, nil
	}
	return nil, false, false, nil
}

// Recv returns the next frame's encoded bytes and whether it is
// terminal (eof/error). After the subscription ends, Recv drains any
// still-buffered frames and then returns the terminal cause
// (ErrSlowClient under disconnect-slow, ErrHubClosed after Close or hub
// shutdown).
func (s *Subscriber) Recv() (data []byte, terminal bool, err error) {
	return s.RecvContext(context.Background())
}

// more reports whether the next Recv returns without waiting for a
// publish: the hello, replay or log backlog is not drained, or a live
// frame is queued. Owned by the Recv goroutine, like pending.
func (s *Subscriber) more() bool {
	return s.hello != nil || s.walIter != nil || len(s.replay) > 0 || len(s.ch) > 0
}

// observeDeliver records the publish→pickup latency of a frame when
// the hub tracks delivery. Replayed frames count too: publish→pickup
// is the end-to-end delivery latency a subscriber experienced,
// whichever path the frame took (WAL-recovered frames carry no
// publish stamp and are skipped).
func (s *Subscriber) observeDeliver(d delivery) {
	if d.at != 0 {
		s.hub.reg.ObserveStage(obs.StageDeliver, time.Since(s.hub.epoch)-time.Duration(d.at))
	}
}

// RecvContext is Recv with cancellation: it additionally returns
// ctx.Err() once ctx is done (used by HTTP handlers tied to the request
// context).
func (s *Subscriber) RecvContext(ctx context.Context) (data []byte, terminal bool, err error) {
	if data, terminal, ok, err := s.pending(); ok {
		return data, terminal, err
	}
	select {
	case d := <-s.ch: // a queued frame needs no multi-way wait
		s.observeDeliver(d)
		return d.data, d.terminal, nil
	default:
	}
	select {
	case d := <-s.ch:
		s.observeDeliver(d)
		return d.data, d.terminal, nil
	case <-s.closed:
		select {
		case d := <-s.ch:
			s.observeDeliver(d)
			return d.data, d.terminal, nil
		default:
			return nil, false, s.termErr()
		}
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// Close shuts the hub down: every subscriber's subscription terminates
// (after draining its buffered frames) and future Publish/Subscribe
// calls fail with ErrHubClosed.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	var all []*Subscriber
	for _, ch := range h.channels {
		all = append(all, ch.subs...)
		ch.subs = nil
	}
	h.mu.Unlock()
	for _, s := range all {
		s.fail(ErrHubClosed)
	}
}

// Seq returns the channel's current sequence number (frames published so
// far).
func (h *Hub) Seq(channelName string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ch, ok := h.channels[channelName]; ok {
		return ch.seq
	}
	return 0
}
