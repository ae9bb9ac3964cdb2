package netstream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icewafl/internal/stream"
)

// ClientSource is a stream.Source fed by a remote icewafld service over
// the raw-TCP protocol: pipelines can chain across processes by reading
// a server's dirty (or clean) channel as their input.
//
// Fault behaviour follows the Source error contract: the end of the
// remote stream is io.EOF and Stop cancels the source
// (stream.ErrStopped). A transport failure does not end the stream: Next
// re-dials with exponential backoff and re-subscribes with from_seq at
// the next undelivered sequence number, so a flapping server costs no
// duplicated or lost tuples (as long as its replay ring or WAL still
// covers the gap; when it does not, Next returns a GapError). The
// server's answers — an error frame, a gap, a changed schema — end the
// call at once.
//
// Like every Source, a ClientSource is single-consumer: Next must be
// called from one goroutine. Stop is safe to call concurrently.
type ClientSource struct {
	addr        string
	channel     string
	dialTimeout time.Duration

	// Consumer-goroutine state (no locking needed beyond connMu for the
	// conn pointer, which Stop closes concurrently).
	br      *bufio.Reader
	nextSeq uint64 // sequence number of the next expected tuple frame
	eof     bool
	// failures counts transport failures since the last delivered frame.
	failures int
	// pending holds rows of a multi-row frame not yet handed out: a
	// colbatch frame (no server emits one; the benchmark's budget layer
	// still encodes them) consumes one sequence number, so its rows are
	// queued locally and served by subsequent Next calls.
	pending []stream.Tuple
	// readBuf is the frame read buffer, rows the array pending is cut
	// from and meta the batch scratch — all reused across frames;
	// decoded tuples own copies, never these.
	readBuf []byte
	rows    []stream.Tuple
	meta    batchMeta
	// cur is the connection's schema, read on the consumer goroutine
	// without schemaMu (which only guards the public Schema accessor).
	cur *stream.Schema

	schemaMu sync.Mutex
	schema   *stream.Schema

	connMu sync.Mutex
	conn   net.Conn

	stopped    atomic.Bool
	done       chan struct{} // closed by Stop; cuts a backoff wait short
	reconnects atomic.Uint64
}

// The reconnect policy: after a transport failure Next waits
// reconnectBase, doubling per consecutive failure up to reconnectMax,
// before each of at most reconnectAttempts re-dials. Variables only so
// tests can set them.
var (
	reconnectAttempts = 10
	reconnectBase     = 50 * time.Millisecond
	reconnectMax      = 2 * time.Second
)

// Dial connects to an icewafld server at addr and subscribes to channel
// (ChannelDirty or ChannelClean, or a session-namespaced
// <tenant>/<session>/dirty|clean; the log channel carries entries, not
// tuples, and is read with raw frames instead). The initial connection
// is made eagerly so the schema is known; see DialTimeout for a bounded
// variant.
func Dial(addr, channel string) (*ClientSource, error) {
	return DialTimeout(addr, channel, 10*time.Second)
}

// DialTimeout is Dial with a per-connection timeout (also applied to
// reconnects).
func DialTimeout(addr, channel string, timeout time.Duration) (*ClientSource, error) {
	return DialFrom(addr, channel, 0, timeout)
}

// DialFrom is Dial resuming at fromSeq (0 or 1 = from the beginning) —
// the recovery entry point after a GapError: re-subscribe at the
// error's ServerMin, accepting the lost frames in between.
func DialFrom(addr, channel string, fromSeq uint64, timeout time.Duration) (*ClientSource, error) {
	if channel == "" {
		channel = ChannelDirty
	}
	// Session-mode channels are namespaced <tenant>/<session>/<channel>;
	// only the final segment decides whether tuples flow on it.
	if base := channel[strings.LastIndexByte(channel, '/')+1:]; base != ChannelDirty && base != ChannelClean {
		return nil, fmt.Errorf("netstream: ClientSource reads tuple channels (dirty, clean), not %q", channel)
	}
	c := &ClientSource{addr: addr, channel: channel, dialTimeout: timeout, nextSeq: fromSeq, done: make(chan struct{})}
	if _, err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect (re-)establishes the subscription, resuming at c.nextSeq.
// Called from the consumer goroutine (and once from DialFrom). retry
// reports a transport failure, which a re-dial may get past; any other
// error is the server's answer or Stop.
func (c *ClientSource) connect() (retry bool, err error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return true, fmt.Errorf("netstream: dial %s: %w", c.addr, err)
	}
	req, err := json.Marshal(SubscribeRequest{Channel: c.channel, FromSeq: c.nextSeq})
	if err != nil {
		conn.Close()
		return false, err
	}
	_ = conn.SetDeadline(time.Now().Add(c.dialTimeout))
	if err := WriteFrame(conn, req); err != nil {
		conn.Close()
		return true, fmt.Errorf("netstream: subscribe: %w", err)
	}
	br := bufio.NewReader(conn)
	payload, err := ReadFrame(br)
	if err != nil {
		conn.Close()
		return true, fmt.Errorf("netstream: read hello: %w", err)
	}
	f, err := DecodeFrame(payload)
	if err != nil {
		conn.Close()
		return false, err
	}
	switch f.Type {
	case FrameHello:
	case FrameError:
		conn.Close()
		if f.Gap != nil {
			// Re-dialing the same resume point can never succeed.
			lastAcked := uint64(0)
			if c.nextSeq > 0 {
				lastAcked = c.nextSeq - 1
			}
			return false, &GapError{Channel: c.channel, Requested: f.Gap.Requested, LastAcked: lastAcked, ServerMin: f.Gap.ServerMin}
		}
		return false, fmt.Errorf("netstream: server rejected subscription: %s", f.Error)
	default:
		conn.Close()
		return false, fmt.Errorf("netstream: expected hello frame, got %q", f.Type)
	}
	schema, err := SchemaFromDocument(f.Schema)
	if err != nil {
		conn.Close()
		return false, err
	}
	c.schemaMu.Lock()
	if c.schema != nil && !sameSchema(c.schema, schema) {
		c.schemaMu.Unlock()
		conn.Close()
		return false, fmt.Errorf("netstream: server schema changed across reconnect")
	}
	if c.schema != nil {
		c.reconnects.Add(1)
	}
	c.schema, c.cur = schema, schema
	c.schemaMu.Unlock()
	_ = conn.SetDeadline(time.Time{})

	c.connMu.Lock()
	if c.stopped.Load() {
		c.connMu.Unlock()
		conn.Close()
		return false, stream.ErrStopped
	}
	c.conn = conn
	c.connMu.Unlock()
	c.br = br
	return false, nil
}

// backoff waits out the delay before the next re-dial, or until Stop. It
// reports false once reconnectAttempts re-dials have failed in a row.
func (c *ClientSource) backoff() bool {
	if c.failures >= reconnectAttempts {
		return false
	}
	t := time.NewTimer(min(reconnectBase<<c.failures, reconnectMax))
	defer t.Stop()
	c.failures++
	select {
	case <-t.C:
	case <-c.done:
	}
	return true
}

// sameSchema compares two schemas structurally.
func sameSchema(a, b *stream.Schema) bool {
	if a.Len() != b.Len() || a.Timestamp() != b.Timestamp() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Field(i) != b.Field(i) {
			return false
		}
	}
	return true
}

// Schema implements stream.Source.
func (c *ClientSource) Schema() *stream.Schema {
	c.schemaMu.Lock()
	defer c.schemaMu.Unlock()
	return c.schema
}

// Reconnects returns how many times the source re-subscribed after a
// connection loss.
func (c *ClientSource) Reconnects() uint64 { return c.reconnects.Load() }

// RestartAt moves the resume point to seq (0 or 1 = from the beginning)
// and clears a previous end-of-stream, so the next Next call
// re-subscribes there. This is the recovery hook for a GapError under a
// restart resume policy: tuples between the last acked sequence and seq
// are lost (or duplicated, when seq rewinds) — the caller accepts that
// trade by calling RestartAt. Call from the consumer goroutine only.
func (c *ClientSource) RestartAt(seq uint64) {
	c.disconnect()
	c.nextSeq = seq
	c.eof = false
	// Queued rows of a multi-row frame belong to an acked frame; a restart
	// re-reads (or skips) that frame, so they must not also be served.
	c.pending = nil
}

// disconnect tears the connection down without ending the stream.
func (c *ClientSource) disconnect() {
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.connMu.Unlock()
	c.br = nil
}

// connected reports whether a live connection exists.
func (c *ClientSource) connected() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn != nil
}

// Next implements stream.Source. A transport failure re-dials with
// backoff and re-subscribes after the last delivered sequence number;
// the last failure is returned once the re-dial budget is spent.
func (c *ClientSource) Next() (stream.Tuple, error) {
	for {
		if c.stopped.Load() {
			return stream.Tuple{}, stream.ErrStopped
		}
		if len(c.pending) > 0 {
			t := c.pending[0]
			c.pending[0] = stream.Tuple{}
			c.pending = c.pending[1:]
			return t, nil
		}
		if c.eof {
			return stream.Tuple{}, io.EOF
		}
		if !c.connected() {
			if retry, err := c.connect(); err != nil {
				if !retry || !c.backoff() {
					return stream.Tuple{}, err
				}
				continue
			}
		}
		payload, err := readFrameInto(c.br, c.readBuf, MaxFrameBytes)
		if err != nil {
			c.disconnect()
			if c.stopped.Load() {
				return stream.Tuple{}, stream.ErrStopped
			}
			if !c.backoff() {
				return stream.Tuple{}, fmt.Errorf("netstream: read frame: %w", err)
			}
			continue
		}
		c.failures = 0
		c.readBuf = payload[:0]
		if len(payload) > 0 && payload[0] == '{' {
			f, err := DecodeFrame(payload)
			if err != nil {
				c.disconnect()
				return stream.Tuple{}, err
			}
			switch f.Type {
			case FrameHello:
				continue
			case FrameEOF:
				c.eof = true
				c.disconnect()
				return stream.Tuple{}, io.EOF
			case FrameError:
				c.disconnect()
				return stream.Tuple{}, fmt.Errorf("netstream: server error: %s", f.Error)
			default:
				c.disconnect()
				return stream.Tuple{}, fmt.Errorf("netstream: unexpected frame type %q on tuple channel", f.Type)
			}
		}
		// The hot path: a binary tuple or colbatch payload straight into
		// tuples. Rows of an already-delivered frame (the overlap of a
		// replay after a reconnect) are decoded and dropped, and an empty
		// batch is legal: either way the loop just reads on.
		seq, rows, err := decodeTuples(c.rows[:0], payload, c.cur, &c.meta)
		if err != nil {
			c.disconnect()
			return stream.Tuple{}, err
		}
		c.rows = rows[:0]
		if seq >= c.nextSeq {
			c.nextSeq = seq + 1
			c.pending = rows
		}
	}
}

// Stop implements stream.Stopper: it cancels the subscription; Next
// returns stream.ErrStopped afterwards. Safe to call concurrently with
// Next: closing the connection unblocks a Next stuck reading, closing
// done one waiting to re-dial.
func (c *ClientSource) Stop() {
	if !c.stopped.Swap(true) {
		close(c.done)
	}
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.connMu.Unlock()
}
