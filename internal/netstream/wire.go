// Package netstream turns a compiled pollution process into a networked
// service: cmd/icewafld runs the pipeline once and streams its three
// outputs — the dirty stream D^p, the clean stream D, and the pollution
// log — to any number of subscribed clients, over raw TCP
// (length-prefixed frames) or HTTP (NDJSON chunks). A ClientSource
// implements stream.Source over the wire, so pipelines can chain across
// processes; it reconnects with backoff and resumes where it left off.
//
// A frame payload has one encoding wherever it travels — hub, replay
// ring, WAL record, TCP socket: a compact binary layout for the data
// frames (tuple, log, colbatch; DESIGN.md §10 has the bytes), one JSON
// object for the rare control frames (hello, eof, error). The first byte
// tells them apart — a binary payload opens with a version byte that is
// never '{' — so a JSON data frame (a line from /stream) still decodes.
// JSON for data frames is rendered only at the HTTP edge. On TCP each payload is preceded by a 4-byte big-endian
// length; on HTTP each frame is one JSON line (NDJSON). The first frame
// of every subscription is a hello carrying the stream schema; data
// frames follow in sequence order; an eof or error frame is terminal.
// Frames carry a per-channel sequence number so a reconnecting client
// can resume where it left off (from_seq), as long as the channel's WAL
// — or, memory-only, its replay ring — still retains that frame.
package netstream

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/schemafile"
	"icewafl/internal/stream"
)

// The three published channels.
const (
	// ChannelDirty carries the polluted stream D^p.
	ChannelDirty = "dirty"
	// ChannelClean carries the prepared clean stream D.
	ChannelClean = "clean"
	// ChannelLog carries the pollution log (ground truth).
	ChannelLog = "log"
)

// Channels lists every published channel.
func Channels() []string { return []string{ChannelDirty, ChannelClean, ChannelLog} }

// Frame types.
const (
	// FrameHello opens a subscription: it carries the stream schema.
	FrameHello = "hello"
	// FrameTuple carries one tuple (dirty or clean channel).
	FrameTuple = "tuple"
	// FrameLog carries one pollution-log entry (log channel).
	FrameLog = "log"
	// FrameColBatch carries a column-major batch of tuples under one
	// sequence number. No server emits it any more; clients and the HTTP
	// edge still decode it, because the benchmark's budget layer still
	// encodes it.
	FrameColBatch = "colbatch"
	// FrameEOF is terminal: the pipeline completed normally.
	FrameEOF = "eof"
	// FrameError is terminal: the pipeline failed or the subscription
	// cannot be served (e.g. a replay gap after reconnecting too late).
	FrameError = "error"
)

// Frame is one wire message. Exactly one payload field is set, selected
// by Type.
type Frame struct {
	Type    string `json:"type"`
	Channel string `json:"channel,omitempty"`
	// Seq is the 1-based per-channel sequence number of data frames
	// (tuple/log). Hello and terminal frames carry the channel's current
	// sequence so clients can detect replay gaps.
	Seq    uint64               `json:"seq,omitempty"`
	Schema *schemafile.Document `json:"schema,omitempty"`
	Tuple  *WireTuple           `json:"tuple,omitempty"`
	Batch  *WireColumnBatch     `json:"batch,omitempty"`
	Entry  *core.Entry          `json:"entry,omitempty"`
	Error  string               `json:"error,omitempty"`
	// Gap is set on error frames rejecting a subscription whose from_seq
	// fell behind retention, so clients can map the rejection to a typed,
	// non-retryable GapError.
	Gap *GapInfo `json:"gap,omitempty"`
	// Quota is set on error frames rejecting a request that exceeded a
	// tenant quota or rate limit, so clients can map the rejection to a
	// typed QuotaError.
	Quota *QuotaInfo `json:"quota,omitempty"`
}

// GapInfo is the machine-readable payload of a replay-gap rejection.
type GapInfo struct {
	// Requested is the from_seq the client asked for.
	Requested uint64 `json:"requested"`
	// ServerMin is the oldest sequence the server still retains (0 when
	// it retains nothing).
	ServerMin uint64 `json:"server_min"`
}

// QuotaInfo is the machine-readable payload of a quota rejection.
type QuotaInfo struct {
	// Tenant is the tenant the quota applies to.
	Tenant string `json:"tenant"`
	// Resource names the exhausted resource: "sessions", "subscribers"
	// or "bytes_per_sec".
	Resource string `json:"resource"`
	// Limit is the configured ceiling; Used the consumption at rejection
	// time (for bytes_per_sec, Limit is the rate and Used the burst the
	// bucket could not cover).
	Limit uint64 `json:"limit"`
	Used  uint64 `json:"used"`
}

// WireTuple is the network rendering of a stream.Tuple. Values use the
// same textual encoding as CSV output (Value.String), so NULL and the
// empty string collapse — exactly as they do in the CLI's CSV files.
type WireTuple struct {
	ID      uint64   `json:"id"`
	Sub     int      `json:"sub,omitempty"`
	Event   string   `json:"event"`
	Arrival string   `json:"arrival"`
	Values  []string `json:"values"`
}

// wireTime is the tuple timestamp encoding: RFC3339 with nanoseconds, so
// delayed arrivals survive the round trip exactly.
const wireTime = time.RFC3339Nano

// EncodeTuple renders t for the wire: the view its binary frame decodes
// to, so the two renderings cannot drift apart.
func EncodeTuple(t stream.Tuple) *WireTuple {
	return mustView(appendTuple(nil, 0, "", &t)).Tuple
}

// mustView decodes a payload this package has just encoded.
func mustView(payload []byte) *Frame {
	f, err := decodeBinary(payload)
	if err != nil {
		panic(err) // an encoder bug, not an input
	}
	return f
}

// DecodeTuple rebuilds a tuple from its wire rendering against schema.
func DecodeTuple(wt *WireTuple, schema *stream.Schema) (stream.Tuple, error) {
	if wt == nil {
		return stream.Tuple{}, fmt.Errorf("netstream: nil tuple payload")
	}
	rows, err := decodeView(&Frame{Type: FrameTuple, Tuple: wt}, schema)
	if err != nil {
		return stream.Tuple{}, err
	}
	return rows[0], nil
}

// decodeView decodes a data frame held as its view. There is one decode
// rule, the binary payload's, so the view goes through it.
func decodeView(f *Frame, schema *stream.Schema) ([]stream.Tuple, error) {
	payload, err := appendFrame(nil, f)
	if err != nil {
		return nil, err
	}
	_, rows, err := decodeTuples(nil, payload, schema, new(batchMeta))
	return rows, err
}

// WireColumnBatch is the network rendering of a columnar micro-batch:
// the payload of a colbatch frame. It is column-major — Columns[c][r]
// is attribute c of row r — with per-row metadata in parallel arrays,
// all using the same textual encodings as WireTuple (Value.String for
// cells, RFC3339Nano UTC for timestamps). Subs is omitted entirely when
// every row is on sub-stream 0, mirroring WireTuple's omitempty Sub.
type WireColumnBatch struct {
	Count    int        `json:"count"`
	IDs      []uint64   `json:"ids"`
	Subs     []int      `json:"subs,omitempty"`
	Events   []string   `json:"events"`
	Arrivals []string   `json:"arrivals"`
	Columns  [][]string `json:"columns"`
}

// EncodeColumnBatch renders every row of b for the wire, by the same
// rule as EncodeTuple. Nothing in the result aliases b, so the caller
// may Reset and reuse it.
//
// Deprecated: no server emits the frame; the encoder stays only
// because bench/ times it, and ROADMAP.md item 1(b) deletes it.
func EncodeColumnBatch(b *stream.ColumnBatch) *WireColumnBatch {
	return mustView(appendColumnBatch(nil, 0, "", b)).Batch
}

// check validates the batch's structure: every array agrees with Count.
func (wb *WireColumnBatch) check() error {
	if wb.Count < 0 {
		return fmt.Errorf("netstream: column batch has negative count %d", wb.Count)
	}
	if len(wb.IDs) != wb.Count || len(wb.Events) != wb.Count || len(wb.Arrivals) != wb.Count {
		return fmt.Errorf("netstream: column batch metadata arrays disagree with count %d", wb.Count)
	}
	if wb.Subs != nil && len(wb.Subs) != wb.Count {
		return fmt.Errorf("netstream: column batch has %d subs for %d rows", len(wb.Subs), wb.Count)
	}
	for c := range wb.Columns {
		if len(wb.Columns[c]) != wb.Count {
			return fmt.Errorf("netstream: column batch column %d has %d rows, count is %d", c, len(wb.Columns[c]), wb.Count)
		}
	}
	return nil
}

// SchemaDocument renders schema as the wire schemafile document carried
// by hello frames.
func SchemaDocument(schema *stream.Schema) *schemafile.Document {
	doc := &schemafile.Document{Timestamp: schema.Timestamp()}
	for _, f := range schema.Fields() {
		doc.Fields = append(doc.Fields, schemafile.Field{Name: f.Name, Kind: f.Kind.String()})
	}
	return doc
}

// SchemaFromDocument rebuilds the stream schema from a hello payload.
func SchemaFromDocument(doc *schemafile.Document) (*stream.Schema, error) {
	if doc == nil {
		return nil, fmt.Errorf("netstream: hello frame carries no schema")
	}
	fields := make([]stream.Field, 0, len(doc.Fields))
	for _, fd := range doc.Fields {
		kind, err := stream.ParseKind(fd.Kind)
		if err != nil {
			return nil, fmt.Errorf("netstream: schema field %q: %w", fd.Name, err)
		}
		fields = append(fields, stream.Field{Name: fd.Name, Kind: kind})
	}
	return stream.NewSchema(doc.Timestamp, fields...)
}

// SubscribeRequest is the client's opening message on a TCP connection
// (one length-prefixed JSON frame). FromSeq selects where delivery
// starts: 0 means from the beginning of the channel, n > 0 resumes with
// the frame whose sequence number is n.
type SubscribeRequest struct {
	Channel string `json:"channel"`
	FromSeq uint64 `json:"from_seq,omitempty"`
}

// MaxFrameBytes bounds a single frame (tuples are small; this is a
// defence against corrupt or hostile length prefixes).
const MaxFrameBytes = 16 << 20

// maxWireColumns bounds the column count a colbatch frame may declare.
const maxWireColumns = 4096

// maxSubscribeBytes bounds the one frame a peer sends before the server
// knows who it is: a subscribe request is a channel name and a number.
const maxSubscribeBytes = 4 << 10

// errFrameTooLarge marks a length prefix above the reader's limit.
var errFrameTooLarge = errors.New("exceeds limit")

// WriteFrame writes one length-prefixed payload. Into a *bufio.Writer
// with room for it, the prefix is built in the writer's own buffer and
// costs no allocation.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("netstream: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok && bw.Available() >= 4 {
		hdr = bw.AvailableBuffer()
	}
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil, MaxFrameBytes) }

// readFrameInto is ReadFrame, prefix included, into buf's backing array
// when it is large enough, refusing a prefix above limit before allocating.
func readFrameInto(r io.Reader, buf []byte, limit uint32) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > limit {
		return nil, fmt.Errorf("netstream: frame of %d bytes %w", n, errFrameTooLarge)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// The binary data-frame layout (DESIGN.md §10):
//
//	frame    = version tag uvarint(seq) str(channel) body
//	str      = uvarint(len) bytes
//	time     = varint(unix seconds) uvarint(nanoseconds)
//	tuple    = uvarint(id) varint(sub) time(event) time(arrival) uvarint(cells) str*
//	log      = uvarint(tuple id) varint(sub) time(event) varint(zone offset s) str(polluter) str(error) uvarint(attrs) str*
//	colbatch = uvarint(rows) uvarint(id)* hasSubs [varint(sub)*] time(event)* time(arrival)* uvarint(cols) (str*rows)*cols
//
// Cells are the bytes of Value.String(), so the decode rule stays
// stream.ParseValue against the schema kind.
const (
	// wireVersion opens every binary payload; it can never be '{'.
	wireVersion = 1

	tagTuple    = 1
	tagLog      = 2
	tagColBatch = 3
)

func appendHeader(dst []byte, tag byte, seq uint64, channel string) []byte {
	dst = append(dst, wireVersion, tag)
	dst = binary.AppendUvarint(dst, seq)
	return appendStr(dst, channel)
}

func appendStr[S string | []byte](dst []byte, s S) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendTime keeps seconds and nanoseconds apart so the zero time and
// years outside UnixNano's 1678–2262 survive.
func appendTime(dst []byte, t time.Time) []byte {
	return binary.AppendUvarint(binary.AppendVarint(dst, t.Unix()), uint64(t.Nanosecond()))
}

// appendWireTime is appendTime for the WireTuple view's rendered stamp;
// a view that leaves the stamp empty means the zero time.
func appendWireTime(dst []byte, stamp string) ([]byte, error) {
	var t time.Time
	if stamp != "" {
		var err error
		if t, err = time.Parse(wireTime, stamp); err != nil {
			return dst, fmt.Errorf("netstream: encode frame: %w", err)
		}
	}
	return appendTime(dst, t), nil
}

// appendCell appends v's text length-prefixed, without a string on the
// heap: only string values are strings already.
func appendCell(dst []byte, v stream.Value) []byte {
	if v.Kind() == stream.KindString {
		return appendStr(dst, v.String())
	}
	var text [40]byte
	return appendStr(dst, v.AppendString(text[:0]))
}

// appendTuple appends a tuple frame straight from the tuple.
func appendTuple(dst []byte, seq uint64, channel string, t *stream.Tuple) []byte {
	dst = appendHeader(dst, tagTuple, seq, channel)
	dst = binary.AppendUvarint(dst, t.ID)
	dst = binary.AppendVarint(dst, int64(t.SubStream))
	dst = appendTime(appendTime(dst, t.EventTime), t.Arrival)
	dst = binary.AppendUvarint(dst, uint64(t.Len()))
	for i := 0; i < t.Len(); i++ {
		dst = appendCell(dst, t.At(i))
	}
	return dst
}

// appendEntry appends a log frame. The event time's zone offset rides
// along so the entry's JSON rendering survives the trip.
func appendEntry(dst []byte, seq uint64, channel string, e *core.Entry) []byte {
	dst = appendHeader(dst, tagLog, seq, channel)
	dst = binary.AppendUvarint(dst, e.TupleID)
	dst = binary.AppendVarint(dst, int64(e.SubStream))
	_, offset := e.EventTime.Zone()
	dst = binary.AppendVarint(appendTime(dst, e.EventTime), int64(offset))
	dst = appendStr(appendStr(dst, e.Polluter), e.Error)
	dst = binary.AppendUvarint(dst, uint64(len(e.Attrs)))
	for _, a := range e.Attrs {
		dst = appendStr(dst, a)
	}
	return dst
}

// appendColumnBatch appends a colbatch frame straight from the batch.
func appendColumnBatch(dst []byte, seq uint64, channel string, b *stream.ColumnBatch) []byte {
	dst = appendHeader(dst, tagColBatch, seq, channel)
	n := b.Len()
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, id := range b.IDs() {
		dst = binary.AppendUvarint(dst, id)
	}
	hasSubs := byte(0)
	for _, sub := range b.SubStreams() {
		if sub != 0 {
			hasSubs = 1
			break
		}
	}
	dst = append(dst, hasSubs)
	if hasSubs != 0 {
		for _, sub := range b.SubStreams() {
			dst = binary.AppendVarint(dst, int64(sub))
		}
	}
	for _, at := range b.EventTimes() {
		dst = appendTime(dst, at)
	}
	for _, at := range b.Arrivals() {
		dst = appendTime(dst, at)
	}
	cols := b.Schema().Len()
	dst = binary.AppendUvarint(dst, uint64(cols))
	for c := 0; c < cols; c++ {
		for r := 0; r < n; r++ {
			dst = appendCell(dst, b.Value(r, c))
		}
	}
	return dst
}

// appendFrame appends f's payload: the binary layout for data frames —
// from the WireTuple / WireColumnBatch view, byte for byte what the
// direct encoders above emit for the same rows — and JSON for control
// frames.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	var err error
	switch {
	case f.Type == FrameTuple && f.Tuple != nil:
		wt := f.Tuple
		dst = appendHeader(dst, tagTuple, f.Seq, f.Channel)
		dst = binary.AppendUvarint(dst, wt.ID)
		dst = binary.AppendVarint(dst, int64(wt.Sub))
		if dst, err = appendWireTime(dst, wt.Event); err != nil {
			return nil, err
		}
		if dst, err = appendWireTime(dst, wt.Arrival); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, uint64(len(wt.Values)))
		for _, v := range wt.Values {
			dst = appendStr(dst, v)
		}
		return dst, nil
	case f.Type == FrameLog && f.Entry != nil:
		return appendEntry(dst, f.Seq, f.Channel, f.Entry), nil
	case f.Type == FrameColBatch && f.Batch != nil:
		wb := f.Batch
		if err := wb.check(); err != nil {
			return nil, err
		}
		dst = appendHeader(dst, tagColBatch, f.Seq, f.Channel)
		dst = binary.AppendUvarint(dst, uint64(wb.Count))
		for _, id := range wb.IDs {
			dst = binary.AppendUvarint(dst, id)
		}
		if wb.Subs == nil {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			for _, sub := range wb.Subs {
				dst = binary.AppendVarint(dst, int64(sub))
			}
		}
		for _, stamps := range [][]string{wb.Events, wb.Arrivals} {
			for _, stamp := range stamps {
				if dst, err = appendWireTime(dst, stamp); err != nil {
					return nil, err
				}
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(wb.Columns)))
		for _, col := range wb.Columns {
			for _, v := range col {
				dst = appendStr(dst, v)
			}
		}
		return dst, nil
	}
	data, err := json.Marshal(f)
	return append(dst, data...), err
}

// EncodeFrame encodes f as one frame payload.
func EncodeFrame(f *Frame) ([]byte, error) {
	var scratch [256]byte
	data, err := appendFrame(scratch[:0], f)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// wireCursor walks a binary payload b. The Frame view sets s, one string
// copy of the same bytes, so that its names and cells are substrings, not
// allocations; the tuple sink reads its text from b in place. Every read
// is bounded by the bytes that remain; the first malformed read sticks
// (bad) and exhausts the cursor, so later reads return zero values and
// loops sized by a count end at once.
type wireCursor struct {
	b   []byte
	s   string
	off int
	bad bool
}

func (c *wireCursor) fail() { c.off, c.bad = len(c.b), true }

func (c *wireCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *wireCursor) varint() int64 {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

// int reads a sub-stream or a zone offset: a varint that fits an int32.
func (c *wireCursor) int() int {
	v := c.varint()
	if int64(int32(v)) != v {
		c.fail()
	}
	return int(v)
}

// count reads a length or element count. Each counted element takes at
// least one byte, so no count can demand more than the payload holds.
func (c *wireCursor) count() int {
	n := c.uvarint()
	if n > uint64(len(c.b)-c.off) {
		c.fail()
		return 0
	}
	return int(n)
}

// text reads a length-prefixed string in place.
func (c *wireCursor) text() []byte {
	n := c.count()
	c.off += n
	return c.b[c.off-n : c.off]
}

// str is text as a substring of s.
func (c *wireCursor) str() string {
	n := c.count()
	c.off += n
	return c.s[c.off-n : c.off]
}

func (c *wireCursor) time() time.Time {
	sec, nsec := c.varint(), c.uvarint()
	if nsec >= 1e9 {
		c.fail()
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// entry reads a log body.
func (c *wireCursor) entry() core.Entry {
	e := core.Entry{TupleID: c.uvarint(), SubStream: c.int(), EventTime: c.time()}
	if offset := c.int(); offset != 0 {
		e.EventTime = e.EventTime.In(time.FixedZone("", offset))
	}
	e.Polluter, e.Error = c.str(), c.str()
	for n := c.count(); n > 0; n-- {
		e.Attrs = append(e.Attrs, c.str())
	}
	return e
}

// batchMeta is the per-row metadata of a colbatch body; the cells follow
// it in the cursor, column-major. A client reuses one across frames.
type batchMeta struct {
	ids              []uint64
	subs             []int // empty when every row is on sub-stream 0
	events, arrivals []time.Time
	cols             int
}

// batchMeta reads a colbatch body up to its cells into m.
func (c *wireCursor) batchMeta(m *batchMeta) {
	n := c.count()
	if n > (len(c.b)-c.off)/5 { // a row takes an id and two times: five bytes at least
		c.fail()
		n = 0
	}
	m.ids, m.subs, m.events, m.arrivals, m.cols = m.ids[:0], m.subs[:0], m.events[:0], m.arrivals[:0], 0
	for r := 0; r < n; r++ {
		m.ids = append(m.ids, c.uvarint())
	}
	if c.uvarint() != 0 { // hasSubs
		for r := 0; r < n; r++ {
			m.subs = append(m.subs, c.int())
		}
	}
	for r := 0; r < n; r++ {
		m.events = append(m.events, c.time())
	}
	for r := 0; r < n; r++ {
		m.arrivals = append(m.arrivals, c.time())
	}
	// Every cell takes at least its length byte; an empty batch's columns
	// take none, so their number is bounded by fiat.
	cols := c.uvarint()
	if cols > maxWireColumns || (n > 0 && cols > uint64((len(c.b)-c.off)/n)) {
		c.fail()
		return
	}
	m.cols = int(cols)
}

// openBinary checks the version byte and reads the header up to the channel.
func openBinary(payload []byte) (c wireCursor, tag byte, seq uint64, err error) {
	if len(payload) < 2 || payload[0] != wireVersion {
		return c, 0, 0, fmt.Errorf("netstream: decode frame: unknown encoding")
	}
	c = wireCursor{b: payload, off: 2}
	return c, payload[1], c.uvarint(), nil
}

// done is the cursor's verdict once a sink has consumed the body.
func (c *wireCursor) done() error {
	if c.bad || c.off != len(c.b) {
		return fmt.Errorf("netstream: decode frame: malformed binary frame")
	}
	return nil
}

// strs reads the next n strings; the slice is non-nil even when empty,
// as the view's JSON rendering needs.
func (c *wireCursor) strs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = c.str()
	}
	return out
}

// decodeBinary is the cursor's Frame sink: the view of a binary payload
// that tools, tests and the HTTP edge read. It owns its strings.
func decodeBinary(payload []byte) (*Frame, error) {
	c, tag, seq, err := openBinary(payload)
	if err != nil {
		return nil, err
	}
	c.s = string(payload)
	f := &Frame{Channel: c.str(), Seq: seq}
	stamp := func(t time.Time) string { return t.Format(wireTime) }
	switch tag {
	case tagTuple:
		f.Type = FrameTuple
		f.Tuple = &WireTuple{ID: c.uvarint(), Sub: c.int(), Event: stamp(c.time()), Arrival: stamp(c.time())}
		f.Tuple.Values = c.strs(c.count())
	case tagLog:
		e := c.entry()
		f.Type, f.Entry = FrameLog, &e
	case tagColBatch:
		var m batchMeta
		c.batchMeta(&m)
		n := len(m.ids)
		wb := &WireColumnBatch{Count: n, IDs: append([]uint64{}, m.ids...), Subs: m.subs,
			Events: make([]string, n), Arrivals: make([]string, n), Columns: make([][]string, m.cols)}
		for r := range m.ids {
			wb.Events[r], wb.Arrivals[r] = stamp(m.events[r]), stamp(m.arrivals[r])
		}
		for col := range wb.Columns {
			wb.Columns[col] = c.strs(n)
		}
		f.Type, f.Batch = FrameColBatch, wb
	default:
		return nil, fmt.Errorf("netstream: decode frame: unknown binary frame type %d", tag)
	}
	return f, c.done()
}

// DecodeFrame decodes one frame payload into its Frame view. The first
// byte tells binary data frames from JSON ones: control frames and
// NDJSON lines.
func DecodeFrame(payload []byte) (*Frame, error) {
	if len(payload) > 0 && payload[0] != '{' {
		return decodeBinary(payload)
	}
	var f Frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return nil, fmt.Errorf("netstream: decode frame: %w", err)
	}
	return &f, nil
}

// decodeTuples is the cursor's stream.Tuple sink, ClientSource's: a
// tuple or colbatch payload becomes tuples with no Frame, WireTuple or
// rendered timestamp in between, each cell parsed in place from its text
// against the schema kind. The tuples own their value slices and a copy
// of each string cell, and alias nothing of payload, which the caller
// may reuse; m is scratch. It returns the payload's sequence number and
// its rows appended to dst.
func decodeTuples(dst []stream.Tuple, payload []byte, schema *stream.Schema, m *batchMeta) (uint64, []stream.Tuple, error) {
	c, tag, seq, err := openBinary(payload)
	if err != nil {
		return 0, dst, err
	}
	c.text() // the channel name, which the subscription already knows
	switch tag {
	case tagTuple: // a batch of one row, its metadata inline
		m.ids, m.subs = append(m.ids[:0], c.uvarint()), append(m.subs[:0], c.int())
		m.events, m.arrivals = append(m.events[:0], c.time()), append(m.arrivals[:0], c.time())
		m.cols = c.count()
	case tagColBatch:
		c.batchMeta(m)
	default:
		return seq, dst, fmt.Errorf("netstream: unexpected binary frame type %d on tuple channel", tag)
	}
	if c.bad {
		return seq, dst, c.done()
	}
	if m.cols != schema.Len() {
		return seq, dst, fmt.Errorf("netstream: frame %d has %d values per tuple, schema has %d", seq, m.cols, schema.Len())
	}
	base := len(dst)
	for r, id := range m.ids {
		t := stream.NewTuple(schema, make([]stream.Value, m.cols))
		t.ID, t.EventTime, t.Arrival = id, m.events[r], m.arrivals[r]
		if len(m.subs) > 0 {
			t.SubStream = int32(m.subs[r])
		}
		dst = append(dst, t)
	}
	for col := 0; col < m.cols; col++ {
		for r, id := range m.ids {
			v, _, err := stream.ParseValueBytes(c.text(), schema.Field(col).Kind)
			if err != nil {
				return seq, dst[:base], fmt.Errorf("netstream: tuple %d (row %d) attr %q: %w", id, r, schema.Field(col).Name, err)
			}
			dst[base+r].SetAt(col, v)
		}
	}
	return seq, dst, c.done()
}
