package netstream

// This file is the durability layer: a segmented, checksummed
// write-ahead log. A durable session keeps one, the session log, for its
// three channels and its checkpoints (DESIGN.md §12). Segment files are
// named after the log position of their first record (%020d.wal); each
// starts with an 8-byte magic and carries records:
//
//	[4B big-endian payload length n]
//	[4B CRC32C over seq|flags|payload]
//	[8B big-endian log position (seq)]
//	[1B flags (bit0 = terminal, bit1 = checkpoint)]
//	[n payload bytes]
//
// A frame's payload header names its channel and channel sequence
// number (wire.go); OpenWAL's one validation scan indexes them per
// segment. A checkpoint record (a core.Checkpoint as JSON) follows the
// frames it references and takes no fsync of its own, so the newest one
// to survive a crash is never ahead of the surviving frames.
//
// An append only buffers its record; one Write takes the buffer to the
// file before an fsync, before a frame leaves the process (flush) and
// before a reader's snapshot. A frame append fsyncs once its channel has
// FsyncEvery frames not yet durable, covering every channel. The log is
// fail-stop (DESIGN.md §12): after its first failed write, fsync or
// rotation, every append, sync, flush and reader fails until a reopen. A new
// segment's directory entry is fsynced before its first record, and so
// is the log directory's own entry when OpenWAL creates it; a deleted
// segment's is fsynced after the removal. Retention deletes whole closed
// segments, oldest first, while the log is over its byte cap or its
// tenant over budget; each new segment opens with a copy of the newest
// checkpoint, so retention never drops it. Append and ReadFrom
// serve a plain stream of records outside the index. All file I/O goes
// through FS, so internal/chaos.FaultFS can inject disk faults.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"icewafl/internal/core"
)

// File is the subset of *os.File the WAL needs. A short Write must
// return an error, as io.Writer says (it leaves a torn tail that the
// next OpenWAL truncates).
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// FS abstracts the filesystem under the WAL; chaos tests swap in a
// fault-injecting implementation.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadDir(name string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	Stat(name string) (os.FileInfo, error)
	Remove(name string) error
	RemoveAll(name string) error
	Rename(oldname, newname string) error
	MkdirAll(name string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making the creation, rename or removal
	// of its entries durable.
	SyncDir(name string) error
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) RemoveAll(name string) error                { return os.RemoveAll(name) }
func (osFS) Rename(oldname, newname string) error       { return os.Rename(oldname, newname) }
func (osFS) MkdirAll(name string, perm os.FileMode) error {
	return os.MkdirAll(name, perm)
}
func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// OSFS returns the real-filesystem implementation of FS.
func OSFS() FS { return osFS{} }

// Segment file format constants.
const (
	walMagic       = "IWFLWAL1"
	walHeaderLen   = len(walMagic)
	recHeaderLen   = 4 + 4 + 8 + 1 // length, crc, seq, flags
	walSuffix      = ".wal"
	flagTerminal   = 0x01
	flagCheckpoint = 0x02
	walFileDigits  = 20
)

// crcTable is the Castagnoli polynomial (CRC32C), the checksum used by
// most storage systems for its hardware support.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WALOptions tunes one log. The zero value applies the documented
// defaults.
type WALOptions struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 8 MiB).
	SegmentBytes int64
	// RetainBytes caps the log's size: closed segments are deleted,
	// oldest first, while the total exceeds it (default 256 MiB; the
	// active segment is never deleted).
	RetainBytes int64
	// FsyncEvery batches fsync: a frame append syncs once its channel, a
	// plain Append once the log, has this many not yet durable (default
	// 64; 1 = every append). A plain terminal Append also syncs.
	FsyncEvery int
	// FS is the filesystem (default: the real one).
	FS FS
	// Budget, when set, shares a byte ledger across several WALs — the
	// session service gives every tenant one spanning its sessions' logs.
	// Each WAL settles its on-disk bytes into it, and retention also drops
	// closed segments while the shared total exceeds the limit, so a
	// tenant's sessions compete for retention with each other only.
	Budget *WALBudget
}

// WALBudget is a byte ledger shared by the WALs of one tenant's durable
// sessions. Each WAL settles its on-disk size into the ledger as it
// appends, rotates and retains; NewWALBudget's limit is the tenant's
// max_wal_bytes quota (0 = track usage without enforcing a ceiling).
type WALBudget struct {
	limit int64
	used  atomic.Int64
}

// NewWALBudget returns a budget enforcing the given byte limit across
// every WAL attached to it (0 or negative = unlimited, usage still
// tracked).
func NewWALBudget(limit int64) *WALBudget {
	if limit < 0 {
		limit = 0
	}
	return &WALBudget{limit: limit}
}

// Used returns the bytes currently accounted against the budget.
func (b *WALBudget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

func (b *WALBudget) add(n int64) {
	if b != nil && n != 0 {
		b.used.Add(n)
	}
}

// over reports whether the shared total exceeds the limit.
func (b *WALBudget) over() bool {
	return b != nil && b.limit > 0 && b.used.Load() > b.limit
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.RetainBytes <= 0 {
		o.RetainBytes = 256 << 20
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 64
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// WALRecord is one decoded log record. A channel reader's records carry
// the channel sequence number as Seq; a plain reader's the log position.
type WALRecord struct {
	Seq        uint64
	Terminal   bool
	Checkpoint bool
	Payload    []byte
}

// AppendRecord encodes one frame record and appends it to buf (the
// wire-level codec, exported for the fuzz fixed-point suite).
func AppendRecord(buf []byte, seq uint64, terminal bool, payload []byte) []byte {
	return appendRecord(buf, seq, recordFlags(terminal, false), payload)
}

// recordFlags is the flags byte of a record.
func recordFlags(terminal, checkpoint bool) (f byte) {
	if terminal {
		f = flagTerminal
	}
	if checkpoint {
		f |= flagCheckpoint
	}
	return f
}

func appendRecord(buf []byte, seq uint64, flags byte, payload []byte) []byte {
	var hdr [recHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[8:16], seq)
	hdr[16] = flags
	crc := crc32.Update(0, crcTable, hdr[8:17])
	crc = crc32.Update(crc, crcTable, payload)
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// ErrWALCorrupt reports a record that failed validation somewhere other
// than the torn tail of the last segment.
var ErrWALCorrupt = errors.New("netstream: wal record corrupt")

// DecodeRecord decodes the first record in b, returning the record and
// the number of bytes it occupies. Incomplete or corrupt prefixes return
// an error wrapping ErrWALCorrupt; n is then the number of valid bytes
// before the corruption (always 0 at a record boundary).
func DecodeRecord(b []byte) (WALRecord, int, error) {
	if len(b) < recHeaderLen {
		return WALRecord{}, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrWALCorrupt, len(b))
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > MaxFrameBytes {
		return WALRecord{}, 0, fmt.Errorf("%w: payload length %d exceeds limit", ErrWALCorrupt, n)
	}
	total := recHeaderLen + int(n)
	if len(b) < total {
		return WALRecord{}, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrWALCorrupt, len(b), total)
	}
	crc := crc32.Update(0, crcTable, b[8:17])
	crc = crc32.Update(crc, crcTable, b[recHeaderLen:total])
	if crc != binary.BigEndian.Uint32(b[4:8]) {
		return WALRecord{}, 0, fmt.Errorf("%w: checksum mismatch", ErrWALCorrupt)
	}
	if b[16]&^(flagTerminal|flagCheckpoint) != 0 {
		return WALRecord{}, 0, fmt.Errorf("%w: unknown flags %#x", ErrWALCorrupt, b[16])
	}
	return WALRecord{
		Seq:        binary.BigEndian.Uint64(b[8:16]),
		Terminal:   b[16]&flagTerminal != 0,
		Checkpoint: b[16]&flagCheckpoint != 0,
		Payload:    b[recHeaderLen:total],
	}, total, nil
}

// frameHeader reads the channel and channel sequence number a frame
// payload opens with, binary data frames (wire.go's header) and JSON
// control frames alike. ok is false for any other payload.
func frameHeader(payload []byte) (channel []byte, seq uint64, ok bool) {
	if len(payload) > 0 && payload[0] == '{' {
		f, err := DecodeFrame(payload)
		if err != nil || f.Channel == "" {
			return nil, 0, false
		}
		return []byte(f.Channel), f.Seq, true
	}
	if len(payload) < 2 || payload[0] != wireVersion {
		return nil, 0, false
	}
	b := payload[2:]
	seq, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, false
	}
	b = b[n:]
	l, n := binary.Uvarint(b)
	if n <= 0 || l == 0 || l > uint64(len(b)-n) {
		return nil, 0, false
	}
	return b[n : n+int(l)], seq, true
}

// segment is one on-disk segment file's index entry.
type segment struct {
	path     string
	firstSeq uint64 // log position of the first record (also the file name)
	lastSeq  uint64 // 0 while empty
	bytes    int64
	chans    []segChan // the per-channel index: one entry per channel here
}

// segChan is one channel's frames within one segment.
type segChan struct {
	name        string
	first, last uint64 // channel sequence numbers of its first and last frame here
	firstPos    uint64 // log position of the first
	terminal    bool   // the last is terminal
}

// indexFrame records a frame of channel at log position pos in s.
func indexFrame[S string | []byte](s *segment, channel S, seq, pos uint64, terminal bool) {
	for i := range s.chans {
		if c := &s.chans[i]; c.name == string(channel) {
			c.last, c.terminal = seq, terminal
			return
		}
	}
	s.chans = append(s.chans, segChan{name: string(channel), first: seq, last: seq, firstPos: pos, terminal: terminal})
}

// WAL is a durable log: a session's frames and checkpoints, or a plain
// stream of records. Readers run concurrently with the writer.
type WAL struct {
	dir  string
	opts WALOptions

	mu          sync.Mutex
	segments    []segment      // closed segments plus the active one (last)
	active      File           // handle of segments[len-1]
	sinceSync   int            // records appended since the last fsync
	unsynced    map[string]int // frames per channel appended since the last fsync
	ck          []byte         // payload of the newest checkpoint record (nil = none)
	err         error          // first write, fsync or rotation failure: the log is stopped
	dirsPending []string       // directories whose new entry (segment or log dir) awaits a sync before the next record
	accounted   int64          // bytes this log has settled into opts.Budget

	buf []byte // records appended but not yet written to the active segment

	fsyncs    atomic.Uint64
	appends   atomic.Uint64
	truncated atomic.Uint64 // torn bytes dropped across opens
}

// OpenWAL opens (or creates) the log under dir: one read of each segment
// validates it, indexes it and truncates a torn tail on the last one.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	w := &WAL{dir: dir, opts: opts, unsynced: make(map[string]int)}
	if _, err := opts.FS.ReadDir(dir); errors.Is(err, os.ErrNotExist) {
		w.dirsPending = []string{filepath.Dir(dir)}
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("netstream: wal mkdir: %w", err)
	}
	if err := w.load(); err != nil {
		return nil, err
	}
	// Credit recovered segments against the shared budget immediately, so
	// a restarted tenant's usage is accurate before the first append.
	w.settleBudgetLocked()
	return w, nil
}

// settleBudgetLocked reconciles the shared budget with this log's
// current on-disk size; called after any mutation of the segment index.
// Callers hold w.mu (or own the WAL exclusively during open).
func (w *WAL) settleBudgetLocked() {
	if w.opts.Budget == nil {
		return
	}
	total := w.sizeLocked()
	w.opts.Budget.add(total - w.accounted)
	w.accounted = total
}

func (w *WAL) sizeLocked() int64 {
	var n int64
	for i := range w.segments {
		n += w.segments[i].bytes
	}
	return n
}

// ReleaseBudget returns this log's accounted bytes to the shared budget
// and detaches from it. A session calls it as it closes its log, so a
// deleted session's bytes leave the tenant's budget before its state
// directory goes.
func (w *WAL) ReleaseBudget() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.Budget == nil {
		return
	}
	w.opts.Budget.add(-w.accounted)
	w.accounted = 0
	w.opts.Budget = nil
}

// load scans the directory, indexes segments and truncates the torn
// tail of the last one.
func (w *WAL) load() error {
	entries, err := w.opts.FS.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("netstream: wal readdir: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, walSuffix), 10, 64)
		if err != nil {
			return fmt.Errorf("netstream: wal segment %q: bad name: %v", name, err)
		}
		segs = append(segs, segment{path: filepath.Join(w.dir, name), firstSeq: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	for i := range segs {
		last := i == len(segs)-1
		if err := w.scanSegment(&segs[i], last); err != nil {
			return err
		}
	}
	// An all-torn last segment (no surviving records) still serves as the
	// active segment; appends continue at its firstSeq.
	w.segments = segs
	if len(segs) == 0 {
		return w.startSegmentLocked(1)
	}
	// Reopen the last segment for appending.
	act := &w.segments[len(w.segments)-1]
	f, err := w.opts.FS.OpenFile(act.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("netstream: wal reopen active: %w", err)
	}
	if _, err := f.Seek(act.bytes, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("netstream: wal seek active: %w", err)
	}
	w.active = f
	return nil
}

// scanSegment validates one segment and rebuilds its index entry. For
// the last segment a torn tail is truncated away; for earlier segments
// any invalid record is corruption.
func (w *WAL) scanSegment(s *segment, last bool) error {
	s.lastSeq, s.chans = 0, s.chans[:0]
	f, err := w.opts.FS.OpenFile(s.path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("netstream: wal open %s: %w", s.path, err)
	}
	// One read of the whole segment, sized up front.
	size, err := f.Seek(0, io.SeekEnd)
	data := make([]byte, max(size, 0))
	if err == nil {
		if _, err = f.Seek(0, io.SeekStart); err == nil {
			_, err = io.ReadFull(f, data)
		}
	}
	f.Close()
	if err != nil {
		return fmt.Errorf("netstream: wal read %s: %w", s.path, err)
	}
	valid := 0
	var ck []byte
	if len(data) < walHeaderLen || string(data[:walHeaderLen]) != walMagic {
		if !last {
			return fmt.Errorf("netstream: wal segment %s: bad magic", s.path)
		}
		// Torn segment header: rewrite the whole file below.
	} else {
		valid = walHeaderLen
		off := walHeaderLen
		next := s.firstSeq
		for off < len(data) {
			rec, n, derr := DecodeRecord(data[off:])
			if derr != nil {
				if !last {
					return fmt.Errorf("netstream: wal segment %s at offset %d: %w", s.path, off, derr)
				}
				break // torn tail; truncate at off
			}
			if rec.Seq != next {
				if !last {
					return fmt.Errorf("%w: segment %s at offset %d: seq %d, want %d", ErrWALCorrupt, s.path, off, rec.Seq, next)
				}
				break
			}
			s.lastSeq = rec.Seq
			if rec.Checkpoint {
				ck = rec.Payload
			} else if channel, seq, ok := frameHeader(rec.Payload); ok {
				indexFrame(s, channel, seq, rec.Seq, rec.Terminal)
			}
			next = rec.Seq + 1
			off += n
			valid = off
		}
	}
	if ck != nil {
		w.ck = bytes.Clone(ck)
	}
	s.bytes = int64(max(valid, walHeaderLen))
	if valid == len(data) && valid >= walHeaderLen {
		return nil
	}
	w.truncated.Add(uint64(len(data) - valid))
	tf, err := w.opts.FS.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("netstream: wal truncate open %s: %w", s.path, err)
	}
	defer tf.Close()
	if valid < walHeaderLen {
		// The magic itself was torn: rewrite it so the segment stays
		// appendable.
		if err = tf.Truncate(0); err == nil {
			_, err = tf.Write([]byte(walMagic))
		}
	} else {
		err = tf.Truncate(int64(valid))
	}
	if err == nil {
		err = tf.Sync()
	}
	if err != nil {
		return fmt.Errorf("netstream: wal truncate %s: %w", s.path, err)
	}
	return nil
}

// startSegmentLocked creates and activates a fresh segment whose first
// record will carry firstSeq. Callers hold w.mu (or own the WAL
// exclusively during load).
func (w *WAL) startSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(w.dir, fmt.Sprintf("%0*d%s", walFileDigits, firstSeq, walSuffix))
	f, err := w.opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("netstream: wal create segment: %w", err)
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		w.opts.FS.Remove(path)
		return fmt.Errorf("netstream: wal segment header: %w", err)
	}
	w.dirsPending = append(w.dirsPending, w.dir)
	if w.active != nil {
		w.active.Close()
	}
	w.active = f
	w.segments = append(w.segments, segment{path: path, firstSeq: firstSeq, bytes: int64(walHeaderLen)})
	return nil
}

// MaxSeq returns the newest retained log position (0 when empty).
func (w *WAL) MaxSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.maxSeqLocked()
}

func (w *WAL) maxSeqLocked() uint64 {
	for i := len(w.segments) - 1; i >= 0; i-- {
		if w.segments[i].lastSeq != 0 {
			return w.segments[i].lastSeq
		}
	}
	return 0
}

// nextSeqLocked is the log position the next record takes.
func (w *WAL) nextSeqLocked() uint64 {
	act := &w.segments[len(w.segments)-1]
	if act.lastSeq == 0 {
		return act.firstSeq
	}
	return act.lastSeq + 1
}

// ChannelRange is one channel's part of a session log: its oldest and
// newest retained sequence numbers (0 when it has none) and whether the
// newest is terminal, the channel completed durably.
type ChannelRange struct {
	Min, Max uint64
	Terminal bool
}

// Channel returns the named channel's range from the log's index.
func (w *WAL) Channel(name string) ChannelRange {
	w.mu.Lock()
	defer w.mu.Unlock()
	var r ChannelRange
	for i := range w.segments {
		for _, c := range w.segments[i].chans {
			if c.name == name {
				if r.Min == 0 {
					r.Min = c.first
				}
				r.Max, r.Terminal = c.last, c.terminal
			}
		}
	}
	return r
}

// Checkpoint decodes the newest checkpoint record (nil when none).
func (w *WAL) Checkpoint() (*core.Checkpoint, error) {
	w.mu.Lock()
	data := w.ck
	w.mu.Unlock()
	if data == nil {
		return nil, nil
	}
	var ck core.Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("netstream: wal checkpoint: %w", err)
	}
	if ck.Version != core.CheckpointVersion {
		return nil, fmt.Errorf("netstream: wal checkpoint has version %d, want %d", ck.Version, core.CheckpointVersion)
	}
	return &ck, nil
}

// Fsyncs returns the number of fsync calls issued so far.
func (w *WAL) Fsyncs() uint64 { return w.fsyncs.Load() }

// Appends returns the number of records appended in this process.
func (w *WAL) Appends() uint64 { return w.appends.Load() }

// TruncatedBytes returns the torn bytes dropped by tail recovery.
func (w *WAL) TruncatedBytes() uint64 { return w.truncated.Load() }

// SizeBytes returns the total size of all retained segments, records
// appended but not yet written included.
func (w *WAL) SizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sizeLocked()
}

// Segments returns the number of retained segment files.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segments)
}

// Append durably adds one plain record at log position seq, outside the
// per-channel index. Positions run contiguously from 1; anything else is
// a programming error upstream. A terminal record fsyncs.
func (w *WAL) Append(seq uint64, terminal bool, payload []byte) error {
	return w.add("", seq, recordFlags(terminal, false), terminal, payload)
}

// AppendFrame appends and indexes one published frame of channel with
// channel sequence number seq (its header carries both). It fsyncs, for
// every channel, once the channel has FsyncEvery frames not yet durable
// or when sync is set.
func (w *WAL) AppendFrame(channel string, seq uint64, terminal, sync bool, payload []byte) error {
	return w.add(channel, seq, recordFlags(terminal, false), sync, payload)
}

// AppendCheckpoint appends ck as a checkpoint record, after every frame
// it references; it takes no fsync of its own.
func (w *WAL) AppendCheckpoint(ck *core.Checkpoint) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("netstream: marshal checkpoint: %w", err)
	}
	return w.add("", 0, flagCheckpoint, false, data)
}

// add appends one record at the next log position. An I/O failure stops
// the log.
func (w *WAL) add(channel string, seq uint64, flags byte, sync bool, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Settle whatever this append did to the on-disk size — record bytes,
	// rotation, retention — into the shared budget on every exit path.
	defer w.settleBudgetLocked()
	if w.active == nil || len(w.segments) == 0 {
		return fmt.Errorf("netstream: wal closed")
	}
	if w.err != nil {
		return w.err
	}
	pos := w.nextSeqLocked()
	if channel == "" && flags&flagCheckpoint == 0 && seq != pos {
		return fmt.Errorf("netstream: wal append seq %d, want %d", seq, pos)
	}
	if err := w.bufferLocked(pos, flags, payload); err != nil {
		return err
	}
	switch {
	case flags&flagCheckpoint != 0:
		w.ck = payload
	case channel != "":
		indexFrame(&w.segments[len(w.segments)-1], channel, seq, pos, flags&flagTerminal != 0)
	}
	if flags&flagCheckpoint == 0 {
		if w.unsynced[channel]++; w.unsynced[channel] >= w.opts.FsyncEvery || sync {
			if err := w.syncLocked(); err != nil {
				return err
			}
		}
	}
	if w.segments[len(w.segments)-1].bytes < w.opts.SegmentBytes {
		return nil
	}
	return w.rotateLocked()
}

// bufferLocked encodes one record at log position seq into the buffer;
// the next flush writes it to the active segment.
func (w *WAL) bufferLocked(seq uint64, flags byte, payload []byte) error {
	// A new segment's directory entry, and a new log directory's entry
	// in its parent, are made durable before the first record in it.
	for _, dir := range w.dirsPending {
		if err := w.opts.FS.SyncDir(dir); err != nil {
			w.err = fmt.Errorf("netstream: wal dir sync: %w", err)
			return w.err
		}
	}
	w.dirsPending = w.dirsPending[:0]
	act := &w.segments[len(w.segments)-1]
	w.buf = appendRecord(w.buf, seq, flags, payload)
	act.bytes += int64(recHeaderLen + len(payload))
	act.lastSeq = seq
	w.appends.Add(1)
	w.sinceSync++
	return nil
}

// walBufKeep caps the buffer capacity a log keeps between flushes: a
// larger group (a high FsyncEvery with no subscriber) is written and its
// buffer dropped, so an idle log holds at most this much.
const walBufKeep = 64 << 10

// flushLocked writes the buffer to the active segment in one Write.
func (w *WAL) flushLocked() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	_, err := w.active.Write(w.buf) // a short Write returns an error (io.Writer)
	w.buf = w.buf[:0]
	if cap(w.buf) > walBufKeep {
		w.buf = nil
	}
	if err != nil {
		w.err = fmt.Errorf("netstream: wal append: %w", err)
	}
	return w.err
}

// flush writes the buffer for a subscriber's sender, before frames leave
// the process. A nil log (a memory-only hub) has nothing to flush.
func (w *WAL) flush() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

// Sync forces an fsync of the active segment when anything appended is
// not yet durable.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.active == nil || w.sinceSync == 0 {
		return w.err
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := w.active.Sync(); err != nil {
		w.err = fmt.Errorf("netstream: wal fsync: %w", err)
		return w.err
	}
	w.fsyncs.Add(1)
	w.sinceSync = 0
	clear(w.unsynced)
	return nil
}

// rotateLocked closes the active segment, starts the next one — opening
// it with a copy of the newest checkpoint — and applies retention.
func (w *WAL) rotateLocked() error {
	if w.sinceSync > 0 {
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	next := w.nextSeqLocked()
	if err := w.startSegmentLocked(next); err != nil {
		w.err = err
		return err
	}
	if w.ck != nil {
		if err := w.bufferLocked(next, flagCheckpoint, w.ck); err != nil {
			return err
		}
	}
	w.retainLocked()
	return nil
}

// retainLocked deletes the oldest closed segments past the byte budget —
// and, when a shared tenant budget is attached, while the
// tenant's total across all of its logs exceeds that budget. The active
// segment is never deleted.
func (w *WAL) retainLocked() {
	// Settle before consulting the shared budget, so the sweep sees the
	// rotation that triggered it; decrement per dropped segment so
	// sibling logs sweeping concurrently observe the reclaimed space.
	w.settleBudgetLocked()
	total := w.sizeLocked()
	drop := 0
	for drop < len(w.segments)-1 {
		s := &w.segments[drop]
		if total <= w.opts.RetainBytes && !w.opts.Budget.over() {
			break
		}
		if err := w.opts.FS.Remove(s.path); err != nil {
			break // retry on the next rotation
		}
		total -= s.bytes
		if w.opts.Budget != nil {
			w.opts.Budget.add(-s.bytes)
			w.accounted -= s.bytes
		}
		drop++
	}
	if drop > 0 {
		w.segments = append(w.segments[:0], w.segments[drop:]...)
		// Best effort: a removal that is lost in a crash only brings back
		// an old segment, which the next open indexes like any other.
		w.opts.FS.SyncDir(w.dir)
	}
}

// Close releases the active segment (a final sync included, unless the
// log is stopped).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active == nil {
		return nil
	}
	var err error
	if w.sinceSync > 0 && w.err == nil {
		err = w.syncLocked()
	}
	cerr := w.active.Close()
	w.active = nil
	if err == nil {
		err = cerr
	}
	return err
}

// WALReader iterates a log in order, validating checksums: a plain
// reader every record, a channel reader one channel's frames. It never
// reads past the log position captured when it was created.
type WALReader struct {
	wal     *WAL
	channel string // "" = a plain reader
	pos     uint64 // next log position to read
	last    uint64 // snapshot of MaxSeq at creation
	next    uint64 // next sequence to deliver (pos for a plain reader)
	until   uint64 // last sequence to deliver
	f       File
	buf     []byte
	off     int
	fill    int
}

// ReadFrom returns a plain reader from log position start through the
// newest record at creation (later ones are the live hub's business).
func (w *WAL) ReadFrom(start uint64) (*WALReader, error) { return w.ReadChannel("", start) }

// ReadChannel returns a reader over the named channel's frames from
// sequence number from through its newest at creation ("" = a plain
// reader), starting at the channel's first frame in the segment holding
// from, after writing the buffer. A from the log no longer retains fails
// with ErrGap; a stopped log fails with its error.
func (w *WAL) ReadChannel(channel string, from uint64) (*WALReader, error) {
	from = max(from, 1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushLocked(); err != nil {
		return nil, err
	}
	r := &WALReader{wal: w, channel: channel, last: w.maxSeqLocked(), next: from}
	if channel == "" {
		r.pos, r.until = from, r.last
	}
	for i := range w.segments {
		for _, c := range w.segments[i].chans {
			if c.name != channel {
				continue
			}
			if r.pos == 0 && c.last >= from {
				if c.first > from {
					return nil, fmt.Errorf("%w: channel %q retains from seq %d, requested %d", ErrGap, channel, c.first, from)
				}
				r.pos = c.firstPos
			}
			r.until = c.last
		}
	}
	return r, nil
}

// Next returns the next record. The payload is valid until the
// following Next call. Returns io.EOF past the creation-time snapshot.
func (r *WALReader) Next() (WALRecord, error) {
	for {
		if r.next > r.until || r.pos > r.last {
			r.Close()
			return WALRecord{}, io.EOF
		}
		if r.f == nil {
			if err := r.openSegmentFor(r.pos); err != nil {
				return WALRecord{}, err
			}
		}
		full, err := r.readRecord()
		if err == io.EOF {
			// Segment exhausted; move to the one holding r.pos.
			r.f.Close()
			r.f = nil
			continue
		}
		if err != nil {
			r.Close()
			return WALRecord{}, err
		}
		if seq := binary.BigEndian.Uint64(full[8:16]); seq != r.pos {
			if seq < r.pos {
				continue // skipping toward pos inside the first segment
			}
			r.Close()
			return WALRecord{}, fmt.Errorf("%w: reader at seq %d found %d", ErrWALCorrupt, r.pos, seq)
		}
		r.pos++
		// A channel reader passes over checkpoints and the other channels'
		// frames on their headers; it checksums the frames it returns.
		var seq uint64
		if r.channel != "" {
			channel, s, ok := frameHeader(full[recHeaderLen:])
			if full[16]&flagCheckpoint != 0 || !ok || string(channel) != r.channel || s < r.next {
				continue
			}
			seq = s
		}
		rec, _, err := DecodeRecord(full)
		if err != nil {
			r.Close()
			return WALRecord{}, err
		}
		if r.channel == "" {
			r.next = r.pos
			return rec, nil
		}
		if seq != r.next {
			r.Close()
			return WALRecord{}, fmt.Errorf("%w: channel %q reader at seq %d found %d", ErrWALCorrupt, r.channel, r.next, seq)
		}
		r.next, rec.Seq = seq+1, seq
		return rec, nil
	}
}

// openSegmentFor opens the segment containing seq and positions after
// its magic.
func (r *WALReader) openSegmentFor(seq uint64) error {
	r.wal.mu.Lock()
	var path string
	for i := len(r.wal.segments) - 1; i >= 0; i-- {
		s := &r.wal.segments[i]
		if s.firstSeq <= seq {
			if s.lastSeq == 0 || s.lastSeq < seq {
				break // seq not in this or any older segment
			}
			path = s.path
			break
		}
	}
	r.wal.mu.Unlock()
	if path == "" {
		return fmt.Errorf("%w: wal no longer retains seq %d", ErrGap, seq)
	}
	f, err := r.wal.opts.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("netstream: wal reader open: %w", err)
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != walMagic {
		f.Close()
		return fmt.Errorf("%w: reader segment magic", ErrWALCorrupt)
	}
	r.f = f
	r.off, r.fill = 0, 0
	return nil
}

// readRecord reads the bytes of the current segment file's next record,
// unverified.
func (r *WALReader) readRecord() ([]byte, error) {
	hdr, err := r.peek(recHeaderLen)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[0:4]))
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: reader payload length %d", ErrWALCorrupt, n)
	}
	full, err := r.peek(recHeaderLen + n)
	if err != nil {
		return nil, err
	}
	r.off += len(full)
	return full, nil
}

// peek ensures at least n bytes are buffered at r.off and returns them.
// io.EOF at a record boundary means the segment is exhausted.
func (r *WALReader) peek(n int) ([]byte, error) {
	for r.fill-r.off < n {
		if r.off > 0 {
			copy(r.buf, r.buf[r.off:r.fill])
			r.fill -= r.off
			r.off = 0
		}
		if cap(r.buf) < n {
			nb := make([]byte, max(n, 64<<10))
			copy(nb, r.buf[:r.fill])
			r.buf = nb
		}
		r.buf = r.buf[:cap(r.buf)]
		m, err := r.f.Read(r.buf[r.fill:])
		r.fill += m
		if err != nil {
			if err == io.EOF {
				// At a record boundary, or a partial record (a Write still
				// in flight): records past the snapshot are never needed.
				return nil, io.EOF
			}
			return nil, fmt.Errorf("netstream: wal reader: %w", err)
		}
	}
	return r.buf[r.off : r.off+n], nil
}

// Close releases the reader's file handle (idempotent).
func (r *WALReader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}
