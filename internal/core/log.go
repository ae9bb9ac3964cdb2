package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
	"unicode/utf8"

	"icewafl/internal/obs"
)

// Entry records one injected error: which polluter hit which tuple, which
// error function it applied, and on which attributes. Together with the
// retained clean stream, the log is the ground truth used to score error-
// detection tools (the "Log Data" output of Figure 2).
type Entry struct {
	TupleID   uint64    `json:"tuple_id"`
	SubStream int       `json:"sub_stream"`
	EventTime time.Time `json:"event_time"`
	Polluter  string    `json:"polluter"`
	Error     string    `json:"error"`
	Attrs     []string  `json:"attrs,omitempty"`
}

// logBlock is the number of entries in one block of a log: 85 × 96 B
// and the allocator's 8-byte header for an object with pointers fill the
// 8 KiB size class.
const logBlock = 85

// entryBlocks holds entries in fixed blocks, so recording one never
// copies those already held. Blocks past n are kept for reuse.
type entryBlocks struct {
	blocks []*[logBlock]Entry
	n      int
}

// at returns the i-th entry.
func (b *entryBlocks) at(i int) *Entry { return &b.blocks[i/logBlock][i%logBlock] }

// push appends e.
func (b *entryBlocks) push(e *Entry) {
	if b.n == len(b.blocks)*logBlock {
		b.blocks = append(b.blocks, new([logBlock]Entry))
	}
	*b.at(b.n) = *e
	b.n++
}

// Log accumulates pollution entries. It is not safe for concurrent use;
// a run keeps one log, and each entry names its sub-stream.
type Log struct {
	entries entryBlocks
	// Obs, when set, mirrors the log's ground truth into metrics:
	// Record counts log_entries_total and the per-polluter pollution
	// counters, Truncate unwinds them, and the polluters report their
	// condition hit/miss tallies through it. The counters therefore
	// satisfy sum(polluted_by) == log_entries_total == Total() exactly,
	// including under quarantine rollback.
	Obs *obs.Registry

	released int // entries handed on and dropped by Release
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Record appends an entry.
func (l *Log) Record(e Entry) {
	if l == nil {
		return
	}
	l.entries.push(&e)
	if l.Obs != nil {
		l.Obs.Inc(obs.CLogEntries)
		l.Obs.AddPolluted(e.Polluter, 1)
	}
}

// Truncate discards the entries from mark on — the fault-rollback
// primitive: when a tuple's pollution fails mid-pipeline, the runner
// rolls the log back to the mark it took before the tuple, so the
// ground truth only describes delivered tuples. Attached metrics are
// unwound symmetrically.
func (l *Log) Truncate(mark int) {
	if l == nil || mark < 0 || mark >= l.entries.n {
		return
	}
	if l.Obs != nil {
		l.Obs.Sub(obs.CLogEntries, uint64(l.entries.n-mark))
		for i := mark; i < l.entries.n; i++ {
			l.Obs.AddPolluted(l.entries.at(i).Polluter, -1)
		}
	}
	l.entries.n = mark
}

// Release drops every recorded entry, for a consumer that has handed
// them on (published, written) and must not retain a stream's whole
// history. Call it between Next calls of the run, when no entry can
// still be rolled back. The first block is kept for the next entries,
// so a consumer that releases after every few entries allocates
// nothing; Total keeps counting the released entries.
func (l *Log) Release() {
	l.released += l.entries.n
	l.entries.n = 0
	if len(l.entries.blocks) > 1 {
		clear(l.entries.blocks[1:])
		l.entries.blocks = l.entries.blocks[:1]
	}
}

// Total returns the number of entries recorded over the log's life,
// released or not.
func (l *Log) Total() int { return l.released + l.entries.n }

// condHit / condMiss count polluter-gate condition evaluations. They
// ride on the log because the log is the one object already threaded
// through every Pollute call; with logging disabled (or no registry
// attached) they are no-ops.
func (l *Log) condHit() {
	if l != nil && l.Obs != nil {
		l.Obs.Inc(obs.CCondHits)
	}
}

func (l *Log) condMiss() {
	if l != nil && l.Obs != nil {
		l.Obs.Inc(obs.CCondMisses)
	}
}

// Len returns the number of recorded errors (0 for a nil log).
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.entries.n
}

// At returns the i-th recorded entry, 0 <= i < Len(). The pointer is
// valid until Truncate or Release drops the entry.
func (l *Log) At(i int) *Entry {
	if i < 0 || i >= l.Len() {
		panic(fmt.Sprintf("core: log entry %d of %d", i, l.Len())) // lint:allowpanic — an index out of range, as on a slice
	}
	return l.entries.at(i)
}

// All returns an iterator over the recorded entries in order, with
// their indices (a nil log has none).
func (l *Log) All() func(yield func(int, *Entry) bool) {
	return func(yield func(int, *Entry) bool) {
		n := l.Len()
		for b := 0; b*logBlock < n; b++ {
			blk := l.entries.blocks[b]
			for j := range min(logBlock, n-b*logBlock) {
				if !yield(b*logBlock+j, &blk[j]) {
					return
				}
			}
		}
	}
}

// PollutedTuples returns the set of tuple IDs that received at least one
// error.
func (l *Log) PollutedTuples() map[uint64]bool {
	out := make(map[uint64]bool)
	l.All()(func(_ int, e *Entry) bool {
		out[e.TupleID] = true
		return true
	})
	return out
}

// CountByPolluter tallies entries per polluter name.
func (l *Log) CountByPolluter() map[string]int {
	out := make(map[string]int)
	l.All()(func(_ int, e *Entry) bool {
		out[e.Polluter]++
		return true
	})
	return out
}

// CountByError tallies entries per error kind.
func (l *Log) CountByError() map[string]int {
	out := make(map[string]int)
	l.All()(func(_ int, e *Entry) bool {
		out[e.Error]++
		return true
	})
	return out
}

// CountByHour tallies entries per hour of day of the event time — the
// histogram behind Figure 4.
func (l *Log) CountByHour() [24]int {
	var out [24]int
	l.All()(func(_ int, e *Entry) bool {
		out[e.EventTime.Hour()]++
		return true
	})
	return out
}

// AppendJSON appends the entry as one JSON object, byte-identical to
// encoding/json's rendering of the struct (field order, omitted empty
// attrs, HTML-safe string escaping, RFC3339Nano event time with its
// zone) without reflecting over it.
func (e *Entry) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"tuple_id":`...)
	dst = strconv.AppendUint(dst, e.TupleID, 10)
	dst = append(dst, `,"sub_stream":`...)
	dst = strconv.AppendInt(dst, int64(e.SubStream), 10)
	dst = append(dst, `,"event_time":"`...)
	dst = e.EventTime.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","polluter":`...)
	dst = appendJSONString(dst, e.Polluter)
	dst = append(dst, `,"error":`...)
	dst = appendJSONString(dst, e.Error)
	for i, a := range e.Attrs {
		if i == 0 {
			dst = append(dst, `,"attrs":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, a)
	}
	if len(e.Attrs) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// MarshalJSON hands encoding/json the same rendering wherever an entry
// is marshalled through a pointer (a frame's entry at the HTTP edge).
func (e *Entry) MarshalJSON() ([]byte, error) { return e.AppendJSON(nil), nil }

// appendJSONString appends s as a JSON string literal exactly as
// encoding/json does by default: control characters, `"`, `\`, the
// HTML-sensitive `<>&` and U+2028/U+2029 are escaped, invalid UTF-8
// becomes \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// logChunk is how many rendered bytes WriteJSON gathers per Write.
const logChunk = 32 << 10

// WriteJSON serialises the log as JSON lines, one entry per line, in
// bounded chunks so that huge logs stream to disk without being
// buffered whole.
func (l *Log) WriteJSON(w io.Writer) error {
	var buf []byte
	var err error
	l.All()(func(i int, e *Entry) bool {
		buf = append(e.AppendJSON(buf), '\n')
		if len(buf) < logChunk && i < l.Len()-1 {
			return true
		}
		if _, werr := w.Write(buf); werr != nil {
			err = fmt.Errorf("core: write log entry %d: %w", i, werr)
			return false
		}
		buf = buf[:0]
		return true
	})
	return err
}

// ReadLogJSON parses a JSON-lines log written by WriteJSON.
func ReadLogJSON(r io.Reader) (*Log, error) {
	dec := json.NewDecoder(r)
	l := NewLog()
	for {
		var e Entry
		if err := dec.Decode(&e); err == io.EOF {
			return l, nil
		} else if err != nil {
			return nil, fmt.Errorf("core: read log: %w", err)
		}
		l.Record(e)
	}
}
