package core

import (
	"testing"
	"time"
)

// entriesOf copies l's entries out, in order.
func entriesOf(l *Log) []Entry {
	var out []Entry
	l.All()(func(_ int, e *Entry) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// logOf is a log holding entries.
func logOf(entries ...Entry) *Log {
	l := NewLog()
	for _, e := range entries {
		l.Record(e)
	}
	return l
}

// TestLogRecordAllocs: recording N entries allocates ⌈N/logBlock⌉ blocks
// and the block list, copying no entry twice, and a released log records
// a block's worth of entries again without allocating.
func TestLogRecordAllocs(t *testing.T) {
	e := Entry{TupleID: 1, EventTime: time.Unix(0, 0).UTC(), Polluter: "p", Error: "e"}
	for _, n := range []int{1, logBlock, logBlock + 1, 10*logBlock + 7} {
		blocks := (n + logBlock - 1) / logBlock
		// The block list grows by append: count its allocations apart.
		var list []*[logBlock]Entry
		spine := testing.AllocsPerRun(1, func() {
			list = nil
			for range blocks {
				list = append(list, nil)
			}
		})
		got := testing.AllocsPerRun(10, func() {
			l := NewLog()
			for range n {
				l.Record(e)
			}
		})
		if want := float64(blocks) + spine; got != want {
			t.Errorf("%d records: %v allocs, want %d blocks + %v for the block list", n, got, blocks, spine)
		}
	}

	l := NewLog()
	for range 3 * logBlock {
		l.Record(e)
	}
	l.Release()
	if n := testing.AllocsPerRun(100, func() {
		for range logBlock {
			l.Record(e)
		}
		l.Release()
	}); n != 0 {
		t.Fatalf("a released log allocates %v times per block of entries", n)
	}
	if l.Total() != 3*logBlock+101*logBlock || l.Len() != 0 {
		t.Fatalf("Total %d, Len %d after release", l.Total(), l.Len())
	}
}

// TestLogBlocks: At, All, Truncate and WriteJSON see the entries in
// order across block boundaries.
func TestLogBlocks(t *testing.T) {
	l := NewLog()
	const n = 3*logBlock + 5
	for i := range n {
		l.Record(Entry{TupleID: uint64(i)})
	}
	l.Truncate(2*logBlock + 1)
	l.Record(Entry{TupleID: 1000})
	if l.Len() != 2*logBlock+2 {
		t.Fatalf("Len %d", l.Len())
	}
	for i, e := range entriesOf(l) {
		want := uint64(i)
		if i == 2*logBlock+1 {
			want = 1000
		}
		if e.TupleID != want || l.At(i).TupleID != want {
			t.Fatalf("entry %d: All %d, At %d, want %d", i, e.TupleID, l.At(i).TupleID, want)
		}
	}
	seen := 0
	l.All()(func(i int, _ *Entry) bool {
		seen++
		return i < logBlock
	})
	if seen != logBlock+1 {
		t.Fatalf("All went on %d entries after yield stopped it", seen-logBlock-1)
	}
}
