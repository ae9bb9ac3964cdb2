package netstream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// minSeq returns the oldest retained log position (0 when empty).
func minSeq(w *WAL) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.segments {
		if w.segments[i].lastSeq != 0 {
			return w.segments[i].firstSeq
		}
	}
	return 0
}

// appendN appends frames [from, to] with deterministic payloads.
func appendN(t *testing.T, w *WAL, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := w.Append(seq, false, walPayload(seq)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
}

func walPayload(seq uint64) []byte {
	return []byte(fmt.Sprintf(`{"type":"tuple","seq":%d,"values":["v%d"]}`, seq, seq))
}

// drainReader reads every record from start.
func drainReader(t *testing.T, w *WAL, start uint64) []WALRecord {
	t.Helper()
	r, err := w.ReadFrom(start)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []WALRecord
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		rec.Payload = append([]byte(nil), rec.Payload...)
		out = append(out, rec)
	}
}

func TestWALAppendReadRoundTrip(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{FsyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 100)
	if err := w.Append(101, true, []byte(`{"type":"eof"}`)); err != nil {
		t.Fatal(err)
	}
	if got, want := minSeq(w), uint64(1); got != want {
		t.Errorf("MinSeq = %d, want %d", got, want)
	}
	if got, want := w.MaxSeq(), uint64(101); got != want {
		t.Errorf("MaxSeq = %d, want %d", got, want)
	}
	recs := drainReader(t, w, 1)
	if len(recs) != 101 {
		t.Fatalf("read %d records, want 101", len(recs))
	}
	for i, rec := range recs[:100] {
		if rec.Seq != uint64(i+1) || rec.Terminal {
			t.Fatalf("record %d: seq %d terminal %v", i, rec.Seq, rec.Terminal)
		}
		if !bytes.Equal(rec.Payload, walPayload(rec.Seq)) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
	if !recs[100].Terminal {
		t.Error("last record not terminal")
	}
	// Mid-stream resume.
	tail := drainReader(t, w, 60)
	if len(tail) != 42 || tail[0].Seq != 60 {
		t.Fatalf("ReadFrom(60): %d records starting at %d", len(tail), tail[0].Seq)
	}
}

func TestWALSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 512, FsyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 50)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{SegmentBytes: 512, FsyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.MaxSeq(); got != 50 {
		t.Fatalf("reopened MaxSeq = %d, want 50", got)
	}
	if w2.Segments() < 2 {
		t.Errorf("expected rotation with 512-byte segments, got %d segment(s)", w2.Segments())
	}
	// Appends continue seamlessly across the reopen.
	appendN(t, w2, 51, 80)
	recs := drainReader(t, w2, 1)
	if len(recs) != 80 {
		t.Fatalf("read %d records after reopen, want 80", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, rec.Seq)
		}
	}
}

// TestWALTornTailTruncation: a crash mid-append leaves a partial record;
// reopening drops exactly the torn tail and keeps every whole record.
func TestWALTornTailTruncation(t *testing.T) {
	for _, tear := range []int{1, 5, recHeaderLen, recHeaderLen + 3} {
		t.Run(fmt.Sprintf("tear=%d", tear), func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 1, 10)
			w.Close()

			// Simulate the torn append: a prefix of record 11.
			full := AppendRecord(nil, 11, false, walPayload(11))
			seg := filepath.Join(dir, fmt.Sprintf("%020d.wal", 1))
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(full[:tear]); err != nil {
				t.Fatal(err)
			}
			f.Close()

			w2, err := OpenWAL(dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if got := w2.MaxSeq(); got != 10 {
				t.Fatalf("MaxSeq after torn tail = %d, want 10", got)
			}
			if w2.TruncatedBytes() == 0 {
				t.Error("expected truncated bytes to be recorded")
			}
			// The same sequence can now be re-appended (recovery replays it).
			if err := w2.Append(11, false, walPayload(11)); err != nil {
				t.Fatalf("re-append after truncation: %v", err)
			}
			recs := drainReader(t, w2, 1)
			if len(recs) != 11 {
				t.Fatalf("read %d records, want 11", len(recs))
			}
		})
	}
}

// TestWALCorruptMiddleSegmentFails: corruption outside the torn tail of
// the last segment is an error, not a silent truncation.
func TestWALCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 40) // forces several segments
	if w.Segments() < 3 {
		t.Fatalf("need >=3 segments, got %d", w.Segments())
	}
	w.Close()

	// Flip a payload byte in the first segment.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenWAL(dir, WALOptions{SegmentBytes: 256}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("OpenWAL on corrupt middle segment = %v, want ErrWALCorrupt", err)
	}
}

func TestWALRetentionByBytes(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{SegmentBytes: 512, RetainBytes: 1500})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 200)
	if got := minSeq(w); got == 1 {
		t.Error("retention never dropped the oldest segment")
	}
	if got := w.SizeBytes(); got > 1500+512 {
		t.Errorf("retained %d bytes, budget 1500 (+1 active segment)", got)
	}
	// The retained range still reads back contiguously.
	min, max := minSeq(w), w.MaxSeq()
	recs := drainReader(t, w, min)
	if uint64(len(recs)) != max-min+1 {
		t.Fatalf("read %d records, want %d", len(recs), max-min+1)
	}
	// Reading past retention reports the gap.
	r, err := w.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); !errors.Is(err, ErrGap) {
		t.Fatalf("reading evicted seq 1 = %v, want ErrGap", err)
	}
}

func TestWALRetentionByAge(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	w, err := OpenWAL(t.TempDir(), WALOptions{SegmentBytes: 512, RetainAge: time.Hour, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 40)
	before := w.Segments()
	now = now.Add(2 * time.Hour) // everything ages out
	appendN(t, w, 41, 80)        // rotations apply retention
	if w.Segments() >= before+3 {
		t.Errorf("age retention kept %d segments (was %d)", w.Segments(), before)
	}
	if minSeq(w) == 1 {
		t.Error("age retention never dropped the oldest segment")
	}
}

// TestWALRetentionAgeClockStartsAtOpen is the restart-retention
// regression: segments recovered at OpenWAL must age out RetainAge
// after the reopen, not RetainAge after their file mtime. A long-idle
// session's first post-restart rotation previously mass-dropped the
// whole recovered log — exactly the replay window a resuming
// subscriber was about to ask for.
func TestWALRetentionAgeClockStartsAtOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 512, RetainAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 50)
	if w.Segments() < 3 {
		t.Fatalf("need >=3 segments to make the drop observable, got %d", w.Segments())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The daemon was down for two days: every segment file's mtime is
	// far past RetainAge by the time it restarts.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-48 * time.Hour)
	for _, e := range entries {
		if err := os.Chtimes(filepath.Join(dir, e.Name()), old, old); err != nil {
			t.Fatal(err)
		}
	}

	w2, err := OpenWAL(dir, WALOptions{SegmentBytes: 512, RetainAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// Enough appends to force rotations (and thus retention sweeps).
	appendN(t, w2, 51, 90)
	if got := minSeq(w2); got != 1 {
		t.Fatalf("first post-restart rotation dropped recovered segments: MinSeq = %d, want 1", got)
	}
	recs := drainReader(t, w2, 1)
	if len(recs) != 90 {
		t.Fatalf("read %d records after restart, want 90", len(recs))
	}
}

// TestWALBudgetSharedAcrossLogs: one tenant budget tracks the combined
// on-disk size of several logs, recovers its accounting across reopen,
// and releases a log's bytes when it detaches.
func TestWALBudgetSharedAcrossLogs(t *testing.T) {
	budget := NewWALBudget(0) // unlimited: track without enforcing
	dirA, dirB := t.TempDir(), t.TempDir()
	wa, err := OpenWAL(dirA, WALOptions{SegmentBytes: 512, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := OpenWAL(dirB, WALOptions{SegmentBytes: 512, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, wa, 1, 40)
	appendN(t, wb, 1, 25)
	if got, want := budget.Used(), wa.SizeBytes()+wb.SizeBytes(); got != want {
		t.Fatalf("budget.Used = %d, want %d (sum of both logs)", got, want)
	}

	// Detach-then-reopen (the durable delete/recreate protocol): the
	// ledger must return to exactly the reopened on-disk size, not
	// double-count the recovered segments.
	wa.ReleaseBudget()
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}
	if got := budget.Used(); got != wb.SizeBytes() {
		t.Fatalf("after release: budget.Used = %d, want %d (only log B)", got, wb.SizeBytes())
	}
	wa2, err := OpenWAL(dirA, WALOptions{SegmentBytes: 512, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer wa2.Close()
	if got, want := budget.Used(), wa2.SizeBytes()+wb.SizeBytes(); got != want {
		t.Fatalf("after reopen: budget.Used = %d, want %d", got, want)
	}
	wb.ReleaseBudget()
	wb.Close()
	if got := budget.Used(); got != wa2.SizeBytes() {
		t.Fatalf("after releasing B: budget.Used = %d, want %d", got, wa2.SizeBytes())
	}
}

// TestWALBudgetEnforcedByRetention: when the shared total exceeds the
// budget's limit, the retention sweep drops a log's oldest closed
// segments even though its own RetainBytes is nowhere near exceeded.
func TestWALBudgetEnforcedByRetention(t *testing.T) {
	budget := NewWALBudget(1500)
	w, err := OpenWAL(t.TempDir(), WALOptions{SegmentBytes: 512, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 200)
	if got := minSeq(w); got == 1 {
		t.Error("budget retention never dropped the oldest segment")
	}
	// The sweep runs at rotation, so the ledger may briefly carry the
	// freshly rotated segment on top of the limit.
	if got := budget.Used(); got > 1500+512 {
		t.Errorf("budget.Used = %d, limit 1500 (+1 segment slack)", got)
	}
	// The retained range still reads back contiguously.
	min, max := minSeq(w), w.MaxSeq()
	recs := drainReader(t, w, min)
	if uint64(len(recs)) != max-min+1 {
		t.Fatalf("read %d records, want %d", len(recs), max-min+1)
	}
}

func TestWALFsyncBatching(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{FsyncEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 25)
	if got := w.Fsyncs(); got != 2 {
		t.Errorf("25 appends at FsyncEvery=10: %d fsyncs, want 2", got)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Fsyncs(); got != 3 {
		t.Errorf("explicit Sync: %d fsyncs, want 3", got)
	}
	if err := w.Sync(); err != nil { // nothing dirty: no extra fsync
		t.Fatal(err)
	}
	if got := w.Fsyncs(); got != 3 {
		t.Errorf("redundant Sync issued an fsync (%d)", got)
	}
	// Terminal records force a sync.
	if err := w.Append(26, true, []byte("eof")); err != nil {
		t.Fatal(err)
	}
	if got := w.Fsyncs(); got != 4 {
		t.Errorf("terminal append: %d fsyncs, want 4", got)
	}
}

func TestWALRejectsOutOfOrderAppend(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 5)
	if err := w.Append(7, false, walPayload(7)); err == nil {
		t.Error("gap append accepted")
	}
	if err := w.Append(5, false, walPayload(5)); err == nil {
		t.Error("duplicate append accepted")
	}
}

// TestWALConcurrentReadDuringAppend: a reader created mid-run sees a
// consistent prefix while the writer keeps appending.
func TestWALConcurrentReadDuringAppend(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 100)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(101); seq <= 300; seq++ {
			if err := w.Append(seq, false, walPayload(seq)); err != nil {
				t.Errorf("append %d: %v", seq, err)
				return
			}
		}
	}()
	recs := drainReader(t, w, 1)
	<-done
	if len(recs) < 100 {
		t.Fatalf("reader saw %d records, want >= 100", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, rec.Seq)
		}
	}
}
