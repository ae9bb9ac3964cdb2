package netstream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecord checks the decode→encode→decode fixed point of the WAL
// record codec: any buffer DecodeRecord accepts must re-encode to the
// identical bytes and decode back to the identical record.
func FuzzWALRecord(f *testing.F) {
	f.Add(AppendRecord(nil, 1, false, []byte(`{"type":"tuple","seq":1}`)))
	f.Add(AppendRecord(nil, 42, true, []byte(`{"type":"eof"}`)))
	f.Add(AppendRecord(nil, 1<<40, false, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrWALCorrupt", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		enc := appendRecord(nil, rec.Seq, recordFlags(rec.Terminal, rec.Checkpoint), rec.Payload)
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", enc, data[:n])
		}
		rec2, n2, err := DecodeRecord(enc)
		if err != nil || n2 != n {
			t.Fatalf("re-decode: n=%d err=%v", n2, err)
		}
		if rec2.Seq != rec.Seq || rec2.Terminal != rec.Terminal || rec2.Checkpoint != rec.Checkpoint || !bytes.Equal(rec2.Payload, rec.Payload) {
			t.Fatal("re-decode record mismatch")
		}
	})
}

// FuzzWALTornTail appends an arbitrary tail to a valid segment and
// checks OpenWAL always recovers: the valid prefix survives intact and
// the log accepts the next contiguous append.
func FuzzWALTornTail(f *testing.F) {
	full := AppendRecord(nil, 4, false, []byte("next"))
	f.Add([]byte{})
	f.Add(full[:1])
	f.Add(full[:len(full)-1])
	f.Add(full)
	f.Add([]byte("garbage that is not a record"))
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		w, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 3; seq++ {
			if err := w.Append(seq, false, []byte(fmt.Sprintf("payload-%d", seq))); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()

		seg := filepath.Join(dir, fmt.Sprintf("%020d.wal", 1))
		fh, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(tail); err != nil {
			t.Fatal(err)
		}
		fh.Close()

		w2, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("OpenWAL after torn tail %x: %v", tail, err)
		}
		defer w2.Close()
		maxSeq := w2.MaxSeq()
		// The tail may itself contain valid contiguous records (the fuzzer
		// can synthesize record 4, 5, ...); anything else must be dropped
		// down to the last valid record.
		if maxSeq < 3 {
			t.Fatalf("valid prefix lost: MaxSeq=%d", maxSeq)
		}
		// The surviving prefix reads back intact.
		r, err := w2.ReadFrom(1)
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("read after recovery: %v", err)
			}
			got++
			if rec.Seq != got {
				t.Fatalf("seq %d at position %d", rec.Seq, got)
			}
			if rec.Seq <= 3 && !bytes.Equal(rec.Payload, []byte(fmt.Sprintf("payload-%d", rec.Seq))) {
				t.Fatalf("payload %d corrupted", rec.Seq)
			}
		}
		if got != maxSeq {
			t.Fatalf("read %d records, MaxSeq says %d", got, maxSeq)
		}
		// And the log accepts the next contiguous append.
		if err := w2.Append(maxSeq+1, false, []byte("resume")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	})
}
