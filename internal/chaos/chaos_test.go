package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/netstream"
)

// echoServer accepts connections and writes payload to each, then
// closes. Returns its address and a stop func.
func echoServer(t *testing.T, payload []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(payload)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func readAll(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	got, _ := io.ReadAll(conn)
	return got
}

func TestProxyTransparentForwarding(t *testing.T) {
	payload := bytes.Repeat([]byte("icewafl"), 1000)
	target := echoServer(t, payload)
	p, err := NewProxy("127.0.0.1:0", ProxyConfig{Target: target, Seed: 7})
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer p.Close()

	got := readAll(t, p.Addr())
	if !bytes.Equal(got, payload) {
		t.Fatalf("forwarded payload differs: got %d bytes, want %d", len(got), len(payload))
	}
	if p.Conns() != 1 {
		t.Fatalf("Conns() = %d, want 1", p.Conns())
	}
	if p.Forwarded() != uint64(len(payload)) {
		t.Fatalf("Forwarded() = %d, want %d", p.Forwarded(), len(payload))
	}
	if p.Corrupted() != 0 || p.Kills() != 0 {
		t.Fatalf("clean config injected faults: corrupted=%d kills=%d", p.Corrupted(), p.Kills())
	}
}

func TestProxyCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte{0x00}, 8192)
	target := echoServer(t, payload)
	p, err := NewProxy("127.0.0.1:0", ProxyConfig{Target: target, Seed: 7, CorruptProb: 1.0})
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer p.Close()

	got := readAll(t, p.Addr())
	if len(got) != len(payload) {
		t.Fatalf("corruption changed length: got %d, want %d", len(got), len(payload))
	}
	if bytes.Equal(got, payload) {
		t.Fatal("CorruptProb=1 delivered the payload unmodified")
	}
	if p.Corrupted() == 0 {
		t.Fatal("Corrupted() = 0 with CorruptProb=1")
	}
}

func TestProxyKillAfterBytes(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 10000)
	target := echoServer(t, payload)
	p, err := NewProxy("127.0.0.1:0", ProxyConfig{Target: target, Seed: 7, KillAfterBytes: 2500})
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer p.Close()

	got := readAll(t, p.Addr())
	if int64(len(got)) > 2500 {
		t.Fatalf("received %d bytes past the 2500-byte kill budget", len(got))
	}
	if p.Kills() != 1 {
		t.Fatalf("Kills() = %d, want 1", p.Kills())
	}

	// A fresh connection gets a fresh budget: the kill is per-conn, so a
	// resuming client makes progress.
	got2 := readAll(t, p.Addr())
	if len(got2) == 0 {
		t.Fatal("second connection received nothing")
	}
	if p.Kills() != 2 {
		t.Fatalf("Kills() after second conn = %d, want 2", p.Kills())
	}
}

func TestProxyThrottle(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 8192)
	target := echoServer(t, payload)
	// 64 KiB/s over 8 KiB ≈ 125ms minimum; assert a loose lower bound to
	// stay robust on slow CI.
	p, err := NewProxy("127.0.0.1:0", ProxyConfig{Target: target, Seed: 7, ThrottleBytesPerSec: 64 * 1024})
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer p.Close()

	start := time.Now()
	got := readAll(t, p.Addr())
	elapsed := time.Since(start)
	if !bytes.Equal(got, payload) {
		t.Fatalf("throttled payload differs: got %d bytes, want %d", len(got), len(payload))
	}
	if elapsed < 60*time.Millisecond {
		t.Fatalf("throttle had no effect: 8 KiB at 64 KiB/s took %v", elapsed)
	}
}

// TestWALFailStop: the first failed write, fsync or rotation stops the
// log. The failing call returns the injected error, every later append
// and sync returns it too without writing a byte, and a reopen on a
// healthy filesystem reads back every record written before the
// failure, never a torn one. An append is written with its fsync group,
// so at FsyncEvery 1 that is every acknowledged record plus at most the
// whole record of the failed call, and at FsyncEvery 4 every record of
// the groups before the failed one.
func TestWALFailStop(t *testing.T) {
	cases := []struct {
		name  string
		fs    *FaultFS
		opts  netstream.WALOptions
		want  error
		acked uint64 // appends that succeed before the failing one
		kept  uint64 // records a reopen reads back
	}{
		// Write 1 is the segment's magic, write k+1 record k.
		{"short write", &FaultFS{ShortWriteEvery: 5}, netstream.WALOptions{FsyncEvery: 1}, io.ErrShortWrite, 3, 3},
		// 8 + 6×33 bytes land; the seventh record finds the budget spent.
		{"ENOSPC", &FaultFS{FailAfterBytes: 200}, netstream.WALOptions{FsyncEvery: 1}, syscall.ENOSPC, 6, 6},
		// Write 2 is the first group, records 1–4 (8 + 4×33 bytes in
		// all); the second group's write, at append 8, finds the budget
		// spent, and its records 5–7 were never written.
		{"write of a group", &FaultFS{FailAfterBytes: 100}, netstream.WALOptions{FsyncEvery: 4}, syscall.ENOSPC, 7, 4},
		// Sync 1 is the new segment's directory, sync 3 record 2's fsync.
		{"file fsync", &FaultFS{SyncFailEvery: 3}, netstream.WALOptions{FsyncEvery: 1}, errInjectedSync, 1, 2},
		// Record 3 fills the first segment (sync 2); the second
		// segment's directory sync (3) precedes record 4.
		{"directory fsync of a new segment", &FaultFS{SyncFailEvery: 3}, netstream.WALOptions{FsyncEvery: 1000, SegmentBytes: 100}, errInjectedSync, 3, 3},
		// Record 3 fills the first segment; the rotation's fsync fails.
		{"fsync at a rotation", &FaultFS{SyncFailEvery: 2}, netstream.WALOptions{FsyncEvery: 1000, SegmentBytes: 100}, errInjectedSync, 2, 3},
	}
	payload := func(seq uint64) []byte { return bytes.Repeat([]byte{byte(seq)}, 16) }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.opts.FS = tc.fs
			w, err := netstream.OpenWAL(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			seq := uint64(1)
			for ; seq <= 20; seq++ {
				if err = w.Append(seq, false, payload(seq)); err != nil {
					break
				}
			}
			if seq-1 != tc.acked || !errors.Is(err, tc.want) {
				t.Fatalf("append %d failed with %v; want append %d to fail with %v", seq, err, tc.acked+1, tc.want)
			}
			writes := func() int64 {
				tc.fs.mu.Lock()
				defer tc.fs.mu.Unlock()
				return tc.fs.writes
			}
			before := writes()
			later := map[string]func() error{
				"Append":           func() error { return w.Append(seq, false, payload(seq)) },
				"Append next":      func() error { return w.Append(seq+1, false, payload(seq+1)) },
				"AppendFrame":      func() error { return w.AppendFrame("c", 1, false, true, payload(seq)) },
				"AppendCheckpoint": func() error { return w.AppendCheckpoint(&core.Checkpoint{Version: core.CheckpointVersion}) },
				"Sync":             w.Sync,
			}
			for name, call := range later {
				if err := call(); !errors.Is(err, tc.want) {
					t.Errorf("%s after the failure: %v, want %v", name, err, tc.want)
				}
			}
			if after := writes(); after != before {
				t.Errorf("the stopped log wrote %d more times", after-before)
			}
			if err := w.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}

			w2, err := netstream.OpenWAL(dir, netstream.WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if got := w2.MaxSeq(); got != tc.kept {
				t.Fatalf("reopened log ends at %d, want %d", got, tc.kept)
			}
			r, err := w2.ReadFrom(1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for seq := uint64(1); seq <= tc.kept; seq++ {
				if rec, err := r.Next(); err != nil || rec.Seq != seq || !bytes.Equal(rec.Payload, payload(seq)) {
					t.Fatalf("record %d after reopen: %+v, %v", seq, rec, err)
				}
			}
		})
	}
}
