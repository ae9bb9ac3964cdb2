package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

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

func TestFaultFSShortWriteRecovery(t *testing.T) {
	ffs := &FaultFS{ShortWriteEvery: 2}
	w, err := netstream.OpenWAL(t.TempDir(), netstream.WALOptions{FS: ffs, FsyncEvery: 1000})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()

	const n = 20
	for seq := uint64(1); seq <= n; seq++ {
		payload := []byte{byte(seq)}
		// Every short write tears the append; the WAL rolls it back, so
		// retrying the same sequence must succeed once the fault clears.
		var lastErr error
		ok := false
		for attempt := 0; attempt < 5; attempt++ {
			if lastErr = w.Append(seq, false, payload); lastErr == nil {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("append seq %d never succeeded: %v", seq, lastErr)
		}
	}
	if ffs.ShortWrites() == 0 {
		t.Fatal("fault schedule injected no short writes")
	}
	if got := w.MaxSeq(); got != n {
		t.Fatalf("MaxSeq = %d, want %d", got, n)
	}

	r, err := w.ReadFrom(1)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	defer r.Close()
	for seq := uint64(1); seq <= n; seq++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next at seq %d: %v", seq, err)
		}
		if rec.Seq != seq || len(rec.Payload) != 1 || rec.Payload[0] != byte(seq) {
			t.Fatalf("record %d corrupted after short-write recovery: %+v", seq, rec)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF after %d records, got %v", n, err)
	}
}

func TestFaultFSSyncFailureRetrySameSeq(t *testing.T) {
	// FsyncEvery=1 syncs each append; sync #3 fails, leaving the record
	// in the file but not durable. The retry of the same sequence must
	// complete idempotently (supplying the missing fsync), not wedge on
	// the contiguity check.
	ffs := &FaultFS{SyncFailEvery: 3}
	w, err := netstream.OpenWAL(t.TempDir(), netstream.WALOptions{FS: ffs, FsyncEvery: 1})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()

	for seq := uint64(1); seq <= 6; seq++ {
		var lastErr error
		ok := false
		for attempt := 0; attempt < 5; attempt++ {
			if lastErr = w.Append(seq, false, []byte{byte(seq)}); lastErr == nil {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("append seq %d never succeeded: %v", seq, lastErr)
		}
	}
	if ffs.SyncFails() == 0 {
		t.Fatal("fault schedule injected no sync failures")
	}
	if got := w.MaxSeq(); got != 6 {
		t.Fatalf("MaxSeq = %d, want 6 (duplicate or lost append across sync failure)", got)
	}

	r, err := w.ReadFrom(1)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	defer r.Close()
	for seq := uint64(1); seq <= 6; seq++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next at seq %d: %v", seq, err)
		}
		if rec.Seq != seq {
			t.Fatalf("record out of order: got seq %d, want %d", rec.Seq, seq)
		}
	}
}

// TestFaultFSSyncDirFailure: a failed directory fsync of a new segment
// fails the append that would put the first record in it, before any
// byte of the record is written; once the fault clears, the retry lands.
func TestFaultFSSyncDirFailure(t *testing.T) {
	ffs := &FaultFS{SyncFailEvery: 1}
	w, err := netstream.OpenWAL(t.TempDir(), netstream.WALOptions{FS: ffs, FsyncEvery: 1000})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	if err := w.Append(1, false, []byte("first")); err == nil {
		t.Fatal("append into a segment whose directory sync failed succeeded")
	}
	if ffs.SyncFails() != 1 || w.MaxSeq() != 0 || w.SizeBytes() != 8 {
		t.Fatalf("after the failed directory sync: %d sync failures, max seq %d, %d bytes; want 1, 0 and the bare magic",
			ffs.SyncFails(), w.MaxSeq(), w.SizeBytes())
	}
	ffs.SyncFailEvery = 0
	if err := w.Append(1, false, []byte("first")); err != nil {
		t.Fatalf("retry after the fault cleared: %v", err)
	}
	if w.MaxSeq() != 1 {
		t.Fatalf("MaxSeq = %d after the retry, want 1", w.MaxSeq())
	}
}

func TestFaultFSENOSPC(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{FailAfterBytes: 400}
	w, err := netstream.OpenWAL(dir, netstream.WALOptions{FS: ffs, FsyncEvery: 1})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}

	var full bool
	var landed uint64
	for seq := uint64(1); seq <= 100; seq++ {
		if err := w.Append(seq, false, bytes.Repeat([]byte{byte(seq)}, 16)); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append seq %d: error does not wrap ENOSPC: %v", seq, err)
			}
			full = true
			break
		}
		landed = seq
	}
	if !full {
		t.Fatal("400-byte budget never filled")
	}
	if landed == 0 {
		t.Fatal("no appends landed before the disk filled")
	}
	if ffs.ENOSPCs() == 0 {
		t.Fatal("ENOSPCs() = 0 after a disk-full error")
	}
	w.Close()

	// Everything appended before the disk filled survives a reopen on a
	// healthy filesystem.
	w2, err := netstream.OpenWAL(dir, netstream.WALOptions{})
	if err != nil {
		t.Fatalf("reopen after ENOSPC: %v", err)
	}
	defer w2.Close()
	if got := w2.MaxSeq(); got != landed {
		t.Fatalf("MaxSeq after reopen = %d, want %d", got, landed)
	}
	r, err := w2.ReadFrom(1)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	defer r.Close()
	for seq := uint64(1); seq <= landed; seq++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next at seq %d: %v", seq, err)
		}
		if rec.Seq != seq || !bytes.Equal(rec.Payload, bytes.Repeat([]byte{byte(seq)}, 16)) {
			t.Fatalf("record %d corrupted by disk-full: %+v", seq, rec)
		}
	}
}
