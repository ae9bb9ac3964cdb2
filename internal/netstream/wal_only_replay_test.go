package netstream

// A hub with a session log attached has one replay path, the log: it
// keeps no ring beside it, opening it reads each segment once, and
// nothing a subscriber can observe depended on the second copy.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// readCountFS counts read-only opens per file under the real filesystem.
type readCountFS struct {
	FS
	mu    sync.Mutex
	reads map[string]int
}

func (c *readCountFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		c.mu.Lock()
		c.reads[name]++
		c.mu.Unlock()
	}
	return c.FS.OpenFile(name, flag, perm)
}

// TestNewServerReadsEachWALSegmentOnce: recovery over an existing WAL
// directory reads every segment exactly once — OpenWAL's validation
// scan; nothing re-reads the log to build a second replay path.
func TestNewServerReadsEachWALSegmentOnce(t *testing.T) {
	const seed, n = 7, 400
	stateDir := t.TempDir()
	walDir := filepath.Join(stateDir, "wal")
	cfg := serverConfig(t, seed, n)
	cfg.StateDir = stateDir
	cfg.WAL = WALOptions{SegmentBytes: 4 << 10}
	srv1, _, _, stop1 := startStoppableServer(t, cfg)
	waitPipelineDone(t, srv1)
	if err := srv1.PipelineErr(); err != nil {
		t.Fatal(err)
	}
	stop1()

	fs := &readCountFS{FS: OSFS(), reads: make(map[string]int)}
	cfg2 := serverConfig(t, seed, n)
	cfg2.StateDir = stateDir
	cfg2.WAL = WALOptions{SegmentBytes: 4 << 10, FS: fs}
	srv2, err := newServer(cfg2, "", nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Hub().WAL(ChannelDirty).Close()

	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	segments, bad := 0, []string(nil)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), walSuffix) {
			continue
		}
		segments++
		path := filepath.Join(walDir, e.Name())
		if got := fs.reads[path]; got != 1 {
			bad = append(bad, fmt.Sprintf("%s: %d times", path, got))
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d of %d segments not opened for reading exactly once, e.g. %s", len(bad), segments, bad[0])
	}
	if segments < 6 {
		t.Fatalf("only %d segments on disk; the run should have rotated the session log", segments)
	}
}

// walHub returns a block-policy hub backed by a session log, with a
// small buffer and ring capacity.
func walHub(t *testing.T, replay int) *Hub {
	t.Helper()
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	h := NewHubNamed(Channels(), 8, replay, PolicyBlock, nil)
	h.attachLog(w)
	return h
}

// recvSeqs drains sub through its terminal frame and checks that the
// sequence numbers run 1..want with no gap and no duplicate.
func recvSeqs(sub *Subscriber, want uint64) error {
	for next := uint64(1); ; next++ {
		data, terminal, err := sub.Recv()
		if err != nil {
			return fmt.Errorf("recv at seq %d: %w", next, err)
		}
		f, err := DecodeFrame(data)
		if err != nil {
			return err
		}
		if f.Seq != next {
			return fmt.Errorf("got seq %d, want %d", f.Seq, next)
		}
		if terminal {
			if next != want {
				return fmt.Errorf("stream ended at seq %d, want %d", next, want)
			}
			return nil
		}
	}
}

// TestHubWALChannelKeepsNoRing: after far more than Replay frames a
// WAL-backed channel retains none of them in memory, and a from_seq=1
// subscriber still receives every frame in order, then the live ones.
func TestHubWALChannelKeepsNoRing(t *testing.T) {
	const replay = 32
	h := walHub(t, replay)
	publishN(t, h, ChannelDirty, 3*replay)

	h.mu.Lock()
	retained := h.channels[ChannelDirty].ring.n
	h.mu.Unlock()
	if retained != 0 {
		t.Fatalf("wal-backed channel retains %d ring frames, want 0", retained)
	}

	sub, err := h.Subscribe(ChannelDirty, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	done := make(chan error, 1)
	go func() { done <- recvSeqs(sub, 3*replay+10+1) }()
	publishN(t, h, ChannelDirty, 10)
	if err := h.Publish(ChannelDirty, &Frame{Type: FrameEOF}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestHubWALSubscribeRacingPublish: subscribers that join from seq 1
// while the publisher is mid-stream stitch the log replay to live
// delivery with no gap and no duplicate.
func TestHubWALSubscribeRacingPublish(t *testing.T) {
	const n, subscribers = 3000, 6
	h := walHub(t, 32)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Spread the joins over the publisher's run.
			for h.Seq(ChannelDirty) < uint64(i*n/subscribers) {
				runtime.Gosched()
			}
			sub, err := h.Subscribe(ChannelDirty, 1)
			if err != nil {
				t.Errorf("subscriber %d: %v", i, err)
				return
			}
			defer sub.Close()
			if err := recvSeqs(sub, n+1); err != nil {
				t.Errorf("subscriber %d: %v", i, err)
			}
		}(i)
	}
	publishN(t, h, ChannelDirty, n)
	if err := h.Publish(ChannelDirty, &Frame{Type: FrameEOF}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
