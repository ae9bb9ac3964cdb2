package netstream

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// ringPayloads counts the ring entries, in every block, that still hold
// a payload.
func ringPayloads(r *frameRing) int {
	n := 0
	for _, b := range r.blocks {
		for _, sf := range b {
			if sf.data != nil {
				n++
			}
		}
	}
	return n
}

// TestHubRingRetention pins the replay ring's contract around the block
// size: it keeps exactly the last replay frames, oldest first, reports
// the oldest as a gap's ServerMin, and releases every evicted payload.
// The ring is one short of a block, a block, one or two past it, or
// several blocks ending 7 or 10 entries into the last; k evicts
// nothing, one frame, a block, a block and one, or twice the ring.
func TestHubRingRetention(t *testing.T) {
	const B = ringBlock
	for _, replay := range []int{B - 1, B, B + 1, B + 2, 3*B + 7, 3*B + 10} {
		for _, k := range []int{0, 1, B, B + 1, 2 * replay} {
			t.Run(fmt.Sprintf("replay=%d/k=%d", replay, k), func(t *testing.T) {
				h := NewHubNamed(Channels(), 8, replay, PolicyBlock, nil)
				ring := &h.channels[ChannelDirty].ring
				for i := 1; i <= replay+k; i++ {
					publishN(t, h, ChannelDirty, 1)
					if got := ringPayloads(ring); got != min(i, replay) {
						t.Fatalf("after %d frames %d ring entries hold a payload, want %d", i, got, min(i, replay))
					}
				}

				// The model: the ring holds seqs k+1 .. replay+k.
				oldest := uint64(k + 1)
				var gap *GapError
				sub, err := h.Subscribe(ChannelDirty, 0)
				switch {
				case k == 0 && err != nil:
					t.Fatalf("Subscribe(0) with nothing evicted: %v", err)
				case k == 0:
					sub.Close()
				case !errors.As(err, &gap) || gap.ServerMin != oldest:
					t.Fatalf("Subscribe(0) = %v, want a gap with ServerMin %d", err, oldest)
				}
				if k > 0 {
					if _, err := h.Subscribe(ChannelDirty, oldest-1); !errors.As(err, &gap) || gap.ServerMin != oldest {
						t.Fatalf("Subscribe(%d) = %v, want a gap with ServerMin %d", oldest-1, err, oldest)
					}
				}

				sub, err = h.Subscribe(ChannelDirty, oldest)
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				if err := h.Publish(ChannelDirty, &Frame{Type: FrameEOF}); err != nil {
					t.Fatal(err)
				}
				eof := uint64(replay + k + 1)
				for want := oldest; want <= eof; want++ {
					data, terminal, err := sub.Recv()
					if err != nil {
						t.Fatal(err)
					}
					f, err := DecodeFrame(data)
					if err != nil {
						t.Fatal(err)
					}
					if f.Seq != want || terminal != (want == eof) {
						t.Fatalf("got seq %d terminal %v, want seq %d terminal %v", f.Seq, terminal, want, want == eof)
					}
				}
				if got := ringPayloads(ring); got != replay {
					t.Fatalf("after the eof %d ring entries hold a payload, want %d", got, replay)
				}
			})
		}
	}
}

// TestHubRingSteadyStateBytes: once the ring is full, a published frame
// costs its payload and no ring growth.
func TestHubRingSteadyStateBytes(t *testing.T) {
	const replay, frames = 4096, 10 * 4096
	tu := codecCases[0].tuple(fuzzSchema(), 0)
	h := NewHubNamed([]string{ChannelDirty}, 8, replay, PolicyBlock, nil)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			if err := h.PublishTuple(ChannelDirty, tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(replay)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	publish(frames)
	runtime.ReadMemStats(&after)

	ring := &h.channels[ChannelDirty].ring
	// The newest payload has the longest seq varint, so its capacity is
	// the largest size class a frame of the run was allocated in.
	sizeClass := cap(ring.at(ring.n - 1).data)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / frames
	t.Logf("%.1f B per frame, payload size class %d", perFrame, sizeClass)
	if perFrame > float64(sizeClass+16) {
		t.Errorf("a full ring allocates %.1f B per frame, want <= %d (payload size class %d + 16)", perFrame, sizeClass+16, sizeClass)
	}
}

// TestHubRingFillBytes: while the ring fills, a frame costs its payload's
// size class, its 32-byte entry, under 1 B share of its block's
// allocator header and rounding (255 entries fill the 8 KiB size
// class), and under 2 B of block index.
func TestHubRingFillBytes(t *testing.T) {
	if unsafe.Sizeof([]byte(nil)) != 24 {
		t.Skip("the entry size is stated for 64-bit slices")
	}
	const frames = 64 * ringBlock
	tu := codecCases[0].tuple(fuzzSchema(), 0)
	h := NewHubNamed([]string{ChannelDirty}, 8, frames, PolicyBlock, nil)
	h.trackDelivery = true // a stamped entry is no larger
	if err := h.PublishTuple(ChannelDirty, tu); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < frames; i++ {
		if err := h.PublishTuple(ChannelDirty, tu); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)

	ring := &h.channels[ChannelDirty].ring
	sizeClass := cap(ring.at(ring.n - 1).data)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / (frames - 1)
	t.Logf("%.1f B per frame, payload size class %d", perFrame, sizeClass)
	if limit := float64(sizeClass + 32 + 1 + 2); perFrame > limit {
		t.Errorf("a filling ring allocates %.1f B per frame, want <= %.0f (payload size class %d + 32 B entry + 1 B block rounding + 2 B index)", perFrame, limit, sizeClass)
	}
}

// TestHubRingDerivedSeq: an entry's seq is its position, so after any
// number of evictions the ring's first seq is the oldest payload's own,
// and a gap reports it as ServerMin.
func TestHubRingDerivedSeq(t *testing.T) {
	const replay = ringBlock + 3
	h := NewHubNamed([]string{ChannelDirty}, 8, replay, PolicyBlock, nil)
	ring := &h.channels[ChannelDirty].ring
	for _, total := range []int{1, replay, replay + 1, 3*ringBlock + 5} {
		publishN(t, h, ChannelDirty, total-int(h.Seq(ChannelDirty)))
		for i := 0; i < ring.n; i++ {
			f, err := DecodeFrame(ring.at(i).data)
			if err != nil {
				t.Fatal(err)
			}
			if want := ring.first + uint64(i); f.Seq != want {
				t.Fatalf("after %d frames entry %d holds seq %d, its position says %d", total, i, f.Seq, want)
			}
		}
		oldest, err := DecodeFrame(ring.at(0).data)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := h.Subscribe(ChannelDirty, 0)
		if total <= replay {
			if err != nil {
				t.Fatalf("after %d frames, nothing evicted: %v", total, err)
			}
			sub.Close()
			continue
		}
		var gap *GapError
		if !errors.As(err, &gap) || gap.ServerMin != oldest.Seq || gap.ServerMin != uint64(total-replay+1) {
			t.Fatalf("after %d frames Subscribe(0) = %v, want a gap with ServerMin %d", total, err, oldest.Seq)
		}
	}
}

// TestHubRingReplayTerminal: a subscriber that comes after the end is
// served the whole channel from the ring, and only the last frame it
// gets is terminal — after an eof and after a memory-only error.
func TestHubRingReplayTerminal(t *testing.T) {
	for _, end := range []*Frame{{Type: FrameEOF}, {Type: FrameError, Error: "boom"}} {
		t.Run(end.Type, func(t *testing.T) {
			const frames = ringBlock + 2
			h := NewHubNamed([]string{ChannelDirty}, 8, 2*ringBlock, PolicyBlock, nil)
			publishN(t, h, ChannelDirty, frames)
			if err := h.Publish(ChannelDirty, end); err != nil {
				t.Fatal(err)
			}
			for _, from := range []uint64{0, frames, frames + 1} {
				sub, err := h.Subscribe(ChannelDirty, from)
				if err != nil {
					t.Fatal(err)
				}
				last := uint64(frames + 1)
				for want := max(from, 1); want <= last; want++ {
					data, terminal, err := sub.Recv()
					if err != nil {
						t.Fatalf("from %d, seq %d: %v", from, want, err)
					}
					f, err := DecodeFrame(data)
					if err != nil {
						t.Fatal(err)
					}
					if f.Seq != want || terminal != (want == last) || terminal != (f.Type == end.Type) {
						t.Fatalf("from %d: got %s seq %d terminal %v, want seq %d terminal %v", from, f.Type, f.Seq, terminal, want, want == last)
					}
				}
				if sub.more() {
					t.Fatalf("from %d: frames left after the terminal one", from)
				}
				sub.Close()
			}
		})
	}
}
