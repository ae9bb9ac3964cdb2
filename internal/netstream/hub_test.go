package netstream

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// publishN publishes n numbered tuple frames on the channel, failing the
// test on error.
func publishN(t *testing.T, h *Hub, channel string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f := &Frame{Type: FrameTuple, Tuple: &WireTuple{ID: uint64(i + 1), Event: "2021-06-01T00:00:00Z", Arrival: "2021-06-01T00:00:00Z"}}
		if err := h.Publish(channel, f); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
}

// recvAll drains sub until a terminal frame or error, returning the
// decoded frames (hello included).
func recvAll(t *testing.T, sub *Subscriber) []*Frame {
	t.Helper()
	var frames []*Frame
	for {
		data, terminal, err := sub.Recv()
		if err != nil {
			t.Fatalf("recv after %d frames: %v", len(frames), err)
		}
		f, err := DecodeFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		if terminal {
			return frames
		}
	}
}

// TestHubReplayAndLiveDelivery: a subscriber present from the start and
// one arriving after completion observe the identical frame sequence.
func TestHubReplayAndLiveDelivery(t *testing.T) {
	h := NewHubNamed(Channels(), 8, 1024, PolicyBlock, nil)
	if err := h.SetHello(ChannelDirty, &Frame{Type: FrameHello, Channel: ChannelDirty}); err != nil {
		t.Fatal(err)
	}

	early, err := h.Subscribe(ChannelDirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()

	var wg sync.WaitGroup
	var earlyFrames []*Frame
	wg.Add(1)
	go func() {
		defer wg.Done()
		earlyFrames = recvAll(t, early)
	}()

	publishN(t, h, ChannelDirty, 20)
	if err := h.Publish(ChannelDirty, &Frame{Type: FrameEOF}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	late, err := h.Subscribe(ChannelDirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	lateFrames := recvAll(t, late)

	if len(earlyFrames) != 22 || len(lateFrames) != 22 { // hello + 20 tuples + eof
		t.Fatalf("frame counts: early %d, late %d, want 22", len(earlyFrames), len(lateFrames))
	}
	for i := range earlyFrames {
		if earlyFrames[i].Type != lateFrames[i].Type || earlyFrames[i].Seq != lateFrames[i].Seq {
			t.Errorf("frame %d differs: early %s/%d, late %s/%d", i,
				earlyFrames[i].Type, earlyFrames[i].Seq, lateFrames[i].Type, lateFrames[i].Seq)
		}
	}
	if earlyFrames[0].Type != FrameHello {
		t.Errorf("first frame = %s, want hello", earlyFrames[0].Type)
	}
	if got := earlyFrames[len(earlyFrames)-1].Type; got != FrameEOF {
		t.Errorf("last frame = %s, want eof", got)
	}
}

// TestHubFromSeqResume: subscribing with from_seq resumes mid-stream
// without duplicates, and a from_seq older than the ring reports ErrGap.
func TestHubFromSeqResume(t *testing.T) {
	h := NewHubNamed(Channels(), 4, 8, PolicyBlock, nil)
	publishN(t, h, ChannelDirty, 30) // ring retains seq 23..30
	if err := h.Publish(ChannelDirty, &Frame{Type: FrameEOF}); err != nil {
		t.Fatal(err)
	} // ring now 24..31

	sub, err := h.Subscribe(ChannelDirty, 24)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	frames := recvAll(t, sub)
	if len(frames) != 8 { // 24..31, no hello configured
		t.Fatalf("got %d frames, want 8", len(frames))
	}
	if frames[0].Seq != 24 {
		t.Errorf("first replayed seq = %d, want 24", frames[0].Seq)
	}

	if _, err := h.Subscribe(ChannelDirty, 5); !errors.Is(err, ErrGap) {
		t.Fatalf("expected ErrGap for evicted seq, got %v", err)
	}
	if _, err := h.Subscribe("bogus", 0); err == nil {
		t.Fatal("expected error for unknown channel")
	}
}

// stepReader reads exactly one frame from sub (which must be available:
// either replayed or just delivered into its buffer).
func stepReader(t *testing.T, sub *Subscriber) *Frame {
	t.Helper()
	data, _, err := sub.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	f, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestHubDropOldest: a subscriber that never reads loses its oldest
// frames — counted — while the publisher and a keeping-up subscriber
// proceed unimpeded. The fast subscriber reads in lockstep with the
// publisher, which makes the schedule deterministic.
func TestHubDropOldest(t *testing.T) {
	h := NewHubNamed(Channels(), 4, 256, PolicyDropOldest, nil)

	slow, err := h.Subscribe(ChannelDirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := h.Subscribe(ChannelDirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	var fastFrames []*Frame
	for i := 0; i < 100; i++ {
		publishN(t, h, ChannelDirty, 1)
		fastFrames = append(fastFrames, stepReader(t, fast))
	}
	if err := h.Publish(ChannelDirty, &Frame{Type: FrameEOF}); err != nil {
		t.Fatal(err)
	}
	fastFrames = append(fastFrames, stepReader(t, fast))

	if len(fastFrames) != 101 || fastFrames[100].Type != FrameEOF {
		t.Errorf("fast subscriber got %d frames (last %s), want 101 ending in eof", len(fastFrames), fastFrames[len(fastFrames)-1].Type)
	}
	if fast.Dropped() != 0 {
		t.Errorf("fast subscriber dropped %d frames, want 0", fast.Dropped())
	}
	if slow.Dropped() == 0 {
		t.Error("slow subscriber should have dropped frames")
	}
	// The slow subscriber's queue holds the newest frames; drain and
	// check the terminal frame survived the evictions.
	slowFrames := recvAll(t, slow)
	if got := slowFrames[len(slowFrames)-1].Type; got != FrameEOF {
		t.Errorf("slow subscriber's last frame = %s, want eof", got)
	}
	if len(slowFrames)+int(slow.Dropped()) != 101 {
		t.Errorf("conservation: delivered %d + dropped %d != 101 published", len(slowFrames), slow.Dropped())
	}
}

// TestHubDisconnectSlow: the slow subscriber is cut with ErrSlowClient
// after its buffered frames drain; a keeping-up subscriber and the
// publisher never stall.
func TestHubDisconnectSlow(t *testing.T) {
	h := NewHubNamed(Channels(), 4, 256, PolicyDisconnectSlow, nil)

	slow, err := h.Subscribe(ChannelDirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := h.Subscribe(ChannelDirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	var fastFrames []*Frame
	for i := 0; i < 100; i++ {
		publishN(t, h, ChannelDirty, 1)
		fastFrames = append(fastFrames, stepReader(t, fast))
	}
	if err := h.Publish(ChannelDirty, &Frame{Type: FrameEOF}); err != nil {
		t.Fatal(err)
	}
	fastFrames = append(fastFrames, stepReader(t, fast))
	if len(fastFrames) != 101 || fastFrames[100].Type != FrameEOF {
		t.Errorf("fast subscriber got %d frames, want 101 ending in eof", len(fastFrames))
	}
	if h.slowDisconnects.Load() == 0 {
		t.Error("expected a counted slow disconnect")
	}

	// The slow subscriber still drains what was buffered, then observes
	// the disconnect cause.
	drained := 0
	for {
		_, _, err := slow.Recv()
		if err != nil {
			if !errors.Is(err, ErrSlowClient) {
				t.Fatalf("terminal error = %v, want ErrSlowClient", err)
			}
			break
		}
		drained++
	}
	if drained == 0 || drained > 4 {
		t.Errorf("slow subscriber drained %d frames, want 1..4 (its buffer)", drained)
	}
}

// TestHubBlockPolicy: under block, a stalled subscriber throttles the
// publisher, and no frame is ever lost once it resumes.
func TestHubBlockPolicy(t *testing.T) {
	h := NewHubNamed(Channels(), 2, 256, PolicyBlock, nil)
	sub, err := h.Subscribe(ChannelDirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	published := make(chan struct{})
	go func() {
		defer close(published)
		publishN(t, h, ChannelDirty, 50)
		if err := h.Publish(ChannelDirty, &Frame{Type: FrameEOF}); err != nil {
			t.Errorf("eof publish: %v", err)
		}
	}()

	// Give the publisher a moment: it must stall with the queue full.
	select {
	case <-published:
		t.Fatal("publisher finished although the subscriber never read (block policy)")
	case <-time.After(50 * time.Millisecond):
	}

	frames := recvAll(t, sub) // consuming unblocks the publisher
	<-published
	if len(frames) != 51 {
		t.Errorf("got %d frames, want 51 (lossless)", len(frames))
	}
	for i, f := range frames[:50] {
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d, want %d", i, f.Seq, i+1)
		}
	}
}

// TestHubTerminalLatch: publishing after a terminal frame fails, and
// closed hubs refuse publishes and subscriptions.
func TestHubTerminalLatch(t *testing.T) {
	h := NewHubNamed(Channels(), 4, 16, PolicyBlock, nil)
	publishN(t, h, ChannelDirty, 3)
	if err := h.Publish(ChannelDirty, &Frame{Type: FrameEOF}); err != nil {
		t.Fatal(err)
	}
	if err := h.Publish(ChannelDirty, &Frame{Type: FrameTuple, Tuple: &WireTuple{ID: 9}}); err == nil {
		t.Fatal("expected publish after eof to fail")
	}
	if err := h.Publish("bogus", &Frame{Type: FrameTuple}); err == nil {
		t.Fatal("expected publish on unknown channel to fail")
	}

	h.Close()
	h.Close() // idempotent
	if err := h.Publish(ChannelClean, &Frame{Type: FrameTuple, Tuple: &WireTuple{ID: 1}}); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("publish after close = %v, want ErrHubClosed", err)
	}
	if _, err := h.Subscribe(ChannelDirty, 0); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("subscribe after close = %v, want ErrHubClosed", err)
	}
}

// TestHubCloseDrains: Hub.Close lets connected subscribers drain their
// buffered frames before reporting ErrHubClosed.
func TestHubCloseDrains(t *testing.T) {
	h := NewHubNamed(Channels(), 16, 64, PolicyBlock, nil)
	sub, err := h.Subscribe(ChannelDirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, h, ChannelDirty, 5)
	h.Close()

	got := 0
	for {
		_, _, err := sub.Recv()
		if err != nil {
			if !errors.Is(err, ErrHubClosed) {
				t.Fatalf("terminal error = %v, want ErrHubClosed", err)
			}
			break
		}
		got++
	}
	if got != 5 {
		t.Errorf("drained %d frames after close, want 5", got)
	}
}

// TestHubSubscriberCountStable: Close is idempotent on the aggregate
// subscriber gauge.
func TestHubSubscriberCountStable(t *testing.T) {
	h := NewHubNamed(Channels(), 4, 16, PolicyBlock, nil)
	subs := make([]*Subscriber, 0, 3)
	for i := 0; i < 3; i++ {
		s, err := h.Subscribe(ChannelLog, 0)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if got := h.subscribers.Load(); got != 3 {
		t.Fatalf("subscribers = %d, want 3", got)
	}
	for _, s := range subs {
		s.Close()
		s.Close() // double close must not double-decrement
	}
	if got := h.subscribers.Load(); got != 0 {
		t.Errorf("subscribers after close = %d, want 0", got)
	}
}

// TestHubConcurrentSubscribeUnsubscribe hammers subscribe/close while a
// publisher runs, for the race detector.
func TestHubConcurrentSubscribeUnsubscribe(t *testing.T) {
	h := NewHubNamed(Channels(), 4, 512, PolicyDropOldest, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f := &Frame{Type: FrameTuple, Tuple: &WireTuple{ID: uint64(i + 1), Event: "2021-06-01T00:00:00Z", Arrival: "2021-06-01T00:00:00Z"}}
			if err := h.Publish(ChannelDirty, f); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub, err := h.Subscribe(ChannelDirty, 0)
				if err != nil {
					if errors.Is(err, ErrGap) {
						continue // ring moved past the beginning; expected
					}
					t.Errorf("subscribe: %v", err)
					return
				}
				if _, _, err := sub.Recv(); err != nil && !errors.Is(err, ErrHubClosed) && !errors.Is(err, ErrSlowClient) {
					t.Errorf("recv: %v", err)
				}
				sub.Close()
			}
		}(g)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := h.subscribers.Load(); got != 0 {
		t.Errorf("subscribers after churn = %d, want 0", got)
	}
}
