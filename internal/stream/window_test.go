package stream

import (
	"io"
	"testing"
	"time"
)

func windowedTuples(t *testing.T, gapsAt map[int]bool, n int) (*Schema, []Tuple) {
	t.Helper()
	s := testSchema(t)
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	var out []Tuple
	for i := 0; i < n; i++ {
		if gapsAt[i] {
			continue
		}
		tp := NewTuple(s, []Value{Time(base.Add(time.Duration(i) * time.Minute)), Float(float64(i))})
		tp.EventTime, _ = tp.Timestamp()
		tp.Arrival = tp.EventTime
		out = append(out, tp)
	}
	return s, out
}

// mustTumbling builds a TumblingWindows or fails the test.
func mustTumbling(t *testing.T, src Source, width time.Duration) *TumblingWindows {
	t.Helper()
	w, err := NewTumblingWindows(src, width)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// drainWindows pulls every window of w, failing the test on an error.
func drainWindows(t *testing.T, w *TumblingWindows) []Window {
	t.Helper()
	var out []Window
	for {
		win, err := w.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, win)
	}
}

func TestTumblingWindowsBasic(t *testing.T) {
	s, tuples := windowedTuples(t, nil, 30) // 30 minutes of data
	w := mustTumbling(t, NewSliceSource(s, tuples), 10*time.Minute)
	wins := drainWindows(t, w)
	if len(wins) != 3 {
		t.Fatalf("%d windows", len(wins))
	}
	for i, win := range wins {
		if len(win.Tuples) != 10 {
			t.Fatalf("window %d has %d tuples", i, len(win.Tuples))
		}
		if !win.End.Equal(win.Start.Add(10 * time.Minute)) {
			t.Fatalf("window %d bounds %v..%v", i, win.Start, win.End)
		}
		for _, tp := range win.Tuples {
			if tp.Arrival.Before(win.Start) || !tp.Arrival.Before(win.End) {
				t.Fatalf("tuple %v outside window %v..%v", tp.Arrival, win.Start, win.End)
			}
		}
	}
}

func TestTumblingWindowsSkipsEmpty(t *testing.T) {
	gaps := map[int]bool{}
	for i := 10; i < 20; i++ {
		gaps[i] = true // second window entirely empty
	}
	s, tuples := windowedTuples(t, gaps, 30)
	wins := drainWindows(t, mustTumbling(t, NewSliceSource(s, tuples), 10*time.Minute))
	if len(wins) != 2 {
		t.Fatalf("%d windows, want 2 (empty skipped)", len(wins))
	}
	if len(wins[0].Tuples) != 10 || len(wins[1].Tuples) != 10 {
		t.Fatalf("window sizes %d, %d", len(wins[0].Tuples), len(wins[1].Tuples))
	}
	if !wins[1].Start.Equal(wins[0].Start.Add(20 * time.Minute)) {
		t.Fatalf("second window start %v", wins[1].Start)
	}
}

func TestTumblingWindowsEmptyStream(t *testing.T) {
	s := testSchema(t)
	w := mustTumbling(t, NewSliceSource(s, nil), time.Minute)
	if wins := drainWindows(t, w); len(wins) != 0 {
		t.Fatalf("%d windows", len(wins))
	}
	// After drain the operator stays terminal.
	if _, err := w.Next(); err != io.EOF {
		t.Fatalf("Next after drain of empty stream = %v, want io.EOF", err)
	}
}

func TestTumblingWindowsNonPositiveWidth(t *testing.T) {
	s, tuples := windowedTuples(t, nil, 3)
	for _, width := range []time.Duration{0, -time.Second} {
		if _, err := NewTumblingWindows(NewSliceSource(s, tuples), width); err == nil {
			t.Fatalf("width %v accepted, want configuration error", width)
		}
	}
}

// TestTumblingWindowsNoDoubleEmitAfterDrain is the EOF-path regression
// test: once the final partial window has been handed out, every later
// Next call must return io.EOF and never re-emit that window.
func TestTumblingWindowsNoDoubleEmitAfterDrain(t *testing.T) {
	s, tuples := windowedTuples(t, nil, 25) // 2 full windows + 1 partial
	w := mustTumbling(t, NewSliceSource(s, tuples), 10*time.Minute)
	wins := drainWindows(t, w)
	if len(wins) != 3 || len(wins[2].Tuples) != 5 {
		t.Fatalf("windows %d (final %d tuples), want 3 with partial 5", len(wins), len(wins[len(wins)-1].Tuples))
	}
	// Drained: repeated Next calls stay io.EOF, no window reappears.
	for i := 0; i < 3; i++ {
		win, err := w.Next()
		if err != io.EOF {
			t.Fatalf("Next #%d after drain = (%d tuples, %v), want io.EOF", i, len(win.Tuples), err)
		}
		if len(win.Tuples) != 0 {
			t.Fatalf("Next #%d after drain re-emitted %d tuples", i, len(win.Tuples))
		}
	}
}

// TestTumblingWindowsBoundaryTuple pins the half-open [Start, End)
// contract: a tuple arriving exactly on a window boundary opens the next
// window instead of landing in the previous one.
func TestTumblingWindowsBoundaryTuple(t *testing.T) {
	s := testSchema(t)
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(at time.Duration) Tuple {
		tp := NewTuple(s, []Value{Time(base.Add(at)), Float(float64(at))})
		tp.EventTime, _ = tp.Timestamp()
		tp.Arrival = tp.EventTime
		return tp
	}
	// Tuples at 0m, 9m59.999s, exactly 10m, 10m1s with 10-minute windows.
	tuples := []Tuple{mk(0), mk(10*time.Minute - time.Millisecond), mk(10 * time.Minute), mk(10*time.Minute + time.Second)}
	wins := drainWindows(t, mustTumbling(t, NewSliceSource(s, tuples), 10*time.Minute))
	if len(wins) != 2 {
		t.Fatalf("%d windows, want 2", len(wins))
	}
	if len(wins[0].Tuples) != 2 {
		t.Fatalf("first window has %d tuples, want 2 (boundary tuple excluded)", len(wins[0].Tuples))
	}
	if len(wins[1].Tuples) != 2 {
		t.Fatalf("second window has %d tuples, want 2 (boundary tuple opens it)", len(wins[1].Tuples))
	}
	if !wins[1].Start.Equal(base.Add(10 * time.Minute)) {
		t.Fatalf("second window starts %v, want exactly the boundary", wins[1].Start)
	}
}

// TestTumblingWindowsOutOfOrderAcrossEnd covers delayed tuples arriving
// out of order across a window end: a tuple whose arrival regressed
// behind the current window's end still lands in the open window (the
// operator windows on delivery order, closing only on forward progress),
// and a regression behind an already-skipped range re-anchors cleanly.
func TestTumblingWindowsOutOfOrderAcrossEnd(t *testing.T) {
	s := testSchema(t)
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(at time.Duration) Tuple {
		tp := NewTuple(s, []Value{Time(base.Add(at)), Float(float64(at))})
		tp.EventTime, _ = tp.Timestamp()
		tp.Arrival = tp.EventTime
		return tp
	}
	// Delivery order: 1m, 11m (closes window 1, opens [10m,20m)), then a
	// delayed 9m tuple — late, behind the open window's start.
	tuples := []Tuple{mk(time.Minute), mk(11 * time.Minute), mk(9 * time.Minute)}
	wins := drainWindows(t, mustTumbling(t, NewSliceSource(s, tuples), 10*time.Minute))
	// The late tuple arrives while [10m,20m) is open; it is before End so
	// it joins that window (late data is not dropped).
	if len(wins) != 2 {
		t.Fatalf("%d windows, want 2", len(wins))
	}
	if len(wins[1].Tuples) != 2 {
		t.Fatalf("open window absorbed %d tuples, want 2 (incl. late arrival)", len(wins[1].Tuples))
	}
	// A tuple regressing far behind the open window's start (25m while
	// [41m,51m) is open) is still delivered into the open window: windows
	// key on delivery order and close only on forward progress, so late
	// data is absorbed rather than dropped or re-opening closed windows.
	tuples = []Tuple{mk(time.Minute), mk(45 * time.Minute), mk(25 * time.Minute)}
	wins = drainWindows(t, mustTumbling(t, NewSliceSource(s, tuples), 10*time.Minute))
	if len(wins) != 2 {
		t.Fatalf("%d windows, want 2", len(wins))
	}
	if len(wins[1].Tuples) != 2 {
		t.Fatalf("open window absorbed %d tuples, want 2", len(wins[1].Tuples))
	}
	if !wins[1].Start.Equal(base.Add(41 * time.Minute)) {
		t.Fatalf("second window starts %v, want 41m (anchored by forward progress)", wins[1].Start)
	}
}

// failAfterSource yields n tuples then fails fatally.
type failAfterSource struct {
	src  Source
	n    int
	seen int
	err  error
}

func (f *failAfterSource) Schema() *Schema { return f.src.Schema() }
func (f *failAfterSource) Next() (Tuple, error) {
	if f.seen >= f.n {
		return Tuple{}, f.err
	}
	f.seen++
	return f.src.Next()
}

// TestTumblingWindowsFatalErrorLatch checks that a fatal source error is
// latched: the partial window is discarded and every later Next repeats
// the error instead of resurrecting half-built state.
func TestTumblingWindowsFatalErrorLatch(t *testing.T) {
	s, tuples := windowedTuples(t, nil, 15)
	boom := errTest("window source failed")
	w := mustTumbling(t, &failAfterSource{src: NewSliceSource(s, tuples), n: 13, err: boom}, 10*time.Minute)
	// First window (10 tuples) closes normally.
	win, err := w.Next()
	if err != nil || len(win.Tuples) != 10 {
		t.Fatalf("first window: %d tuples, %v", len(win.Tuples), err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Next(); err != boom {
			t.Fatalf("Next #%d after fatal error = %v, want latched %v", i, err, boom)
		}
	}
}

// errTest is a trivial comparable error type.
type errTest string

func (e errTest) Error() string { return string(e) }

func TestSlidingWindows(t *testing.T) {
	s, tuples := windowedTuples(t, nil, 30)
	wins, err := SlidingWindows(NewSliceSource(s, tuples), 10*time.Minute, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Windows start every 5 minutes from minute 0 through 25: 6 windows.
	if len(wins) != 6 {
		t.Fatalf("%d windows", len(wins))
	}
	// Interior windows hold 10 tuples; the final ones run off the end.
	if len(wins[0].Tuples) != 10 || len(wins[5].Tuples) != 5 {
		t.Fatalf("window sizes %d, %d", len(wins[0].Tuples), len(wins[5].Tuples))
	}
	// Consecutive windows overlap by 5 tuples.
	lastOfFirst := wins[0].Tuples[9]
	firstOfSecond := wins[1].Tuples[0]
	if !firstOfSecond.Arrival.Before(lastOfFirst.Arrival) && !firstOfSecond.Arrival.Equal(lastOfFirst.Arrival.Add(-4*time.Minute)) {
		// weaker check: window 1 starts inside window 0.
		if !wins[1].Start.Before(wins[0].End) {
			t.Fatal("windows do not overlap")
		}
	}
	// slide == width degrades to tumbling.
	tumb, err := SlidingWindows(NewSliceSource(s, tuples), 10*time.Minute, 10*time.Minute)
	if err != nil || len(tumb) != 3 {
		t.Fatalf("tumbling degrade: %d windows, %v", len(tumb), err)
	}
	// Empty stream.
	empty, err := SlidingWindows(NewSliceSource(s, nil), time.Minute, time.Minute)
	if err != nil || empty != nil {
		t.Fatalf("empty: %v %v", empty, err)
	}
	// Non-positive width and negative slide are configuration errors.
	if _, err := SlidingWindows(NewSliceSource(s, tuples), 0, 0); err == nil {
		t.Fatal("zero width accepted, want configuration error")
	}
	if _, err := SlidingWindows(NewSliceSource(s, tuples), time.Minute, -time.Second); err == nil {
		t.Fatal("negative slide accepted, want configuration error")
	}
	// Zero slide defaults to width (tumbling).
	def, err := SlidingWindows(NewSliceSource(s, tuples), 10*time.Minute, 0)
	if err != nil || len(def) != 3 {
		t.Fatalf("zero-slide default: %d windows, %v", len(def), err)
	}
}
