package stream

import (
	"fmt"
	"io"
	"time"
)

// Window is one event-time window of tuples, emitted once the window
// closes.
type Window struct {
	// Start and End delimit the window; End is exclusive.
	Start, End time.Time
	// Tuples holds the window's contents in arrival order.
	Tuples []Tuple
}

// TumblingWindows groups a stream into fixed-size, non-overlapping
// event-time windows keyed on the arrival time (the delivery order of
// the polluted stream). Windows align to the first tuple's arrival. A
// window closes when a tuple arrives at or beyond its end; the final
// partial window closes at EOF. Empty windows are not emitted.
type TumblingWindows struct {
	src   Source
	width time.Duration

	cur  *Window
	done bool
	// err latches the stream's terminal error. Once the source fails
	// fatally or the final partial window has been handed out, every
	// further Next call returns the latched error — the final window can
	// never be emitted twice, and a drained operator stays drained.
	err error
}

// NewTumblingWindows wraps src with windows of the given width. A
// non-positive width is a configuration error (historically it was
// silently coerced to one second, hiding misconfigured pipelines).
func NewTumblingWindows(src Source, width time.Duration) (*TumblingWindows, error) {
	if width <= 0 {
		return nil, fmt.Errorf("stream: tumbling window width must be positive, got %v", width)
	}
	return &TumblingWindows{src: src, width: width}, nil
}

// Next returns the next closed window or io.EOF. After a fatal source
// error or EOF the operator is terminal: subsequent calls return the
// same error and never re-emit the final partial window. Tuple-level
// source errors (*TupleError) are passed through without terminating
// the operator, matching the Source error contract.
func (w *TumblingWindows) Next() (Window, error) {
	for {
		if w.err != nil {
			return Window{}, w.err
		}
		if w.done {
			if w.cur != nil {
				out := *w.cur
				w.cur = nil
				w.err = io.EOF
				return out, nil
			}
			w.err = io.EOF
			return Window{}, io.EOF
		}
		t, err := w.src.Next()
		if err == io.EOF {
			w.done = true
			continue
		}
		if err != nil {
			if _, ok := AsTupleError(err); ok {
				// Tuple-level failure: the source remains usable, so the
				// window state is kept and the caller may continue.
				return Window{}, err
			}
			// Fatal: latch and discard the partial window — its contents
			// are not known to be complete.
			w.cur = nil
			w.err = err
			return Window{}, err
		}
		if w.cur == nil {
			w.cur = &Window{Start: t.Arrival, End: t.Arrival.Add(w.width)}
		}
		if t.Arrival.Before(w.cur.End) {
			w.cur.Tuples = append(w.cur.Tuples, t)
			continue
		}
		out := *w.cur
		// Advance the window far enough to contain the new tuple,
		// skipping empty windows.
		start := w.cur.End
		for !t.Arrival.Before(start.Add(w.width)) {
			start = start.Add(w.width)
		}
		if t.Arrival.Before(start) {
			// t belongs to an already skipped range (clock going
			// backwards); fall back to a window anchored at t.
			start = t.Arrival
		}
		w.cur = &Window{Start: start, End: start.Add(w.width), Tuples: []Tuple{t}}
		return out, nil
	}
}

// SlidingWindows groups a bounded stream into overlapping event-time
// windows of the given width, advancing by slide per window (slide <
// width produces overlap; slide == width degrades to tumbling; slide 0
// defaults to width). Windows align to the first tuple's arrival; empty
// windows are skipped. A non-positive width or negative slide is a
// configuration error.
func SlidingWindows(src Source, width, slide time.Duration) ([]Window, error) {
	if width <= 0 {
		return nil, fmt.Errorf("stream: sliding window width must be positive, got %v", width)
	}
	if slide < 0 {
		return nil, fmt.Errorf("stream: sliding window slide must be non-negative, got %v", slide)
	}
	if slide == 0 {
		slide = width
	}
	tuples, err := Drain(src)
	if err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return nil, nil
	}
	first := tuples[0].Arrival
	last := tuples[len(tuples)-1].Arrival
	var out []Window
	for start := first; !start.After(last); start = start.Add(slide) {
		end := start.Add(width)
		win := Window{Start: start, End: end}
		for _, t := range tuples {
			if !t.Arrival.Before(start) && t.Arrival.Before(end) {
				win.Tuples = append(win.Tuples, t)
			}
		}
		if len(win.Tuples) > 0 {
			out = append(out, win)
		}
	}
	return out, nil
}
