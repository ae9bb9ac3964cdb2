package stream

import "io"

// Sink consumes tuples at the end of a pipeline. Close is called once the
// stream is exhausted so buffered sinks can flush.
type Sink interface {
	// Write consumes one tuple.
	Write(Tuple) error
	// Close flushes the sink.
	Close() error
}

// DiscardSink drops every tuple.
type DiscardSink struct{}

// Write implements Sink.
func (DiscardSink) Write(Tuple) error { return nil }

// Close implements Sink.
func (DiscardSink) Close() error { return nil }

// Copy pumps src into sink until EOF, closing the sink afterwards. It
// returns the number of tuples moved.
func Copy(sink Sink, src Source) (int, error) {
	n := 0
	for {
		t, err := src.Next()
		if err == io.EOF {
			return n, sink.Close()
		}
		if err != nil {
			sink.Close()
			return n, err
		}
		if err := sink.Write(t); err != nil {
			return n, err
		}
		n++
	}
}
