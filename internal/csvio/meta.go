package csvio

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"icewafl/internal/stream"
)

// Algorithm 1's step 3 emits tuples of the form (id, i, a1, …, ak, ts):
// the pollution-immune tuple identifier and the sub-stream index travel
// with the data so downstream consumers can join the polluted stream
// back to the clean one. MetaWriter/MetaReader implement that format as
// CSV: two leading columns `_id` and `_substream` before the schema's
// attributes, optionally followed by `_arrival` — the delivery
// timestamp. Without `_arrival`, the reader re-derives Arrival from the
// timestamp attribute, which erases delayed-tuple pollution (a delayed
// tuple's arrival is precisely NOT its event time); with it, windowed
// consumers reproduce the live stream's window boundaries exactly.

// MetaColumns are the reserved metadata column names.
var MetaColumns = []string{"_id", "_substream"}

// ArrivalColumn is the optional third metadata column carrying the
// tuple's arrival time (RFC3339 with nanoseconds).
const ArrivalColumn = "_arrival"

// arrivalTime is the `_arrival` encoding: RFC3339Nano, matching the
// netstream wire format so round trips are exact.
const arrivalTime = time.RFC3339Nano

// MetaWriter encodes tuples with their identity metadata, rendering
// rows as Writer does.
type MetaWriter struct {
	w       Writer
	arrival bool
}

// NewMetaWriter wraps w.
func NewMetaWriter(w io.Writer, schema *stream.Schema) *MetaWriter {
	return &MetaWriter{w: Writer{schema: schema, w: bufio.NewWriter(w), lead: MetaColumns}}
}

// IncludeArrival adds the `_arrival` column so delayed arrivals survive
// the round trip. Must be called before the first Write.
func (w *MetaWriter) IncludeArrival() {
	w.arrival = true
	w.w.lead = slices.Concat(MetaColumns, []string{ArrivalColumn})
}

// OmitHeader marks the header as already written (checkpoint resume).
func (w *MetaWriter) OmitHeader() { w.w.OmitHeader() }

// Flush pushes buffered rows to the underlying writer.
func (w *MetaWriter) Flush() error {
	if err := w.w.w.Flush(); err != nil {
		return fmt.Errorf("csvio: flush meta: %w", err)
	}
	return nil
}

// Write implements stream.Sink.
func (w *MetaWriter) Write(t stream.Tuple) error {
	if err := w.w.writeHeader(); err != nil {
		return fmt.Errorf("csvio: write meta header: %w", err)
	}
	b := strconv.AppendUint(w.w.row[:0], t.ID, 10)
	b = strconv.AppendInt(append(b, ','), int64(t.SubStream), 10)
	if w.arrival {
		b = t.Arrival.UTC().AppendFormat(append(b, ','), arrivalTime)
	}
	if t.Len() > 0 {
		b = appendCells(append(b, ','), t.Values(), t.Text())
	}
	if err := w.w.endRow(b); err != nil {
		return fmt.Errorf("csvio: write meta row: %w", err)
	}
	return nil
}

// Close implements stream.Sink.
func (w *MetaWriter) Close() error {
	if err := w.w.writeHeader(); err != nil {
		return err
	}
	return w.Flush()
}

// MetaReader decodes the metadata format back into tuples with ID and
// SubStream restored. When the header carries the optional `_arrival`
// column, Arrival is restored exactly; otherwise EventTime and Arrival
// are re-derived from the timestamp attribute.
type MetaReader struct {
	schema  *stream.Schema
	rec     *recordReader
	row     int
	arrival bool
}

// NewMetaReader wraps r, validating the header (the `_arrival` column
// is detected from it).
func NewMetaReader(r io.Reader, schema *stream.Schema) (*MetaReader, error) {
	rec := newRecordReader(r, 0)
	header, err := rec.readStrings()
	if err != nil {
		return nil, fmt.Errorf("csvio: read meta header: %w", err)
	}
	for i, name := range MetaColumns {
		if i >= len(header) || header[i] != name {
			return nil, fmt.Errorf("csvio: meta column %d is missing or not %q", i, name)
		}
	}
	meta := len(MetaColumns)
	arrival := false
	if len(header) > meta && header[meta] == ArrivalColumn {
		arrival = true
		meta++
	}
	if len(header) != meta+schema.Len() {
		return nil, fmt.Errorf("csvio: meta header has %d columns, want %d", len(header), meta+schema.Len())
	}
	for i, name := range schema.Names() {
		if header[meta+i] != name {
			return nil, fmt.Errorf("csvio: header column %d is %q, schema expects %q",
				meta+i, header[meta+i], name)
		}
	}
	// Every data row must match the header's shape.
	rec.want = meta + schema.Len()
	return &MetaReader{schema: schema, rec: rec, row: 1, arrival: arrival}, nil
}

// Schema implements stream.Source.
func (r *MetaReader) Schema() *stream.Schema { return r.schema }

// Next implements stream.Source. Each field is parsed as it is split;
// a malformed record outranks a bad field, and the first bad field
// outranks the later ones.
func (r *MetaReader) Next() (stream.Tuple, error) {
	if err := r.rec.begin(); err != nil {
		return stream.Tuple{}, err
	}
	row := r.row + 1
	meta := len(MetaColumns)
	if r.arrival {
		meta++
	}
	var (
		id      uint64
		sub     int64
		arrival time.Time
		values  []stream.Value
		bad     error
	)
	for i := 0; ; i++ {
		f, ok := r.rec.field()
		if !ok {
			break
		}
		if bad != nil || i >= meta+r.schema.Len() {
			continue
		}
		var err error
		switch {
		case i == 0:
			if id, err = strconv.ParseUint(string(f), 10, 64); err != nil {
				bad = fmt.Errorf("csvio: meta row %d: bad _id %q: %w", row, f, err)
			}
		case i == 1:
			if sub, err = strconv.ParseInt(string(f), 10, 32); err != nil {
				bad = fmt.Errorf("csvio: meta row %d: bad _substream %q: %w", row, f, err)
			}
		case i < meta:
			if arrival, err = time.Parse(arrivalTime, string(f)); err != nil {
				bad = fmt.Errorf("csvio: meta row %d: bad %s %q: %w", row, ArrivalColumn, f, err)
			}
		default:
			if values == nil {
				values = make([]stream.Value, r.schema.Len())
			}
			c := i - meta
			if values[c], _, err = stream.ParseValueBytes(f, r.schema.Field(c).Kind); err != nil {
				bad = fmt.Errorf("csvio: meta row %d column %q: %w", row, r.schema.Field(c).Name, err)
			}
		}
	}
	if err := r.rec.end(); err != nil {
		return stream.Tuple{}, fmt.Errorf("csvio: meta row %d: %w", row, err)
	}
	r.row = row
	if bad != nil {
		return stream.Tuple{}, bad
	}
	t := stream.NewTuple(r.schema, values)
	t.ID = id
	t.SubStream = int32(sub)
	if ts, ok := t.Timestamp(); ok {
		t.EventTime = ts
		t.Arrival = ts
	}
	if r.arrival {
		t.Arrival = arrival
	}
	return t, nil
}

// WriteAllMeta writes tuples with metadata in one call.
func WriteAllMeta(w io.Writer, schema *stream.Schema, tuples []stream.Tuple) error {
	mw := NewMetaWriter(w, schema)
	for _, t := range tuples {
		if err := mw.Write(t); err != nil {
			return err
		}
	}
	return mw.Close()
}
