// Package csvio reads and writes tuple streams as CSV, the file-based
// source/sink of the pollution workflow (Figure 2's "Data Batch" input
// and "Dirty Data" / "Clean Data" outputs). A header row carries the
// attribute names; NULL values round-trip as empty cells.
package csvio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"icewafl/internal/stream"
)

// Reader is a stream.Recycler decoding CSV rows into tuples. A row
// allocates a copy of each multi-byte string cell, and a cell array only
// when none handed back through Recycle is free. A row read into an
// array that came back carries a stream.Text of its line, unless a field
// is quoted, so that Writer copies the cells no one changed.
type Reader struct {
	schema    *stream.Schema
	rec       *recordReader
	row       int
	spare     []stream.Value // the cell array last handed back, if any
	spareText *stream.Text   // the Text that came back with it
}

// NewReader wraps r, validating that the CSV header matches the schema's
// attribute names in order.
func NewReader(r io.Reader, schema *stream.Schema) (*Reader, error) {
	rec := newRecordReader(r, schema.Len())
	header, err := rec.readStrings()
	if err != nil {
		return nil, fmt.Errorf("csvio: read header: %w", err)
	}
	names := schema.Names()
	for i, name := range names {
		if header[i] != name {
			return nil, fmt.Errorf("csvio: header column %d is %q, schema expects %q", i, header[i], name)
		}
	}
	return &Reader{schema: schema, rec: rec, row: 1}, nil
}

// NewColumnReader is NewReader.
//
// Deprecated: the batch decoder it returned is gone; the name stays
// only because bench/ compiles against it, and ROADMAP.md item 1(a)
// deletes it.
func NewColumnReader(r io.Reader, schema *stream.Schema) (*Reader, error) {
	return NewReader(r, schema)
}

// Schema implements stream.Source.
func (r *Reader) Schema() *stream.Schema { return r.schema }

// Next implements stream.Source. Row-level failures — a malformed CSV
// record or an unparseable cell — are returned as *stream.TupleError, and
// the reader remains usable: the next call continues with the following
// row. This lets stream.Quarantine divert poisoned rows to a dead-letter
// queue instead of aborting the whole run. A failure of the underlying
// reader is fatal: there is no row to skip.
func (r *Reader) Next() (t stream.Tuple, err error) {
	if err := r.rec.begin(); err != nil {
		return stream.Tuple{}, err
	}
	line := r.rec.line // the record's first line
	r.row++
	// Each cell is parsed as it is split; a malformed record outranks a
	// bad cell, as it would if the record were split first.
	var values []stream.Value
	var text *stream.Text
	var odd uint64 // bit i: field i is not the text Writer would write
	var cellErr error
	for i := 0; ; i++ {
		f, ok := r.rec.field()
		if !ok {
			break
		}
		if i >= r.schema.Len() || cellErr != nil {
			continue
		}
		if values == nil {
			// The spare array and its text, else a new array: a row
			// that parses overwrites every cell. A row of more than 64
			// cells, beyond odd's bits, gets no text.
			values, text, r.spare, r.spareText = r.spare, r.spareText, nil, nil
			if values == nil {
				values = make([]stream.Value, r.schema.Len())
			} else if text == nil && len(values) <= 64 {
				text = new(stream.Text)
			}
		}
		v, canonical, err := stream.ParseValueBytes(f, r.schema.Field(i).Kind)
		if err != nil {
			cellErr = fmt.Errorf("csvio: row %d column %q: %w", r.row, r.schema.Field(i).Name, err)
		}
		values[i] = v
		// Writer writes f back if it is canonical and, for a string,
		// needs no quotes.
		if str, isStr := v.AsString(); text != nil && (!canonical || isStr && needsQuotes(str)) {
			odd |= 1 << i
		}
	}
	if err = r.rec.end(); err == nil && cellErr == nil {
		// t is the result itself, so attaching the text copies no tuple.
		t = stream.NewTuple(r.schema, values)
		if text != nil {
			// A record with no quoted field is its first line.
			if !r.rec.plain {
				line = line[:0]
			}
			text.SetLine(line[:len(line)-lengthNL(line)], values, odd)
			t.SetText(text)
		}
		return t, nil
	}
	if values != nil {
		r.spare, r.spareText = values, text
	}
	if err == nil {
		return stream.Tuple{}, r.decodeError(cellErr)
	}
	if _, malformed := err.(*parseError); !malformed {
		return stream.Tuple{}, fmt.Errorf("csvio: read row %d: %w", r.row, err)
	}
	return stream.Tuple{}, r.decodeError(fmt.Errorf("csvio: row %d: %w", r.row, err))
}

// Recycle implements stream.Recycler. The reader keeps one array and
// its text, since a recycling consumer hands back at most one between
// two reads. An array of another width, or one handed back while the
// spare is taken, is left to the garbage collector.
func (r *Reader) Recycle(values []stream.Value, text *stream.Text) {
	if len(values) == r.schema.Len() && r.spare == nil {
		r.spare, r.spareText = values, text
	}
}

// decodeError reports err as the failure of the current row.
func (r *Reader) decodeError(err error) error {
	return &stream.TupleError{Offset: uint64(r.row), Stage: "csv-decode", Err: err}
}

// Writer is a stream.Sink encoding tuples as CSV rows, byte for byte as
// encoding/csv.Writer writes the cells' String renderings. Each row is
// rendered into one reused buffer, so a steady-state Write allocates
// nothing.
type Writer struct {
	schema *stream.Schema
	w      *bufio.Writer
	row    []byte
	wrote  bool
	lead   []string // header names of MetaWriter's leading columns
}

// NewWriter wraps w. The header row is written lazily with the first
// tuple (or at Close for empty streams).
func NewWriter(w io.Writer, schema *stream.Schema) *Writer {
	return &Writer{schema: schema, w: bufio.NewWriter(w)}
}

func (w *Writer) writeHeader() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	b := w.row[:0]
	for i, name := range slices.Concat(w.lead, w.schema.Names()) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendField(b, name)
	}
	return w.endRow(b)
}

// endRow terminates the rendered row b and writes it to the buffer.
func (w *Writer) endRow(b []byte) error {
	w.row = append(b, '\n')
	_, err := w.w.Write(w.row)
	return err
}

// needsQuotes is encoding/csv's rule: an empty field never needs quotes,
// `\.` always does, and so does a field holding a quote, comma, CR or LF
// or starting with a space.
func needsQuotes(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '"' || c == ',' || c == '\r' || c == '\n' {
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return s == `\.` || unicode.IsSpace(r)
}

// appendField appends s as one CSV field, quoted when needsQuotes says
// so, with quotes doubled and CR and LF written verbatim.
func appendField(b []byte, s string) []byte {
	if !needsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		b = append(b, s[:i+1]...)
		b = append(b, '"')
		s = s[i+1:]
	}
	b = append(b, s...)
	return append(b, '"')
}

// OmitHeader marks the header as already written. Checkpoint resume uses
// it when appending to an output file whose header row survives from the
// interrupted run.
func (w *Writer) OmitHeader() { w.wrote = true }

// Flush pushes buffered rows to the underlying writer. Checkpointing
// calls it before recording a file offset so the offset reflects every
// row written so far.
func (w *Writer) Flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("csvio: flush: %w", err)
	}
	return nil
}

// Write implements stream.Sink. Only a string cell can need quotes: no
// other kind's rendering holds a quote, comma, CR, LF or leading space.
func (w *Writer) Write(t stream.Tuple) error {
	if err := w.writeHeader(); err != nil {
		return fmt.Errorf("csvio: write header: %w", err)
	}
	if err := w.endRow(appendCells(w.row[:0], t.Values(), t.Text())); err != nil {
		return fmt.Errorf("csvio: write row: %w", err)
	}
	return nil
}

// appendCells appends cells as one row's fields. Where text holds the
// row's line, a run of cells that still hold the values their fields
// parsed to is copied from it in one append; every other cell is
// formatted.
func appendCells(b []byte, cells []stream.Value, text *stream.Text) []byte {
	line, parsed := text.Line(len(cells))
	if line == nil {
		for i, v := range cells {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCell(b, v)
		}
		return b
	}
	// run is where the pending run of copied text starts in line: at a
	// field, or at the comma after a formatted one. The line's commas
	// are its n-1 separators; at is where field f starts.
	run, at, f := 0, 0, 0
	for i, v := range cells {
		if v == parsed[i] {
			continue
		}
		for ; f < i; f++ {
			at += bytes.IndexByte(line[at:], ',') + 1
		}
		end := len(line)
		if j := bytes.IndexByte(line[at:], ','); j >= 0 {
			end = at + j
		}
		b = appendCell(append(b, line[run:at]...), v)
		run, at, f = end, end+1, i+1
	}
	return append(b, line[run:]...)
}

// appendCell appends v as one field.
func appendCell(b []byte, v stream.Value) []byte {
	if s, ok := v.AsString(); ok {
		return appendField(b, s)
	}
	return v.AppendString(b)
}

// Close implements stream.Sink, flushing buffered rows.
func (w *Writer) Close() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	return w.Flush()
}

// WriteAll writes tuples to w as CSV in one call.
func WriteAll(w io.Writer, schema *stream.Schema, tuples []stream.Tuple) error {
	cw := NewWriter(w, schema)
	for _, t := range tuples {
		if err := cw.Write(t); err != nil {
			return err
		}
	}
	return cw.Close()
}

// ReadAll decodes an entire CSV document into tuples.
func ReadAll(r io.Reader, schema *stream.Schema) ([]stream.Tuple, error) {
	cr, err := NewReader(r, schema)
	if err != nil {
		return nil, err
	}
	return stream.Drain(cr)
}
