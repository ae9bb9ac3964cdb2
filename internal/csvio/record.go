package csvio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// parseError is a malformed record. Its fields and text are
// encoding/csv's ParseError, so a row's error message reads the same.
type parseError struct {
	StartLine int // line where the record starts
	Line      int // line where the error occurred
	Column    int // 1-based byte index where the error occurred
	Err       error
}

func (e *parseError) Error() string {
	if e.Err == errFieldCount {
		return fmt.Sprintf("record on line %d: %v", e.Line, e.Err)
	}
	if e.StartLine != e.Line {
		return fmt.Sprintf("record on line %d; parse error on line %d, column %d: %v", e.StartLine, e.Line, e.Column, e.Err)
	}
	return fmt.Sprintf("parse error on line %d, column %d: %v", e.Line, e.Column, e.Err)
}

func (e *parseError) Unwrap() error { return e.Err }

// The three ways a record is malformed, worded as encoding/csv words them.
var (
	errBareQuote  = errors.New("bare \" in non-quoted-field")
	errQuote      = errors.New("extraneous or missing \" in quoted-field")
	errFieldCount = errors.New("wrong number of fields")
)

// recordReader splits CSV records exactly as encoding/csv.Reader does
// with its defaults (comma, no comments, strict quotes) and
// FieldsPerRecord set to want: \r\n reads as \n, blank lines are
// skipped, a quoted field may span lines, and a malformed record fails
// with the same error at the same position and resumes at the same line.
// It hands out one field at a time and copies none: an unquoted field is
// a view of the buffered line, a quoted one is unescaped into a reused
// scratch buffer.
//
// A record is read as begin, then field until it reports false, then end.
type recordReader struct {
	br      *bufio.Reader
	want    int    // fields per record; 0 checks no count
	numLine int    // lines read so far
	long    []byte // a line longer than br's buffer
	quoted  []byte // the current quoted field, unescaped

	// The record being read.
	plain   bool   // no field so far is quoted, so the record is one line
	line    []byte // the rest of the current line
	errRead error  // the read error that ends the record, if any
	recLine int    // the line the record starts on
	posLine int    // the line of the current field
	col     int    // the column of the rest of the line
	fields  int    // fields read so far
	done    bool   // no field left
	err     *parseError
}

func newRecordReader(r io.Reader, want int) *recordReader {
	return &recordReader{br: bufio.NewReader(r), want: want}
}

// readLine reads the next line with its trailing \n, which the last line
// may lack; a \r\n ending reads as \n and a \r before the end of input is
// dropped. The line is valid until the next call. It returns io.EOF only
// with an empty line.
func (r *recordReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	r.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL is the length of b's trailing \n: 1 or 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// begin starts the next record, skipping blank lines. It returns io.EOF
// when no record is left.
func (r *recordReader) begin() error {
	var line []byte
	var err error
	for err == nil {
		line, err = r.readLine()
		if err == nil && len(line) == lengthNL(line) {
			continue
		}
		break
	}
	if err == io.EOF {
		return io.EOF
	}
	r.plain, r.line, r.errRead = true, line, err
	r.recLine, r.posLine, r.col = r.numLine, r.numLine, 1
	r.fields, r.done, r.err = 0, false, nil
	return nil
}

// field returns the record's next field, valid until the next call, or
// false when the record has no field left or is malformed.
func (r *recordReader) field() ([]byte, bool) {
	if r.done {
		return nil, false
	}
	line := r.line
	if len(line) == 0 || line[0] != '"' {
		i := bytes.IndexByte(line, ',')
		f := line
		if i >= 0 {
			f = f[:i]
		} else {
			f = f[:len(f)-lengthNL(f)]
		}
		if j := bytes.IndexByte(f, '"'); j >= 0 {
			return r.fail(r.numLine, r.col+j, errBareQuote)
		}
		if i >= 0 {
			r.line = line[i+1:]
			r.col += i + 1
		} else {
			r.done = true
		}
		r.fields++
		return f, true
	}
	r.quoted, r.plain = r.quoted[:0], false
	line = line[1:]
	r.col++
	for {
		i := bytes.IndexByte(line, '"')
		switch {
		case i >= 0:
			r.quoted = append(r.quoted, line[:i]...)
			line = line[i+1:]
			r.col += i + 1
			switch {
			case len(line) > 0 && line[0] == '"':
				r.quoted = append(r.quoted, '"')
				line = line[1:]
				r.col++
			case len(line) > 0 && line[0] == ',':
				r.line = line[1:]
				r.col++
				r.fields++
				return r.quoted, true
			case lengthNL(line) == len(line):
				r.done = true
				r.fields++
				return r.quoted, true
			default:
				return r.fail(r.numLine, r.col-1, errQuote)
			}
		case len(line) > 0:
			// The field goes on past the end of the line.
			r.quoted = append(r.quoted, line...)
			if r.errRead != nil {
				r.done = true
				return nil, false
			}
			r.col += len(line)
			line, r.errRead = r.readLine()
			if len(line) > 0 {
				r.posLine++
				r.col = 1
			}
			if r.errRead == io.EOF {
				r.errRead = nil
			}
		default:
			// The input ends inside the field.
			if r.errRead == nil {
				return r.fail(r.posLine, r.col, errQuote)
			}
			r.done = true
			r.fields++
			return r.quoted, true
		}
	}
}

func (r *recordReader) fail(line, col int, err error) ([]byte, bool) {
	r.err = &parseError{StartLine: r.recLine, Line: line, Column: col, Err: err}
	r.done = true
	return nil, false
}

// end reads past the record's remaining fields and returns what
// encoding/csv's Read would: the parse error, else the read error, else
// a field-count error, else nil. A *parseError leaves the reader at the
// next record.
func (r *recordReader) end() error {
	for {
		if _, ok := r.field(); !ok {
			break
		}
	}
	switch {
	case r.err != nil:
		return r.err
	case r.errRead != nil:
		return r.errRead
	case r.want > 0 && r.fields != r.want:
		return &parseError{StartLine: r.recLine, Line: r.recLine, Column: 1, Err: errFieldCount}
	}
	return nil
}

// readStrings reads one whole record as strings, for a header.
func (r *recordReader) readStrings() ([]string, error) {
	if err := r.begin(); err != nil {
		return nil, err
	}
	var rec []string
	for {
		f, ok := r.field()
		if !ok {
			break
		}
		rec = append(rec, string(f))
	}
	return rec, r.end()
}
