package stream

import "math/bits"

// Text is the line a tuple was read from, comma-separated fields none
// of them quoted, and the values they parsed to. A Recycler keeps one
// with each cell array it lends, so that a CSV writer can copy a run of
// cells that still hold their parsed values and whose text is canonical
// (what the writer would write) instead of formatting them again. Clone
// and CloneValuesInto drop a tuple's Text.
type Text struct {
	line  []byte
	cells []Value // the value field i parsed to, or noCell
}

// noCell stands for a field that is not canonical: its kind byte names
// no Kind, so no cell ever equals it.
var noCell = Value{meta: kindMask}

// SetLine keeps a copy of the line and of the cells its fields parsed
// to, with noCell for each field i that bit i of odd marks as not
// canonical. An empty line leaves x with none.
func (x *Text) SetLine(line []byte, cells []Value, odd uint64) {
	x.line, x.cells = append(x.line[:0], line...), append(x.cells[:0], cells...)
	for ; odd != 0; odd &= odd - 1 {
		x.cells[bits.TrailingZeros64(odd)] = noCell
	}
}

// Line returns the line and the values its fields parsed to, with a
// value no cell equals where a field is not canonical; or nils when x is
// nil or holds no line of n fields.
func (x *Text) Line(n int) (line []byte, cells []Value) {
	if x == nil || len(x.line) == 0 || len(x.cells) != n {
		return nil, nil
	}
	return x.line, x.cells
}
