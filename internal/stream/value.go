// Package stream implements the data-stream substrate Icewafl runs on.
//
// The original system is built on Apache Flink; this package provides the
// subset of that machinery the pollution process needs: typed values and
// tuples over a schema with event and arrival time, pull-based sources and
// sinks, sub-stream splitting (Algorithm 1, step 1), the sort, k-way and
// bounded-reorder merges (step 3), the SPSC queue the sharded engine
// hands tuples through, event-time windows, the
// per-tuple fault layer (TupleError, quarantine, retry, fault-injecting
// sources) and source/sink metrics.
package stream

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"
)

// Kind enumerates the attribute types supported by the engine.
type Kind int

const (
	KindNull Kind = iota
	KindFloat
	KindInt
	KindString
	KindBool
	KindTime
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a type name used in schemas and JSON configurations
// back into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "null":
		return KindNull, nil
	case "float", "float64", "double":
		return KindFloat, nil
	case "int", "int64", "integer":
		return KindInt, nil
	case "string", "str":
		return KindString, nil
	case "bool", "boolean":
		return KindBool, nil
	case "time", "timestamp":
		return KindTime, nil
	}
	return KindNull, fmt.Errorf("stream: unknown kind %q", s)
}

// Value is a dynamically typed attribute value. The zero value is NULL.
// Values are small and immutable; copy them freely.
//
// A Value is 32 bytes: one payload word x, the string payload s, and a
// meta word whose low 8 bits hold the Kind. x carries a float's IEEE
// bits (−0 and NaN payloads survive), an int's two's complement, a
// bool's 0/1, or a time's seconds since January 1, year 1 UTC — the
// epoch time.Time counts from, so every time.Time round-trips and
// int64(x) orders times. A time's meta word also holds its nanoseconds
// and its UTC offset in seconds, biased to be unsigned. A time keeps
// its instant and offset, so Zone's offset, Hour and every rendering are
// unchanged; it loses the Location's name and any monotonic clock
// reading, and comes back in UTC or in a cached unnamed fixed zone. An
// offset beyond ±2^25 s (no real zone has one) is stored as UTC.
type Value struct {
	x    uint64
	s    string
	meta uint64
}

// Layout of the meta word: the kind in the low byte, then a time's
// nanoseconds and biased offset.
const (
	kindMask      = 1<<8 - 1
	nsecShift     = 8
	nsecMask      = 1<<30 - 1
	offShift      = nsecShift + 30
	offBias       = 1 << (63 - offShift)
	unixToYearOne = 62135596800 // seconds from January 1, year 1 to the Unix epoch
)

// Null returns the NULL value.
func Null() Value { return Value{} }

// Float returns a float value.
func Float(v float64) Value { return Value{x: math.Float64bits(v), meta: uint64(KindFloat)} }

// Int returns an integer value.
func Int(v int64) Value { return Value{x: uint64(v), meta: uint64(KindInt)} }

// String returns a string value.
func Str(v string) Value { return Value{s: v, meta: uint64(KindString)} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{x: 1, meta: uint64(KindBool)}
	}
	return Value{meta: uint64(KindBool)}
}

// Time returns a timestamp value.
func Time(v time.Time) Value {
	_, off := v.Zone()
	if off < -offBias || off >= offBias {
		v, off = v.UTC(), 0
	}
	return Value{
		x:    uint64(v.Unix() + unixToYearOne),
		meta: uint64(KindTime) | uint64(v.Nanosecond())<<nsecShift | uint64(off+offBias)<<offShift,
	}
}

// Kind reports the value's type.
func (v Value) Kind() Kind { return Kind(v.meta & kindMask) }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind() == KindNull }

func (v Value) float() float64 { return math.Float64frombits(v.x) }

func (v Value) nsec() int64 { return int64(v.meta >> nsecShift & nsecMask) }

// utc is a time value's instant in UTC.
func (v Value) utc() time.Time { return time.Unix(int64(v.x)-unixToYearOne, v.nsec()).UTC() }

// fixedZones caches one unnamed *time.Location per non-zero UTC offset.
var fixedZones sync.Map // int → *time.Location

// AsFloat returns the value as float64. Integers are widened; all other
// kinds report ok=false.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind() {
	case KindFloat:
		return v.float(), true
	case KindInt:
		return float64(int64(v.x)), true
	}
	return 0, false
}

// AsInt returns the value as int64. Floats are truncated; all other kinds
// report ok=false.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind() {
	case KindInt:
		return int64(v.x), true
	case KindFloat:
		return int64(v.float()), true
	}
	return 0, false
}

// AsString returns the string payload of a string value.
func (v Value) AsString() (string, bool) {
	if v.Kind() == KindString {
		return v.s, true
	}
	return "", false
}

// AsBool returns the boolean payload of a bool value.
func (v Value) AsBool() (bool, bool) {
	if v.Kind() == KindBool {
		return v.x != 0, true
	}
	return false, false
}

// AsTime returns the timestamp payload of a time value. Integer values are
// interpreted as Unix seconds, mirroring how streaming systems commonly
// encode event timestamps.
func (v Value) AsTime() (time.Time, bool) {
	switch v.Kind() {
	case KindTime:
		t := v.utc()
		off := int(v.meta>>offShift) - offBias
		if off == 0 {
			return t, true
		}
		loc, ok := fixedZones.Load(off)
		if !ok {
			loc, _ = fixedZones.LoadOrStore(off, time.FixedZone("", off))
		}
		return t.In(loc.(*time.Location)), true
	case KindInt:
		return time.Unix(int64(v.x), 0).UTC(), true
	}
	return time.Time{}, false
}

// MustFloat returns the float payload or panics. Intended for tests and
// generators that control their own schemas.
func (v Value) MustFloat() float64 {
	f, ok := v.AsFloat()
	if !ok {
		panic(fmt.Sprintf("stream: value %v is not numeric", v)) //lint:allowpanic Must* contract
	}
	return f
}

// MustTime returns the time payload or panics.
func (v Value) MustTime() time.Time {
	t, ok := v.AsTime()
	if !ok {
		panic(fmt.Sprintf("stream: value %v is not a timestamp", v)) //lint:allowpanic Must* contract
	}
	return t
}

// Equal reports deep equality of two values (kind and payload).
func (v Value) Equal(o Value) bool {
	if v.Kind() != o.Kind() {
		return false
	}
	switch v.Kind() {
	case KindNull:
		return true
	case KindFloat:
		return v.float() == o.float()
	case KindInt, KindBool:
		return v.x == o.x
	case KindString:
		return v.s == o.s
	case KindTime:
		return v.x == o.x && v.nsec() == o.nsec()
	}
	return false
}

// Compare orders two values of the same comparable kind. It returns
// -1, 0, or +1 and ok=false if the kinds are not mutually comparable.
// NULL sorts before everything else.
func (v Value) Compare(o Value) (int, bool) {
	if v.IsNull() || o.IsNull() {
		switch {
		case v.Kind() == o.Kind():
			return 0, true
		case v.IsNull():
			return -1, true
		default:
			return 1, true
		}
	}
	if vf, ok := v.AsFloat(); ok {
		if of, ok2 := o.AsFloat(); ok2 {
			switch {
			case vf < of:
				return -1, true
			case vf > of:
				return 1, true
			}
			return 0, true
		}
		return 0, false
	}
	if v.Kind() != o.Kind() {
		return 0, false
	}
	switch v.Kind() {
	case KindString:
		return cmp.Compare(v.s, o.s), true
	case KindBool:
		return cmp.Compare(v.x, o.x), true
	case KindTime:
		return cmp.Or(cmp.Compare(int64(v.x), int64(o.x)), cmp.Compare(v.nsec(), o.nsec())), true
	}
	return 0, false
}

// String renders the value for logs and CSV output. NULL renders as the
// empty string so that polluted missing values round-trip through CSV.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return ""
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindInt:
		return strconv.FormatInt(int64(v.x), 10)
	case KindString:
		return v.s
	case KindBool:
		return strconv.FormatBool(v.x != 0)
	case KindTime:
		return v.utc().Format(time.RFC3339)
	}
	return fmt.Sprintf("Value(kind=%d)", int(v.Kind()))
}

// AppendString appends exactly the bytes of String to dst, without the
// intermediate string.
func (v Value) AppendString(dst []byte) []byte {
	switch v.Kind() {
	case KindFloat:
		return strconv.AppendFloat(dst, v.float(), 'g', -1, 64)
	case KindInt:
		return strconv.AppendInt(dst, int64(v.x), 10)
	case KindBool:
		return strconv.AppendBool(dst, v.x != 0)
	case KindTime:
		return v.utc().AppendFormat(dst, time.RFC3339)
	}
	return append(dst, v.String()...)
}

// ParseValue parses the textual representation produced by String back
// into a Value of the requested kind. The empty string parses as NULL for
// every kind, matching how missing values appear in CSV files.
func ParseValue(s string, kind Kind) (Value, error) {
	if s == "" {
		return Null(), nil
	}
	switch kind {
	case KindNull:
		return Null(), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("stream: parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("stream: parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindString:
		return Str(s), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null(), fmt.Errorf("stream: parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	case KindTime:
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return Null(), fmt.Errorf("stream: parse time %q: %w", s, err)
		}
		return Time(t), nil
	}
	return Null(), fmt.Errorf("stream: cannot parse into kind %v", kind)
}
