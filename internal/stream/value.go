// Package stream implements the data-stream substrate Icewafl runs on.
//
// The original system is built on Apache Flink; this package provides the
// subset of that machinery the pollution process needs: typed tuples with
// schemas and event time, pull-based sources, sinks, functional operators
// (map/filter/flatmap), stream splitting and merging, micro-batching, and
// a small execution engine with optional parallelism.
package stream

import (
	"fmt"
	"strconv"
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
type Value struct {
	kind Kind
	f    float64
	i    int64
	s    string
	b    bool
	t    time.Time
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// String returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Time returns a timestamp value.
func Time(v time.Time) Value { return Value{kind: KindTime, t: v} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsFloat returns the value as float64. Integers are widened; all other
// kinds report ok=false.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	}
	return 0, false
}

// AsInt returns the value as int64. Floats are truncated; all other kinds
// report ok=false.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	}
	return 0, false
}

// AsString returns the string payload of a string value.
func (v Value) AsString() (string, bool) {
	if v.kind == KindString {
		return v.s, true
	}
	return "", false
}

// AsBool returns the boolean payload of a bool value.
func (v Value) AsBool() (bool, bool) {
	if v.kind == KindBool {
		return v.b, true
	}
	return false, false
}

// AsTime returns the timestamp payload of a time value. Integer values are
// interpreted as Unix seconds, mirroring how streaming systems commonly
// encode event timestamps.
func (v Value) AsTime() (time.Time, bool) {
	switch v.kind {
	case KindTime:
		return v.t, true
	case KindInt:
		return time.Unix(v.i, 0).UTC(), true
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
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindFloat:
		return v.f == o.f
	case KindInt:
		return v.i == o.i
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b == o.b
	case KindTime:
		return v.t.Equal(o.t)
	}
	return false
}

// Compare orders two values of the same comparable kind. It returns
// -1, 0, or +1 and ok=false if the kinds are not mutually comparable.
// NULL sorts before everything else.
func (v Value) Compare(o Value) (int, bool) {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0, true
		case v.kind == KindNull:
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
	if v.kind != o.kind {
		return 0, false
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < o.s:
			return -1, true
		case v.s > o.s:
			return 1, true
		}
		return 0, true
	case KindBool:
		switch {
		case !v.b && o.b:
			return -1, true
		case v.b && !o.b:
			return 1, true
		}
		return 0, true
	case KindTime:
		switch {
		case v.t.Before(o.t):
			return -1, true
		case v.t.After(o.t):
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// String renders the value for logs and CSV output. NULL renders as the
// empty string so that polluted missing values round-trip through CSV.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return v.s
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindTime:
		return v.t.UTC().Format(time.RFC3339)
	}
	return fmt.Sprintf("Value(kind=%d)", int(v.kind))
}

// AppendString appends exactly the bytes of String to dst, without the
// intermediate string.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindBool:
		return strconv.AppendBool(dst, v.b)
	case KindTime:
		return v.t.UTC().AppendFormat(dst, time.RFC3339)
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
