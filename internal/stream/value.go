// Package stream implements the data-stream substrate Icewafl runs on.
//
// The original system is built on Apache Flink; this package provides the
// subset of that machinery the pollution process needs: typed values and
// tuples over a schema with event and arrival time, pull-based sources and
// sinks, sub-stream splitting (Algorithm 1, step 1), the sort, k-way and
// bounded-reorder merges (step 3), event-time windows, the
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
	return timeAt(v, off)
}

// timeAt is the time value of v's instant at UTC offset off seconds.
func timeAt(v time.Time, off int) Value {
	if off < -offBias || off >= offBias {
		off = 0
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
// A time renders as RFC3339Nano in its own offset, so ParseValue reads
// back the same bits.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return ""
	case KindFloat:
		var buf [32]byte
		return string(appendFloat(buf[:0], v.float()))
	case KindInt:
		return strconv.FormatInt(int64(v.x), 10)
	case KindString:
		return v.s
	case KindBool:
		return strconv.FormatBool(v.x != 0)
	case KindTime:
		t, _ := v.AsTime()
		return t.Format(time.RFC3339Nano)
	}
	return fmt.Sprintf("Value(kind=%d)", int(v.Kind()))
}

// AppendString appends exactly the bytes of String to dst, without the
// intermediate string.
func (v Value) AppendString(dst []byte) []byte {
	switch v.Kind() {
	case KindFloat:
		return appendFloat(dst, v.float())
	case KindInt:
		return strconv.AppendInt(dst, int64(v.x), 10)
	case KindBool:
		return strconv.AppendBool(dst, v.x != 0)
	case KindTime:
		t, _ := v.AsTime()
		return t.AppendFormat(dst, time.RFC3339Nano)
	}
	return append(dst, v.String()...)
}

// pow10 holds 10^0 … 10^18, every one an exact double.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// appendFloat appends strconv.AppendFloat(dst, f, 'g', -1, 64). Zero
// and |f| in [1e-4, 1e6) print without an exponent. For these it takes
// the first k where t = |f|·10^k is an integer m < 10^15 that
// float64(m)/10^k, a correctly rounded division of exact doubles, maps
// back to |f|, so m·10^-k rounds to f. A decimal of at most 15 digits
// (DBL_DIG) in f's rounding interval is unique, so m's digits without
// trailing zeros are strconv's shortest digits. Any other f, or one
// with no such m, goes to strconv.
func appendFloat(dst []byte, f float64) []byte {
	a := math.Abs(f)
	if a == 0 || a >= 1e-4 && a < 1e6 {
		for k := 0; k < len(pow10); k++ {
			t := a * pow10[k]
			if t >= 1e15 {
				break
			}
			if m := int64(t); float64(m) == t && float64(m)/pow10[k] == a {
				return appendDecimal(dst, math.Signbit(f), uint64(m), k)
			}
		}
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendDecimal appends m·10^-k without trailing fraction zeros, one
// digit at a time from the right, and at least one before the point.
func appendDecimal(dst []byte, neg bool, m uint64, k int) []byte {
	for k > 0 && m%10 == 0 {
		m, k = m/10, k-1
	}
	var buf [24]byte
	i := len(buf)
	for j := 0; j <= k || m > 0; j++ {
		if j == k && k > 0 {
			i--
			buf[i] = '.'
		}
		i--
		buf[i], m = byte('0'+m%10), m/10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
}

// parseShortFloat is strconv.ParseFloat(s, 64) of a text -?D+(.D+)?
// with at most 15 digits, and ok=false for any other text. Such a text
// is m·10^-k with m < 2^53, so float64(m)/10^k is one correctly rounded
// division of exact doubles: strconv's own exact path, bit for bit.
func parseShortFloat[T string | []byte](s T) (f float64, ok bool) {
	i, neg := 0, len(s) > 0 && s[0] == '-'
	if neg {
		i = 1
	}
	var m uint64
	digits, k := 0, -1 // k counts the digits after the point, -1 before one
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			m = m*10 + uint64(c-'0')
			digits++
			if k >= 0 {
				k++
			}
		case c == '.' && k < 0 && digits > 0:
			k = 0
		default:
			return 0, false
		}
	}
	if digits == 0 || digits > 15 || k == 0 {
		return 0, false
	}
	f = float64(m)
	if neg {
		f = -f
	}
	return f / pow10[max(k, 0)], true
}

// ParseValue parses the textual representation produced by String back
// into a Value of the requested kind. The empty string parses as NULL for
// every kind, matching how missing values appear in CSV files.
func ParseValue(s string, kind Kind) (Value, error) { return parseValue(s, kind) }

// ParseValueBytes is ParseValue of b's text. The value retains none of b:
// a string cell is a copy, and no other kind allocates.
func ParseValueBytes(b []byte, kind Kind) (Value, error) { return parseValue(b, kind) }

// parseValue is the one parse rule behind both forms. string(s) is free
// for a string and, for a []byte, stays off the heap wherever it does
// not escape; the error paths quote a copy.
func parseValue[T string | []byte](s T, kind Kind) (Value, error) {
	if len(s) == 0 {
		return Null(), nil
	}
	switch kind {
	case KindNull:
		return Null(), nil
	case KindFloat:
		if f, ok := parseShortFloat(s); ok {
			return Float(f), nil
		}
		f, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			return Null(), fmt.Errorf("stream: parse float %q: %w", string(s), err)
		}
		return Float(f), nil
	case KindInt:
		i, err := strconv.ParseInt(string(s), 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("stream: parse int %q: %w", string(s), err)
		}
		return Int(i), nil
	case KindString:
		return Str(string(s)), nil
	case KindBool:
		b, err := strconv.ParseBool(string(s))
		if err != nil {
			return Null(), fmt.Errorf("stream: parse bool %q: %w", string(s), err)
		}
		return Bool(b), nil
	case KindTime:
		t, off, err := parseTime(s)
		if err != nil {
			return Null(), fmt.Errorf("stream: parse time %q: %w", string(s), err)
		}
		// The checkpoint writes the UTC instant, which RFC 3339 can
		// write only within years 0000–9999.
		if y := t.UTC().Year(); y < 0 || y > 9999 {
			return Null(), fmt.Errorf("stream: parse time %q: UTC year %d outside 0000–9999", string(s), y)
		}
		return timeAt(t, off), nil
	}
	return Null(), fmt.Errorf("stream: cannot parse into kind %v", kind)
}

// parseTime is time.Parse(time.RFC3339, s) and the parsed offset in
// seconds. A stamp ending in a valid ±hh:mm offset is parsed in its Z
// form from a stack copy, so the offset costs no time.FixedZone; any
// other stamp, and every error, comes from time.Parse of s itself.
func parseTime[T string | []byte](s T) (time.Time, int, error) {
	if n := len(s) - 6; n > 0 && n < 64 && (s[n] == '+' || s[n] == '-') && s[n+3] == ':' {
		hh, mm := twoDigits(s[n+1], s[n+2]), twoDigits(s[n+4], s[n+5])
		if hh <= 23 && mm <= 59 {
			var buf [64]byte
			z := append(append(buf[:0], s[:n]...), 'Z')
			if t, err := time.Parse(time.RFC3339, string(z)); err == nil {
				off := (hh*60 + mm) * 60
				if s[n] == '-' {
					off = -off
				}
				return t.Add(-time.Duration(off) * time.Second), off, nil
			}
		}
	}
	t, err := time.Parse(time.RFC3339, string(s))
	_, off := t.Zone()
	return t, off, err
}

// twoDigits is the number a and b spell, or 100 when either is not a
// decimal digit.
func twoDigits(a, b byte) int {
	if a < '0' || a > '9' || b < '0' || b > '9' {
		return 100
	}
	return int(a-'0')*10 + int(b-'0')
}
