package stream

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"
)

// FuzzParseValue checks that ParseValue never panics, that values it
// accepts round-trip through String for every kind, and that
// ParseValueBytes agrees with it on every input.
func FuzzParseValue(f *testing.F) {
	seeds := []string{"", "1.5", "-7", "true", "hello", "2020-01-01T00:00:00Z", "NaN", "1e308", "0x10", "  3 ",
		"0000-01-01T00:00:00+00:01", "9999-12-31T23:59:59-00:01", "2021-06-01T12:34:56+05:30",
		"2021-06-01T12:34:56-08:00", "2021-06-01T12:34:56+24:00", "2021-06-01T12:34:56+05:60",
		"2021-06-01T12:34:56.5Z", "2021-06-01T12:34:56.123456789+05:30", "2021-06-01T12:34:56.100-08:00",
		"2021-06-01T12:34:56.000000001+00:00", "0000-01-01T00:59:59.999999999+00:59"}
	for _, s := range seeds {
		f.Add(s)
	}
	kinds := []Kind{KindNull, KindFloat, KindInt, KindString, KindBool, KindTime}
	f.Fuzz(func(t *testing.T, s string) {
		for _, k := range kinds {
			v, err := ParseValue(s, k)
			vb, _, errb := ParseValueBytes([]byte(s), k)
			f, _ := v.AsFloat()
			if (err != nil) != (errb != nil) || vb.Kind() != v.Kind() || vb.String() != v.String() ||
				!vb.Equal(v) && !math.IsNaN(f) {
				t.Fatalf("%q as %v: ParseValueBytes = %v, %v; ParseValue = %v, %v", s, k, vb, errb, v, err)
			}
			if k == KindTime {
				checkTimeOracle(t, s, v, err)
			}
			if err != nil {
				continue
			}
			// Accepted values must round-trip to the same bits (strings
			// trivially; numbers via shortest representation; a time with
			// its fraction and offset; the empty string is NULL).
			if s == "" {
				if !v.IsNull() {
					t.Fatalf("empty string parsed to %v for kind %v", v, k)
				}
				continue
			}
			back, err := ParseValue(v.String(), v.Kind())
			if err != nil {
				t.Fatalf("re-parse of %q (kind %v) failed: %v", v.String(), k, err)
			}
			if back != v {
				t.Fatalf("round trip changed value: %v -> %v (kind %v): bits %#v -> %#v", v, back, k, v, back)
			}
		}
	})
}

// checkTimeOracle pins the time parse to time.Parse: v's bits are
// Time(time.Parse(time.RFC3339, s)), and an error has that call's text.
func checkTimeOracle(t *testing.T, s string, v Value, err error) {
	t.Helper()
	want, werr := time.Parse(time.RFC3339, s)
	switch {
	case s == "":
		return
	case werr != nil:
		if err == nil || err.Error() != fmt.Sprintf("stream: parse time %q: %v", s, werr) {
			t.Fatalf("%q: error %v, time.Parse says %v", s, err, werr)
		}
	case (err == nil) != (want.UTC().Year() >= 0 && want.UTC().Year() <= 9999):
		t.Fatalf("%q: error %v, time.Parse gives %v", s, err, want)
	case err == nil && v != Time(want):
		t.Fatalf("%q: %#v, want Time(time.Parse) = %#v", s, v, Time(want))
	}
}

// TestParseTimeOffsets runs the time.Parse oracle over offset stamps the
// Z-form fast path takes or must leave to time.Parse.
func TestParseTimeOffsets(t *testing.T) {
	for _, s := range []string{
		"2021-06-01T12:34:56+05:30", "2021-06-01T12:34:56.5-08:00", "2021-06-01T12:34:56,25+01:00",
		"2021-06-01T23:59:59+23:59", "2021-06-01T00:00:00-23:59", "2024-02-29T12:00:00-00:00",
		"2021-06-01T12:34:56+24:00", "2021-06-01T12:34:56+05:60", "2021-06-01T12:34:56+5:30",
		"2021-06-01T12:34:56+05-30", "2021-02-30T12:34:56+05:30", "2021-06-01T12:34+05:30",
		"0000-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00", "+05:30", "x+05:30",
		"2021-06-01T12:34:56.123456789012345678901234567890123456789012345+05:30",
	} {
		v, err := ParseValue(s, KindTime)
		checkTimeOracle(t, s, v, err)
	}
}

// TestParseValueBytesAllocs: the bytes form of a non-string cell
// allocates nothing.
func TestParseValueBytesAllocs(t *testing.T) {
	for _, c := range []struct {
		text string
		kind Kind
	}{
		{"-12.375e-3", KindFloat},
		{"-1015.5", KindFloat},
		{"-9223372036854775808", KindInt},
		{"true", KindBool},
		{"2021-06-01T12:34:56Z", KindTime},
		{"2021-06-01T12:34:56+05:30", KindTime},
		{"2021-06-01T12:34:56.123456789-08:00", KindTime},
	} {
		b := []byte(c.text)
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := ParseValueBytes(b, c.kind); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ParseValueBytes(%q, %v): %v allocs, want 0", c.text, c.kind, n)
		}
	}
}

// FuzzFloatText holds the float text kernel to strconv: appendFloat of
// any bit pattern is strconv.AppendFloat's 'g', -1 text, and whenever
// parseShortFloat accepts a text (the fuzzed one, or a rendering) it
// has strconv.ParseFloat's bits and strconv finds no error.
func FuzzFloatText(f *testing.F) {
	for _, x := range []float64{math.Copysign(0, -1), 0, math.Nextafter(1e-4, 0), 1e-4, math.Nextafter(1e-4, 1),
		math.Nextafter(1e6, 0), 1e6, math.Nextafter(1e6, 2e6), 999999.9999999999, 0.1, 0.3, 0.7, 0.07, 1.13, -0.4,
		54.8, 1015.5, 0.05, 1000, 123456.789012345, 12345.67890123456, math.NaN(), math.Inf(-1), 5e-324} {
		f.Add(math.Float64bits(x), strconv.FormatFloat(x, 'g', -1, 64))
	}
	for _, s := range []string{"-0", "0", "00012.5", "-.5", "12.", "+1", "1_0", "0x1p3", "NaN", "Inf",
		"5e-324", "999999.9999999999", "123456789012345", "1234567890123456", "-0.000", "1.50", "-", "."} {
		f.Add(uint64(0), s)
	}
	f.Fuzz(func(t *testing.T, bits uint64, s string) {
		x := math.Float64frombits(bits)
		got, want := appendFloat(nil, x), strconv.AppendFloat(nil, x, 'g', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%#x) = %q, strconv says %q", bits, got, want)
		}
		for _, text := range []string{s, string(got)} {
			fast, _, ok := parseShortFloat(text)
			if !ok {
				continue
			}
			slow, err := strconv.ParseFloat(text, 64)
			if err != nil || math.Float64bits(fast) != math.Float64bits(slow) {
				t.Fatalf("parseShortFloat(%q) = %v (%#x); strconv.ParseFloat = %v (%#x), %v",
					text, fast, math.Float64bits(fast), slow, math.Float64bits(slow), err)
			}
			if b, _, ok := parseShortFloat([]byte(text)); !ok || math.Float64bits(b) != math.Float64bits(fast) {
				t.Fatalf("parseShortFloat of %q's bytes = %v, %v; of the string %v", text, b, ok, fast)
			}
		}
	})
}

// TestAppendFloatAllocs: a float cell renders into a buffer with room
// without allocating, on the kernel's integer path and on strconv's.
func TestAppendFloatAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, x := range []float64{54.8, -0.4, 0.0001, 0.1 + 0.2, 1e21, math.NaN(), 5e-324} {
		v := Float(x)
		if n := testing.AllocsPerRun(100, func() { buf = v.AppendString(buf[:0]) }); n != 0 {
			t.Errorf("Float(%v).AppendString: %v allocs, want 0", x, n)
		}
	}
}
