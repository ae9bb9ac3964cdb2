package stream

import (
	"fmt"
	"math"
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
			vb, errb := ParseValueBytes([]byte(s), k)
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
		{"-9223372036854775808", KindInt},
		{"true", KindBool},
		{"2021-06-01T12:34:56Z", KindTime},
		{"2021-06-01T12:34:56+05:30", KindTime},
		{"2021-06-01T12:34:56.123456789-08:00", KindTime},
	} {
		b := []byte(c.text)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ParseValueBytes(b, c.kind); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ParseValueBytes(%q, %v): %v allocs, want 0", c.text, c.kind, n)
		}
	}
}
