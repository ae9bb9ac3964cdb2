package stream

import (
	"math"
	"testing"
)

// FuzzParseValue checks that ParseValue never panics, that values it
// accepts round-trip through String for every kind, and that
// ParseValueBytes agrees with it on every input.
func FuzzParseValue(f *testing.F) {
	seeds := []string{"", "1.5", "-7", "true", "hello", "2020-01-01T00:00:00Z", "NaN", "1e308", "0x10", "  3 ",
		"0000-01-01T00:00:00+00:01", "9999-12-31T23:59:59-00:01"}
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
			if err != nil {
				continue
			}
			// Accepted values must round-trip (strings trivially; numbers
			// via shortest representation; the empty string is NULL).
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
			if f, ok := v.AsFloat(); ok && math.IsNaN(f) {
				// NaN != NaN by definition; round-tripping must at least
				// preserve NaN-ness.
				if bf, bok := back.AsFloat(); !bok || !math.IsNaN(bf) {
					t.Fatalf("NaN did not survive the round trip: %v", back)
				}
				continue
			}
			if !back.Equal(v) {
				t.Fatalf("round trip changed value: %v -> %v (kind %v)", v, back, k)
			}
		}
	})
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
		{"2021-06-01T12:34:56Z", KindTime}, // String renders UTC; an offset costs time.Parse a zone
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
