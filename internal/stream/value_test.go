package stream

import (
	"math"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Float(1.5), KindFloat},
		{Int(3), KindInt},
		{Str("x"), KindString},
		{Bool(true), KindBool},
		{Time(time.Unix(0, 0)), KindTime},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind of %v: got %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestNullIsNull(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null().IsNull() == false")
	}
	if Float(0).IsNull() {
		t.Fatal("Float(0) reported as null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Fatal("zero Value is not null")
	}
}

func TestAsFloatWidensInt(t *testing.T) {
	f, ok := Int(42).AsFloat()
	if !ok || f != 42 {
		t.Fatalf("Int(42).AsFloat() = %v, %v", f, ok)
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Fatal("string converted to float")
	}
	if _, ok := Null().AsFloat(); ok {
		t.Fatal("null converted to float")
	}
}

func TestAsTimeFromInt(t *testing.T) {
	ts, ok := Int(1000).AsTime()
	if !ok {
		t.Fatal("Int not convertible to time")
	}
	if ts.Unix() != 1000 {
		t.Fatalf("got unix %d, want 1000", ts.Unix())
	}
}

func TestValueEqual(t *testing.T) {
	now := time.Now()
	cases := []struct {
		a, b Value
		want bool
	}{
		{Null(), Null(), true},
		{Float(1), Float(1), true},
		{Float(1), Float(2), false},
		{Float(1), Int(1), false}, // kinds differ
		{Int(5), Int(5), true},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Time(now), Time(now), true},
		{Null(), Float(0), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Float(1), Float(2), -1, true},
		{Float(2), Float(1), 1, true},
		{Float(1), Float(1), 0, true},
		{Int(1), Float(1.5), -1, true}, // numeric cross-kind
		{Float(2.5), Int(2), 1, true},
		{Str("a"), Str("b"), -1, true},
		{Bool(false), Bool(true), -1, true},
		{Null(), Float(1), -1, true}, // null sorts first
		{Float(1), Null(), 1, true},
		{Null(), Null(), 0, true},
		{Str("a"), Float(1), 0, false}, // incomparable
		{Bool(true), Str("x"), 0, false},
	}
	for _, c := range cases {
		cmp, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("%v.Compare(%v) = %d,%v want %d,%v", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
	t1 := time.Unix(100, 0)
	t2 := time.Unix(200, 0)
	if cmp, ok := Time(t1).Compare(Time(t2)); !ok || cmp != -1 {
		t.Errorf("time compare failed: %d %v", cmp, ok)
	}
}

func TestValueStringParseRoundTrip(t *testing.T) {
	roundTrip := func(v Value) bool {
		if got := string(v.AppendString([]byte("x"))); got != "x"+v.String() {
			t.Errorf("AppendString(%v) = %q, want %q", v, got, "x"+v.String())
		}
		parsed, err := ParseValue(v.String(), v.Kind())
		if err != nil {
			return false
		}
		return parsed.Equal(v)
	}
	ts := time.Date(2016, 2, 27, 13, 30, 0, 0, time.UTC)
	for _, v := range []Value{Float(3.25), Int(-7), Str("hello"), Bool(true), Time(ts), Time(ts.In(time.FixedZone("", 3600)))} {
		if !roundTrip(v) {
			t.Errorf("round trip failed for %v", v)
		}
	}
	// Property: any float round-trips.
	prop := func(f float64) bool { return roundTrip(Float(f)) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	propInt := func(i int64) bool { return roundTrip(Int(i)) }
	if err := quick.Check(propInt, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseValueEmptyIsNull(t *testing.T) {
	for _, k := range []Kind{KindFloat, KindInt, KindString, KindBool, KindTime} {
		v, err := ParseValue("", k)
		if err != nil || !v.IsNull() {
			t.Errorf("ParseValue(\"\", %v) = %v, %v", k, v, err)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	if _, err := ParseValue("abc", KindFloat); err == nil {
		t.Error("parsing 'abc' as float succeeded")
	}
	if _, err := ParseValue("1.5", KindInt); err == nil {
		t.Error("parsing '1.5' as int succeeded")
	}
	if _, err := ParseValue("maybe", KindBool); err == nil {
		t.Error("parsing 'maybe' as bool succeeded")
	}
	if _, err := ParseValue("not-a-time", KindTime); err == nil {
		t.Error("parsing 'not-a-time' as time succeeded")
	}
	// Valid RFC 3339 whose UTC instant String could not write back.
	for _, s := range []string{"0000-01-01T00:00:00+00:01", "9999-12-31T23:59:59-00:01"} {
		if v, err := ParseValue(s, KindTime); err == nil {
			t.Errorf("parsing %q as time succeeded: %v", s, v)
		}
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"float": KindFloat, "double": KindFloat, "int": KindInt,
		"string": KindString, "bool": KindBool, "time": KindTime,
	} {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseKind("decimal128"); err == nil {
		t.Error("ParseKind accepted unknown kind")
	}
}

func TestKindString(t *testing.T) {
	if KindFloat.String() != "float" || KindNull.String() != "null" {
		t.Error("Kind.String mismatch")
	}
}

func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 32", n)
	}
}

// TestTupleSize: every tuple is copied through Source.Next and
// Sink.Write, and a consumer that keeps tuples keeps 104 B each; the
// Text handle fits beside an int32 SubStream.
func TestTupleSize(t *testing.T) {
	if n := unsafe.Sizeof(Tuple{}); n > 104 {
		t.Fatalf("unsafe.Sizeof(Tuple{}) = %d, want <= 104", n)
	}
}

// roundTripTimes spans time.Time's range: the zero time, years 1 to 9999
// and beyond, sub-second nanoseconds, negative Unix seconds, both ends of
// the int64 Unix second counter, and a time below it.
func roundTripTimes() []time.Time {
	return []time.Time{
		{},
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1500, 7, 14, 9, 30, 15, 250, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 500_000_000, time.UTC),
		time.Unix(-1, 999_999_999),
		time.Date(2016, 2, 27, 13, 30, 0, 123_456_789, time.UTC),
		time.Date(2300, 3, 1, 12, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Unix(math.MinInt64, 0),
		time.Unix(math.MinInt64, 0).Add(-time.Hour),
		time.Unix(math.MaxInt64-unixToYearOne, 999_999_999),
		time.Now(),
	}
}

func TestValueTimeRoundTrip(t *testing.T) {
	zones := []*time.Location{time.UTC, time.FixedZone("", 8*3600), time.FixedZone("", -(3*3600 + 1800)), time.Local}
	var all []time.Time
	for _, loc := range zones {
		for _, ts := range roundTripTimes() {
			all = append(all, ts.In(loc))
		}
	}
	for _, want := range all {
		v := Time(want)
		got, ok := v.AsTime()
		if !ok || !got.Equal(want) {
			t.Errorf("Time(%v).AsTime() = %v, %v", want, got, ok)
			continue
		}
		_, wantOff := want.Zone()
		if _, off := got.Zone(); off != wantOff || got.Hour() != want.Hour() {
			t.Errorf("Time(%v): offset %d hour %d, want %d and %d", want, off, got.Hour(), wantOff, want.Hour())
		}
		if s := want.Format(time.RFC3339Nano); v.String() != s || string(v.AppendString(nil)) != s {
			t.Errorf("Time(%v) renders %q / %q, want %q", want, v.String(), v.AppendString(nil), s)
		}
		for _, other := range all {
			if c, ok := v.Compare(Time(other)); !ok || c != want.Compare(other) {
				t.Errorf("Time(%v).Compare(Time(%v)) = %d, %v, want %d", want, other, c, ok, want.Compare(other))
			}
			if v.Equal(Time(other)) != want.Equal(other) {
				t.Errorf("Time(%v).Equal(Time(%v)) != time.Time.Equal", want, other)
			}
		}
	}
}

func TestValueFloatBits(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8_0000_0000_0001)
	for _, f := range []float64{math.Copysign(0, -1), math.NaN(), nanPayload, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff), math.MaxFloat64} {
		v := Float(f)
		got, ok := v.AsFloat()
		if !ok || math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%x).AsFloat() = %x", math.Float64bits(f), math.Float64bits(got))
		}
		if v.Equal(v) != (f == f) {
			t.Errorf("Float(%v).Equal(itself) = %v", f, v.Equal(v))
		}
		if s := strconv.FormatFloat(f, 'g', -1, 64); v.String() != s {
			t.Errorf("Float(%v).String() = %q, want %q", f, v.String(), s)
		}
	}
	if !Float(math.Copysign(0, -1)).Equal(Float(0)) {
		t.Error("-0 does not Equal +0")
	}
}

func TestValueIntRange(t *testing.T) {
	lo, hi := Int(math.MinInt64), Int(math.MaxInt64)
	if i, _ := lo.AsInt(); i != math.MinInt64 {
		t.Errorf("MinInt64 came back as %d", i)
	}
	if i, _ := hi.AsInt(); i != math.MaxInt64 {
		t.Errorf("MaxInt64 came back as %d", i)
	}
	if c, ok := lo.Compare(hi); !ok || c != -1 {
		t.Errorf("MinInt64.Compare(MaxInt64) = %d, %v", c, ok)
	}
	if lo.String() != "-9223372036854775808" || hi.String() != "9223372036854775807" {
		t.Errorf("renders %q and %q", lo, hi)
	}
	if ts, _ := hi.AsTime(); ts.Unix() != math.MaxInt64 {
		t.Errorf("MaxInt64 as Unix seconds = %d", ts.Unix())
	}
}

func TestValueAsTimeAllocFree(t *testing.T) {
	v := Time(time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("", 3600)))
	v.AsTime()
	if n := testing.AllocsPerRun(100, func() { v.AsTime() }); n != 0 {
		t.Fatalf("AsTime of a cached fixed zone allocates %v times", n)
	}
}

func TestValueTimeOffsetOutOfRangeIsUTC(t *testing.T) {
	want := time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("", 1<<26))
	got := Time(want).MustTime()
	if _, off := got.Zone(); !got.Equal(want) || off != 0 {
		t.Fatalf("Time(%v) came back as %v", want, got)
	}
}

// TestValueAsTimeConcurrent has goroutines fill and read the fixed-zone
// cache at once; run it under -race.
func TestValueAsTimeConcurrent(t *testing.T) {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				off := (i%7 - 3) * 1800 * (g + 1)
				got := Time(base.In(time.FixedZone("", off))).MustTime()
				if _, o := got.Zone(); o != off || !got.Equal(base) {
					t.Errorf("offset %d came back as %v", off, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
