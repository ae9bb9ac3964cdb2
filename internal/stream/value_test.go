package stream

import (
	"testing"
	"testing/quick"
	"time"
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
