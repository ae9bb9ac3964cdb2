package stream

import (
	"io"
	"testing"
	"time"
)

// testSchema returns a small schema with an int timestamp and one float.
func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("ts",
		Field{Name: "ts", Kind: KindTime},
		Field{Name: "v", Kind: KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func makeTuples(s *Schema, n int) []Tuple {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Tuple, n)
	for i := range out {
		out[i] = NewTuple(s, []Value{Time(base.Add(time.Duration(i) * time.Hour)), Float(float64(i))})
	}
	return out
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("ts"); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema("missing", Field{Name: "a", Kind: KindFloat}); err == nil {
		t.Error("schema without timestamp attribute accepted")
	}
	if _, err := NewSchema("a", Field{Name: "a", Kind: KindFloat}); err == nil {
		t.Error("float timestamp attribute accepted")
	}
	if _, err := NewSchema("ts", Field{Name: "ts", Kind: KindTime}, Field{Name: "ts", Kind: KindFloat}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := NewSchema("ts", Field{Name: "ts", Kind: KindTime}, Field{Name: "", Kind: KindFloat}); err == nil {
		t.Error("empty field name accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Index("v") != 1 || s.Index("nope") != -1 {
		t.Error("Index lookup wrong")
	}
	if !s.Has("ts") || s.Has("zzz") {
		t.Error("Has lookup wrong")
	}
	if s.Timestamp() != "ts" || s.TimestampIndex() != 0 {
		t.Error("timestamp metadata wrong")
	}
	if names := s.Names(); len(names) != 2 || names[0] != "ts" || names[1] != "v" {
		t.Errorf("Names = %v", names)
	}
	s2 := testSchema(t)
	if !s.Equal(s2) {
		t.Error("equal schemas compare unequal")
	}
	s3 := MustSchema("ts", Field{Name: "ts", Kind: KindTime}, Field{Name: "w", Kind: KindFloat})
	if s.Equal(s3) {
		t.Error("different schemas compare equal")
	}
}

func TestTupleBasics(t *testing.T) {
	s := testSchema(t)
	ts := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	tp := NewTuple(s, []Value{Time(ts), Float(3)})
	if got := tp.MustGet("v"); !got.Equal(Float(3)) {
		t.Errorf("MustGet(v) = %v", got)
	}
	if _, ok := tp.Get("nope"); ok {
		t.Error("Get of missing attr reported ok")
	}
	if !tp.Set("v", Float(9)) {
		t.Error("Set failed")
	}
	if tp.Set("nope", Float(1)) {
		t.Error("Set of missing attr reported ok")
	}
	got, ok := tp.Timestamp()
	if !ok || !got.Equal(ts) {
		t.Errorf("Timestamp = %v, %v", got, ok)
	}
	tp.SetTimestamp(ts.Add(time.Hour))
	got, _ = tp.Timestamp()
	if !got.Equal(ts.Add(time.Hour)) {
		t.Error("SetTimestamp did not update")
	}
}

func TestTupleIntTimestamp(t *testing.T) {
	s := MustSchema("epoch", Field{Name: "epoch", Kind: KindInt})
	tp := NewTuple(s, []Value{Int(3600)})
	ts, ok := tp.Timestamp()
	if !ok || ts.Unix() != 3600 {
		t.Fatalf("int timestamp: %v %v", ts, ok)
	}
	tp.SetTimestamp(time.Unix(7200, 0))
	if v := tp.MustGet("epoch"); !v.Equal(Int(7200)) {
		t.Fatalf("SetTimestamp on int schema: %v", v)
	}
}

func TestTupleCloneIsDeep(t *testing.T) {
	s := testSchema(t)
	orig := makeTuples(s, 1)[0]
	clone := orig.Clone()
	clone.Set("v", Float(99))
	if orig.MustGet("v").Equal(Float(99)) {
		t.Fatal("mutating clone changed original")
	}
	if !clone.Equal(orig) {
		// Equal compares values; they differ now, which is expected.
		return
	}
	t.Fatal("clone still equal after mutation")
}

func TestNewTuplePanicsOnArityMismatch(t *testing.T) {
	s := testSchema(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on arity mismatch")
		}
	}()
	NewTuple(s, []Value{Float(1)})
}

func TestSliceSourceAndDrain(t *testing.T) {
	s := testSchema(t)
	tuples := makeTuples(s, 5)
	src := NewSliceSource(s, tuples)
	got, err := Drain(src)
	if err != nil || len(got) != 5 {
		t.Fatalf("Drain: %d tuples, err %v", len(got), err)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatal("exhausted source did not return EOF")
	}
	src.Reset()
	if tp, err := src.Next(); err != nil || !tp.Equal(tuples[0]) {
		t.Fatal("Reset did not rewind")
	}
}

func TestGeneratorSource(t *testing.T) {
	s := testSchema(t)
	src := NewGeneratorSource(s, 4, func(i int) Tuple {
		return NewTuple(s, []Value{Time(time.Unix(int64(i), 0)), Float(float64(i * i))})
	})
	got, _ := Drain(src)
	if len(got) != 4 || !got[3].MustGet("v").Equal(Float(9)) {
		t.Fatalf("generator: %v", got)
	}
}

func TestPrepareAssignsIDsAndEventTime(t *testing.T) {
	s := testSchema(t)
	src := NewPrepare(NewSliceSource(s, makeTuples(s, 3)), 10)
	got, _ := Drain(src)
	for i, tp := range got {
		if tp.ID != uint64(10+i) {
			t.Errorf("tuple %d has ID %d", i, tp.ID)
		}
		ts, _ := tp.Timestamp()
		if !tp.EventTime.Equal(ts) {
			t.Errorf("tuple %d event time not replicated", i)
		}
		if !tp.Arrival.Equal(ts) {
			t.Errorf("tuple %d arrival not initialised", i)
		}
	}
}

func TestSinks(t *testing.T) {
	s := testSchema(t)
	n, err := Copy(DiscardSink{}, NewSliceSource(s, makeTuples(s, 2)))
	if err != nil || n != 2 {
		t.Fatalf("discard sink: n=%d err=%v", n, err)
	}
}

func TestSplitRouting(t *testing.T) {
	s := testSchema(t)

	// Round-robin: disjoint partition.
	subs := Split(NewSliceSource(s, makeTuples(s, 10)), 2, RouteRoundRobin())
	a, _ := Drain(subs[0])
	b, _ := Drain(subs[1])
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("round robin: %d + %d", len(a), len(b))
	}

	// RouteAll: full overlap.
	subs = Split(NewSliceSource(s, makeTuples(s, 4)), 3, RouteAll)
	for i, sub := range subs {
		got, _ := Drain(sub)
		if len(got) != 4 {
			t.Fatalf("overlap sub %d has %d tuples", i, len(got))
		}
	}
}

func TestSplitInterleavedConsumption(t *testing.T) {
	s := testSchema(t)
	subs := Split(NewSliceSource(s, makeTuples(s, 6)), 2, RouteRoundRobin())
	// Alternate pulls to exercise the shared demux buffering.
	for i := 0; i < 3; i++ {
		ta, err := subs[0].Next()
		if err != nil {
			t.Fatal(err)
		}
		tb, err := subs[1].Next()
		if err != nil {
			t.Fatal(err)
		}
		if ta.MustGet("v").MustFloat() != float64(2*i) || tb.MustGet("v").MustFloat() != float64(2*i+1) {
			t.Fatalf("interleaving wrong at %d: %v %v", i, ta, tb)
		}
	}
	if _, err := subs[0].Next(); err != io.EOF {
		t.Fatal("sub 0 not exhausted")
	}
	if _, err := subs[1].Next(); err != io.EOF {
		t.Fatal("sub 1 not exhausted")
	}
}

func TestSplitClonesTuples(t *testing.T) {
	s := testSchema(t)
	subs := Split(NewSliceSource(s, makeTuples(s, 1)), 2, RouteAll)
	ta, _ := subs[0].Next()
	ta.Set("v", Float(-1))
	tb, _ := subs[1].Next()
	if tb.MustGet("v").Equal(Float(-1)) {
		t.Fatal("sub-streams share tuple storage")
	}
}

func TestRouteByAttribute(t *testing.T) {
	s := MustSchema("ts",
		Field{Name: "ts", Kind: KindTime},
		Field{Name: "sensor", Kind: KindString},
	)
	base := time.Unix(0, 0)
	var tuples []Tuple
	for i := 0; i < 20; i++ {
		name := "S1"
		if i%2 == 0 {
			name = "S2"
		}
		tuples = append(tuples, NewTuple(s, []Value{Time(base.Add(time.Duration(i) * time.Second)), Str(name)}))
	}
	route := RouteByAttribute("sensor")
	first := route(tuples[0], 4)
	for _, tp := range tuples {
		got := route(tp, 4)
		if len(got) != 1 {
			t.Fatal("key routing returned multiple targets")
		}
		same, _ := tp.Get("sensor")
		if s0, _ := tuples[0].Get("sensor"); same.Equal(s0) && got[0] != first[0] {
			t.Fatal("same key routed to different sub-streams")
		}
	}
}

func TestSortMergeOrdersByArrival(t *testing.T) {
	s := testSchema(t)
	prepared, _ := Drain(NewPrepare(NewSliceSource(s, makeTuples(s, 6)), 1))
	// Delay tuple 2 past tuple 4.
	prepared[2].Arrival = prepared[2].Arrival.Add(3 * time.Hour)
	a := NewSliceSource(s, prepared[:3])
	b := NewSliceSource(s, prepared[3:])
	merged, err := SortMerge([]Source{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 6 {
		t.Fatalf("merged %d", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Arrival.Before(merged[i-1].Arrival) {
			t.Fatalf("merge not sorted at %d", i)
		}
	}
	// Sub-stream ids assigned.
	if merged[0].SubStream != 0 {
		t.Errorf("substream id missing: %+v", merged[0])
	}
	// The delayed tuple's Time attribute now breaks increasing order.
	breaks := 0
	for i := 1; i < len(merged); i++ {
		prev, _ := merged[i-1].Timestamp()
		cur, _ := merged[i].Timestamp()
		if cur.Before(prev) {
			breaks++
		}
	}
	if breaks == 0 {
		t.Fatal("delayed tuple did not break timestamp order")
	}
}

func TestKWayMerge(t *testing.T) {
	s := testSchema(t)
	prepared, _ := Drain(NewPrepare(NewSliceSource(s, makeTuples(s, 10)), 1))
	var even, odd []Tuple
	for i, tp := range prepared {
		if i%2 == 0 {
			even = append(even, tp)
		} else {
			odd = append(odd, tp)
		}
	}
	m, err := NewKWayMerge([]Source{NewSliceSource(s, even), NewSliceSource(s, odd)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(m)
	if err != nil || len(got) != 10 {
		t.Fatalf("kway: %d, %v", len(got), err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Arrival.Before(got[i-1].Arrival) {
			t.Fatalf("kway merge out of order at %d", i)
		}
	}
}

func TestBoundedReorder(t *testing.T) {
	s := testSchema(t)
	prepared, _ := Drain(NewPrepare(NewSliceSource(s, makeTuples(s, 8)), 1))
	// Swap neighbours to create bounded disorder.
	prepared[1], prepared[2] = prepared[2], prepared[1]
	prepared[5], prepared[6] = prepared[6], prepared[5]
	r := NewBoundedReorder(NewSliceSource(s, prepared), 3)
	got, err := Drain(r)
	if err != nil || len(got) != 8 {
		t.Fatalf("reorder: %d, %v", len(got), err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Arrival.Before(got[i-1].Arrival) {
			t.Fatalf("bounded reorder failed at %d", i)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if v, ok := Int(5).AsInt(); !ok || v != 5 {
		t.Fatal("AsInt int")
	}
	if v, ok := Float(3.9).AsInt(); !ok || v != 3 {
		t.Fatal("AsInt float truncation")
	}
	if _, ok := Str("x").AsInt(); ok {
		t.Fatal("AsInt string")
	}
	if s, ok := Str("x").AsString(); !ok || s != "x" {
		t.Fatal("AsString")
	}
	if _, ok := Float(1).AsString(); ok {
		t.Fatal("AsString on float")
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Fatal("AsBool")
	}
	if _, ok := Int(1).AsBool(); ok {
		t.Fatal("AsBool on int")
	}
	now := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	if got := Time(now).MustTime(); !got.Equal(now) {
		t.Fatal("MustTime")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustTime on string did not panic")
		}
	}()
	Str("x").MustTime()
}

func TestValueStringRendering(t *testing.T) {
	cases := map[string]Value{
		"":                     Null(),
		"1.5":                  Float(1.5),
		"-7":                   Int(-7),
		"hello":                Str("hello"),
		"true":                 Bool(true),
		"2020-05-01T00:00:00Z": Time(time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestTupleStringAndAccessors(t *testing.T) {
	s := testSchema(t)
	tp := makeTuples(s, 1)[0]
	tp.ID = 7
	if tp.Len() != 2 || tp.Schema() != s {
		t.Fatal("Len/Schema")
	}
	if !tp.At(1).Equal(Float(0)) {
		t.Fatal("At")
	}
	tp.SetAt(1, Float(9))
	if !tp.At(1).Equal(Float(9)) {
		t.Fatal("SetAt")
	}
	if len(tp.Values()) != 2 {
		t.Fatal("Values")
	}
	str := tp.String()
	if str == "" || str[0] != '#' {
		t.Fatalf("String %q", str)
	}
	if f, ok := tp.GetFloat("v"); !ok || f != 9 {
		t.Fatal("GetFloat")
	}
	if _, ok := tp.GetFloat("zzz"); ok {
		t.Fatal("GetFloat missing attr")
	}
}

func TestSchemaFieldsCopy(t *testing.T) {
	s := testSchema(t)
	fields := s.Fields()
	fields[0].Name = "mutated"
	if s.Field(0).Name != "ts" {
		t.Fatal("Fields returned shared storage")
	}
}

func TestSourceSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	tuples := makeTuples(s, 4)
	srcs := []Source{
		NewPrepare(NewSliceSource(s, tuples), 1),
		NewBoundedReorder(NewSliceSource(s, tuples), 2),
	}
	for i, src := range srcs {
		if !src.Schema().Equal(s) {
			t.Fatalf("source %d schema mismatch", i)
		}
	}
	subs := Split(NewSliceSource(s, tuples), 2, RouteAll)
	if !subs[0].Schema().Equal(s) {
		t.Fatal("split schema")
	}
	m, err := NewKWayMerge([]Source{NewSliceSource(s, tuples)})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Schema().Equal(s) {
		t.Fatal("kway schema")
	}
}
