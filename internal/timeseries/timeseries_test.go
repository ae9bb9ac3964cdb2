package timeseries

import (
	"math"
	"testing"
	"time"
)

func hourly(start time.Time, values []float64) *Series {
	times := make([]time.Time, len(values))
	for i := range values {
		times[i] = start.Add(time.Duration(i) * time.Hour)
	}
	return New(times, values)
}

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestNewPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	New([]time.Time{t0}, []float64{1, 2})
}

func TestCloneAndSlice(t *testing.T) {
	s := hourly(t0, []float64{1, 2, 3, 4})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatal("clone shares storage")
	}
	sl := s.Slice(1, 3)
	if sl.Len() != 2 || sl.Values[0] != 2 || sl.Values[1] != 3 {
		t.Fatalf("slice %v", sl.Values)
	}
	sl.Values[0] = -1
	if s.Values[1] != 2 {
		t.Fatal("slice shares storage")
	}
}

func TestFFill(t *testing.T) {
	nan := math.NaN()
	s := hourly(t0, []float64{nan, nan, 3, nan, 5, nan})
	filled := s.FFill()
	if filled != 4 {
		t.Fatalf("filled %d", filled)
	}
	want := []float64{3, 3, 3, 3, 5, 5}
	for i, v := range want {
		if s.Values[i] != v {
			t.Fatalf("ffill: %v, want %v", s.Values, want)
		}
	}
}

func TestFFillAllMissing(t *testing.T) {
	s := hourly(t0, []float64{math.NaN(), math.NaN()})
	if filled := s.FFill(); filled != 0 {
		t.Fatalf("all-NaN series filled %d values", filled)
	}
	if !math.IsNaN(s.Values[0]) || !math.IsNaN(s.Values[1]) {
		t.Fatal("all-NaN series should stay missing")
	}
}

func TestFFillNoMissing(t *testing.T) {
	s := hourly(t0, []float64{1, 2, 3})
	if filled := s.FFill(); filled != 0 {
		t.Fatalf("filled %d in complete series", filled)
	}
}

func TestIndexAtOrAfter(t *testing.T) {
	s := hourly(t0, []float64{1, 2, 3, 4})
	if i := s.IndexAtOrAfter(t0); i != 0 {
		t.Fatalf("at start: %d", i)
	}
	if i := s.IndexAtOrAfter(t0.Add(90 * time.Minute)); i != 2 {
		t.Fatalf("between: %d", i)
	}
	if i := s.IndexAtOrAfter(t0.Add(100 * time.Hour)); i != 4 {
		t.Fatalf("past end: %d", i)
	}
}

func TestSinCosEncodings(t *testing.T) {
	sin, cos := HourSinCos(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	if math.Abs(sin) > 1e-9 || math.Abs(cos-1) > 1e-9 {
		t.Fatalf("midnight encoding %g %g", sin, cos)
	}
	sin, cos = HourSinCos(time.Date(2020, 1, 1, 6, 0, 0, 0, time.UTC))
	if math.Abs(sin-1) > 1e-9 || math.Abs(cos) > 1e-9 {
		t.Fatalf("6am encoding %g %g", sin, cos)
	}
	sin, cos = MonthSinCos(time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC))
	if math.Abs(sin) > 1e-9 || math.Abs(cos-1) > 1e-9 {
		t.Fatalf("january encoding %g %g", sin, cos)
	}
	sin, cos = MonthSinCos(time.Date(2020, 4, 15, 0, 0, 0, 0, time.UTC))
	if math.Abs(sin-1) > 1e-9 || math.Abs(cos) > 1e-9 {
		t.Fatalf("april encoding %g %g", sin, cos)
	}
}

func TestSplitTable2(t *testing.T) {
	// Two full non-leap years of hourly data (2021, 2022).
	start := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	n := 2 * 365 * 24
	values := make([]float64, n)
	s := New(nil, nil)
	for i := 0; i < n; i++ {
		s.Times = append(s.Times, start.Add(time.Duration(i)*time.Hour))
	}
	s.Values = values
	splits, err := Split(s, 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// D_train: first year minus 12 h; D_valid: those 12 h; D_eval: the
	// last year (the boundary sample at end-1y is included, hence +1).
	if splits.Train.Len() != 365*24-12 {
		t.Fatalf("train len %d", splits.Train.Len())
	}
	if splits.Valid.Len() != 12 {
		t.Fatalf("valid len %d", splits.Valid.Len())
	}
	if splits.Eval.Len() != 365*24+1 {
		t.Fatalf("eval len %d", splits.Eval.Len())
	}
	// Boundaries align.
	if !splits.Valid.Times[0].Equal(splits.TrainEnd) {
		t.Fatal("valid does not start at train end")
	}
	if !splits.Eval.Times[0].Equal(splits.EvalStart) {
		t.Fatal("eval does not start at eval start")
	}
}

func TestSplitTooShort(t *testing.T) {
	s := hourly(t0, make([]float64, 100))
	if _, err := Split(s, 12*time.Hour); err == nil {
		t.Fatal("sub-year series split accepted")
	}
	if _, err := Split(&Series{}, time.Hour); err == nil {
		t.Fatal("empty series split accepted")
	}
}

func TestTimeSeriesCV(t *testing.T) {
	folds, err := TimeSeriesCV(120, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	testSize := 120 / 6
	for i, f := range folds {
		if f.TestEnd-f.TestStart != testSize {
			t.Fatalf("fold %d test size %d", i, f.TestEnd-f.TestStart)
		}
		if f.TrainEnd != f.TestStart {
			t.Fatalf("fold %d gap between train and test", i)
		}
		if i > 0 && folds[i-1].TestEnd != f.TestStart {
			t.Fatalf("folds %d/%d not contiguous", i-1, i)
		}
	}
	if folds[4].TestEnd != 120 {
		t.Fatalf("last fold ends at %d", folds[4].TestEnd)
	}
	// Training sets expand.
	for i := 1; i < len(folds); i++ {
		if folds[i].TrainEnd <= folds[i-1].TrainEnd {
			t.Fatal("training windows do not expand")
		}
	}
}

func TestTimeSeriesCVErrors(t *testing.T) {
	if _, err := TimeSeriesCV(100, 1); err == nil {
		t.Error("1 split accepted")
	}
	if _, err := TimeSeriesCV(3, 5); err == nil {
		t.Error("tiny series accepted")
	}
}
