package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %g", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("variance %g", v)
	}
	if s := Stddev(xs); s != 2 {
		t.Fatalf("stddev %g", s)
	}
	if sv := SampleVariance(xs); !almost(sv, 32.0/7, 1e-12) {
		t.Fatalf("sample variance %g", sv)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || SampleVariance([]float64{1}) != 0 {
		t.Fatal("empty-input stats not zero")
	}
	if _, _, ok := MinMax(nil); ok {
		t.Fatal("MinMax on empty reported ok")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("quantile of empty not zero")
	}
	b := NewBoxPlot(nil)
	if b.N != 0 {
		t.Fatal("boxplot of empty")
	}
}

func TestMinMax(t *testing.T) {
	min, max, ok := MinMax([]float64{3, -1, 7, 0})
	if !ok || min != -1 || max != 7 {
		t.Fatalf("minmax %g %g %v", min, max, ok)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
		{-0.5, 1}, {1.5, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if Median([]float64{5}) != 5 {
		t.Error("median of singleton")
	}
	// Quantile must not mutate its input.
	orig := []float64{3, 1, 2}
	Quantile(orig, 0.5)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestQuantileMonotonicProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		min, max, _ := MinMax(xs)
		return Quantile(xs, 0) == min && Quantile(xs, 1) == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxPlot(t *testing.T) {
	// 1..11 plus an extreme outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100}
	b := NewBoxPlot(xs)
	if b.N != 12 || b.Min != 1 || b.Max != 100 {
		t.Fatalf("basic fields: %+v", b)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("outliers: %v", b.Outliers)
	}
	if b.WhiskerHigh >= 100 {
		t.Fatalf("whisker includes outlier: %g", b.WhiskerHigh)
	}
	if b.Q1 >= b.Median || b.Median >= b.Q3 {
		t.Fatalf("quartile ordering: %+v", b)
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestBoxPlotNoOutliers(t *testing.T) {
	b := NewBoxPlot([]float64{1, 2, 3, 4, 5})
	if len(b.Outliers) != 0 {
		t.Fatalf("unexpected outliers: %v", b.Outliers)
	}
	if b.WhiskerLow != 1 || b.WhiskerHigh != 5 {
		t.Fatalf("whiskers: %+v", b)
	}
}

func TestOLSRecoversCoefficients(t *testing.T) {
	// y = 3 + 2·a - 0.5·b, exactly.
	var x [][]float64
	var y []float64
	for a := 0.0; a < 10; a++ {
		for b := 0.0; b < 10; b++ {
			x = append(x, []float64{1, a, b})
			y = append(y, 3+2*a-0.5*b)
		}
	}
	beta, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -0.5}
	for i := range want {
		if !almost(beta[i], want[i], 1e-6) {
			t.Fatalf("beta[%d] = %g, want %g", i, beta[i], want[i])
		}
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS(nil, nil); err == nil {
		t.Error("empty OLS accepted")
	}
	if _, err := OLS([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched rows accepted")
	}
	if _, err := OLS([][]float64{{}}, []float64{1}); err == nil {
		t.Error("zero regressors accepted")
	}
	if _, err := OLS([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1, 1e-9) || !almost(x[1], 3, 1e-9) {
		t.Fatalf("solution %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system accepted")
	}
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Fatal("empty system accepted")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	x, err := SolveLinear(a, []float64{7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 9, 1e-9) || !almost(x[1], 7, 1e-9) {
		t.Fatalf("solution %v", x)
	}
}

func TestMAERMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	actual := []float64{1, 4, 3}
	if m := MAE(pred, actual); !almost(m, 2.0/3, 1e-12) {
		t.Fatalf("MAE %g", m)
	}
	if r := RMSE(pred, actual); !almost(r, math.Sqrt(4.0/3), 1e-12) {
		t.Fatalf("RMSE %g", r)
	}
	if !math.IsNaN(MAE(nil, nil)) || !math.IsNaN(RMSE([]float64{1}, nil)) {
		t.Fatal("degenerate inputs should yield NaN")
	}
}

func TestRMSEDominatesMAEProperty(t *testing.T) {
	prop := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		p, q := a[:n], b[:n]
		for _, v := range append(append([]float64{}, p...), q...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		return RMSE(p, q) >= MAE(p, q)-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
