// Package stats provides the small statistics toolkit the experiments
// need: descriptive statistics, quantiles and box-plot summaries (Figure
// 8), ordinary least squares (ARIMAX's regression component and
// Hannan-Rissanen style fitting), and autocorrelations.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance (n-1 denominator).
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += float64(d * d)
	}
	return sum / float64(len(xs)-1)
}

// Stddev returns the population standard deviation.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the extremes of xs; ok is false for empty input.
func MinMax(xs []float64) (min, max float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, true
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the numpy default).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// BoxPlot summarises a sample the way Figure 8 presents runtimes:
// median, quartiles, whiskers at 1.5·IQR, and outliers beyond them.
type BoxPlot struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLow, WhiskerHigh  float64
	Outliers                 []float64
	N                        int
}

// NewBoxPlot computes the five-number summary plus Tukey whiskers.
func NewBoxPlot(xs []float64) BoxPlot {
	b := BoxPlot{N: len(xs)}
	if len(xs) == 0 {
		return b
	}
	b.Min, b.Max, _ = MinMax(xs)
	b.Q1 = Quantile(xs, 0.25)
	b.Median = Quantile(xs, 0.5)
	b.Q3 = Quantile(xs, 0.75)
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLow, b.WhiskerHigh = b.Max, b.Min
	for _, x := range xs {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if x < b.WhiskerLow {
			b.WhiskerLow = x
		}
		if x > b.WhiskerHigh {
			b.WhiskerHigh = x
		}
	}
	return b
}

// String renders the summary as one report line.
func (b BoxPlot) String() string {
	return fmt.Sprintf("n=%d min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f whiskers=[%.3f, %.3f] outliers=%d",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.WhiskerLow, b.WhiskerHigh, len(b.Outliers))
}

// Autocorrelation returns the lag-k autocorrelation of xs.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+lag < n; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}

// OLS solves the least-squares problem y ≈ X·β via normal equations with
// Gaussian elimination and partial pivoting. X is row-major with one row
// per observation. It returns the coefficient vector β.
func OLS(x [][]float64, y []float64) ([]float64, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("stats: OLS needs matching non-empty X (%d rows) and y (%d)", n, len(y))
	}
	k := len(x[0])
	if k == 0 {
		return nil, fmt.Errorf("stats: OLS needs at least one regressor")
	}
	// Build XtX and Xty.
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	for r := 0; r < n; r++ {
		row := x[r]
		if len(row) != k {
			return nil, fmt.Errorf("stats: OLS row %d has %d columns, want %d", r, len(row), k)
		}
		for i := 0; i < k; i++ {
			xty[i] += row[i] * y[r]
			for j := i; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	// Ridge-regularise minimally for numerical safety on collinear input.
	for i := 0; i < k; i++ {
		xtx[i][i] += 1e-10
	}
	beta, err := SolveLinear(xtx, xty)
	if err != nil {
		return nil, fmt.Errorf("stats: OLS: %w", err)
	}
	return beta, nil
}

// SolveLinear solves A·x = b in place via Gaussian elimination with
// partial pivoting. A and b are modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("stats: bad system dimensions")
	}
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-14 {
			return nil, fmt.Errorf("stats: singular matrix at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back-substitute.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}

// MAE returns the mean absolute error between forecasts and actuals.
func MAE(pred, actual []float64) float64 {
	n := len(pred)
	if n == 0 || n != len(actual) {
		return math.NaN()
	}
	sum := 0.0
	for i := range pred {
		sum += math.Abs(pred[i] - actual[i])
	}
	return sum / float64(n)
}

// RMSE returns the root mean squared error between forecasts and actuals.
func RMSE(pred, actual []float64) float64 {
	n := len(pred)
	if n == 0 || n != len(actual) {
		return math.NaN()
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - actual[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}
