// Package timeseries provides the time-series utilities the forecasting
// experiment relies on: a series container, forward/backward fill
// imputation (the pandas ffill step of §3.2.1), cyclical
// sine/cosine time encodings (ARIMAX inputs), and the Table 2 data
// splits.
package timeseries

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series is a univariate time series: parallel slices of timestamps and
// values, ordered by time. NaN marks missing values.
type Series struct {
	Times  []time.Time
	Values []float64
}

// New returns a series over the given parallel slices. It panics on
// length mismatch (a programming error in the caller).
func New(times []time.Time, values []float64) *Series {
	if len(times) != len(values) {
		panic(fmt.Sprintf("timeseries: %d times vs %d values", len(times), len(values)))
	}
	return &Series{Times: times, Values: values}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Values) }

// Clone deep-copies the series.
func (s *Series) Clone() *Series {
	return &Series{
		Times:  append([]time.Time(nil), s.Times...),
		Values: append([]float64(nil), s.Values...),
	}
}

// Slice returns the sub-series [i, j) sharing no storage with s.
func (s *Series) Slice(i, j int) *Series {
	return &Series{
		Times:  append([]time.Time(nil), s.Times[i:j]...),
		Values: append([]float64(nil), s.Values[i:j]...),
	}
}

// FFill forward-fills missing values in place and then backward-fills any
// leading NaNs, mirroring the paper's pandas ffill imputation. It reports
// how many values were filled.
func (s *Series) FFill() int {
	filled := 0
	last := math.NaN()
	for i, v := range s.Values {
		if math.IsNaN(v) {
			if !math.IsNaN(last) {
				s.Values[i] = last
				filled++
			}
			continue
		}
		last = v
	}
	// Backward fill the leading gap, if any.
	next := math.NaN()
	for i := len(s.Values) - 1; i >= 0; i-- {
		v := s.Values[i]
		if math.IsNaN(v) {
			if !math.IsNaN(next) {
				s.Values[i] = next
				filled++
			}
			continue
		}
		next = v
	}
	return filled
}

// IndexAtOrAfter returns the first index whose timestamp is not before t,
// or Len() if every observation precedes t. The series must be sorted.
func (s *Series) IndexAtOrAfter(t time.Time) int {
	return sort.Search(len(s.Times), func(i int) bool {
		return !s.Times[i].Before(t)
	})
}

// HourSinCos returns the cyclical encoding of the hour of day:
// sin(2π·h/24), cos(2π·h/24).
func HourSinCos(t time.Time) (float64, float64) {
	h := float64(t.Hour()) + float64(t.Minute())/60
	angle := 2 * math.Pi * h / 24
	return math.Sin(angle), math.Cos(angle)
}

// MonthSinCos returns the cyclical encoding of the month:
// sin(2π·(m-1)/12), cos(2π·(m-1)/12).
func MonthSinCos(t time.Time) (float64, float64) {
	m := float64(int(t.Month()) - 1)
	angle := 2 * math.Pi * m / 12
	return math.Sin(angle), math.Cos(angle)
}
