package main

import (
	"math"
	"slices"
)

// Stat summarises the repetitions of one metric within a run. Value is
// what the run reports: the median, unless the workload named the best
// repetition instead (see Result.best). The quartiles follow Python's
// statistics.quantiles(values, n=4), the rule the acceptance driver
// applies across runs, so a spread computed here means the same thing.
type Stat struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(samples []float64) Stat {
	xs := slices.Clone(samples)
	slices.Sort(xs)
	n := len(xs)
	if n == 0 {
		return Stat{}
	}
	s := Stat{Min: xs[0], Max: xs[n-1], N: n, Median: quantile(xs, 2), Q1: quantile(xs, 1), Q3: quantile(xs, 3)}
	s.Value = s.Median
	return s
}

// quantile returns the i-th quartile cut point of sorted xs (exclusive
// method); a single sample is its own quartile.
func quantile(xs []float64, i int) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
}

// uncertainty says how far the reported value can be trusted, as a share
// of it: for a median, the interquartile distance of the repetitions
// over √n; for a best repetition, its distance to the quartile on its
// side — a best that stands alone, far from the rest, is a fluke.
func (s Stat) uncertainty() float64 {
	switch {
	case s.Value == 0:
		return 0
	case s.Value < s.Q1:
		return (s.Q1 - s.Value) / s.Value
	case s.Value > s.Q3:
		return (s.Value - s.Q3) / s.Value
	}
	return math.Abs((s.Q3-s.Q1)/s.Value) / math.Sqrt(float64(s.N))
}

// percentile returns the q-quantile (0..1) of sorted, by nearest rank.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
