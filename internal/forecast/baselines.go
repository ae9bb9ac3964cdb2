package forecast

import "fmt"

// This file provides the classical reference baselines every forecasting
// study should report against: last-value (naive), seasonal-naive, and
// drift. A sophisticated method that cannot beat them on a workload is
// not learning anything the workload's structure gives away for free.

// Naive forecasts the last observed value for every horizon step.
type Naive struct {
	last  float64
	ready bool
}

// NewNaive returns a last-value forecaster.
func NewNaive() *Naive { return &Naive{} }

// Name implements Model.
func (m *Naive) Name() string { return "naive" }

// Fit implements Model.
func (m *Naive) Fit(y []float64, _ [][]float64) error {
	if len(y) == 0 {
		return fmt.Errorf("forecast: naive needs at least one observation")
	}
	m.last = y[len(y)-1]
	m.ready = true
	return nil
}

// Forecast implements Model.
func (m *Naive) Forecast(h int, _ [][]float64) ([]float64, error) {
	if !m.ready {
		return nil, fmt.Errorf("forecast: naive not fitted")
	}
	if h <= 0 {
		return nil, fmt.Errorf("forecast: horizon %d", h)
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = m.last
	}
	return out, nil
}

// SeasonalNaive forecasts the value observed one season earlier:
// ŷ_{t+k} = y_{t+k−s}.
type SeasonalNaive struct {
	Period int

	season []float64
	ready  bool
}

// NewSeasonalNaive returns a seasonal-naive forecaster with the given
// period.
func NewSeasonalNaive(period int) *SeasonalNaive {
	return &SeasonalNaive{Period: period}
}

// Name implements Model.
func (m *SeasonalNaive) Name() string { return "seasonal_naive" }

// Fit implements Model.
func (m *SeasonalNaive) Fit(y []float64, _ [][]float64) error {
	if m.Period < 1 {
		return fmt.Errorf("forecast: seasonal naive needs a period >= 1")
	}
	if len(y) < m.Period {
		return fmt.Errorf("forecast: %d observations shorter than the period %d", len(y), m.Period)
	}
	m.season = append([]float64(nil), y[len(y)-m.Period:]...)
	m.ready = true
	return nil
}

// Forecast implements Model.
func (m *SeasonalNaive) Forecast(h int, _ [][]float64) ([]float64, error) {
	if !m.ready {
		return nil, fmt.Errorf("forecast: seasonal naive not fitted")
	}
	if h <= 0 {
		return nil, fmt.Errorf("forecast: horizon %d", h)
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = m.season[i%m.Period]
	}
	return out, nil
}
