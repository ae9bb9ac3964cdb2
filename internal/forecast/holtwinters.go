package forecast

import "fmt"

// HoltWinters is additive triple exponential smoothing with level, trend
// and a seasonal component of the given period (24 for hourly data with a
// daily cycle). With Period == 0 it degrades to double exponential
// smoothing (Holt's linear trend).
type HoltWinters struct {
	Alpha, Beta, Gamma float64
	Period             int

	level, trend float64
	season       []float64
	steps        int
	ready        bool
}

// NewHoltWinters returns an unfitted smoother.
func NewHoltWinters(alpha, beta, gamma float64, period int) *HoltWinters {
	return &HoltWinters{Alpha: alpha, Beta: beta, Gamma: gamma, Period: period}
}

// Name implements Model.
func (m *HoltWinters) Name() string { return "holt_winters" }

// Fit implements Model: it initialises the components from the first two
// seasons and then runs the smoothing recursions over the whole training
// window. The exogenous matrix is ignored.
func (m *HoltWinters) Fit(y []float64, _ [][]float64) error {
	if !(m.Alpha > 0 && m.Alpha <= 1) || m.Beta < 0 || m.Beta > 1 || m.Gamma < 0 || m.Gamma > 1 {
		return fmt.Errorf("forecast: Holt-Winters smoothing parameters out of range (α=%g β=%g γ=%g)", m.Alpha, m.Beta, m.Gamma)
	}
	p := m.Period
	if p > 0 {
		if len(y) < 2*p {
			return fmt.Errorf("forecast: Holt-Winters needs at least two seasons (%d), got %d observations", 2*p, len(y))
		}
		// Initial level: mean of the first season. Initial trend: average
		// per-step change between the first two seasons. Initial seasonal
		// indices: deviation of the first season from its mean.
		var s1, s2 float64
		for i := 0; i < p; i++ {
			s1 += y[i]
			s2 += y[p+i]
		}
		s1 /= float64(p)
		s2 /= float64(p)
		m.level = s1
		m.trend = (s2 - s1) / float64(p)
		m.season = make([]float64, p)
		for i := 0; i < p; i++ {
			m.season[i] = y[i] - s1
		}
		m.steps = 0
		for t := 0; t < len(y); t++ {
			m.update(y[t])
		}
	} else {
		if len(y) < 2 {
			return fmt.Errorf("forecast: Holt needs at least 2 observations")
		}
		m.level = y[0]
		m.trend = y[1] - y[0]
		m.season = nil
		m.steps = 0
		for t := 1; t < len(y); t++ {
			m.update(y[t])
		}
	}
	m.ready = true
	return nil
}

// update applies one smoothing step for observation y.
func (m *HoltWinters) update(y float64) {
	if m.Period > 0 {
		i := m.steps % m.Period
		s := m.season[i]
		prevLevel := m.level
		m.level = m.Alpha*(y-s) + (1-m.Alpha)*(m.level+m.trend)
		m.trend = m.Beta*(m.level-prevLevel) + (1-m.Beta)*m.trend
		m.season[i] = m.Gamma*(y-m.level) + (1-m.Gamma)*s
	} else {
		prevLevel := m.level
		m.level = m.Alpha*y + (1-m.Alpha)*(m.level+m.trend)
		m.trend = m.Beta*(m.level-prevLevel) + (1-m.Beta)*m.trend
	}
	m.steps++
}

// Forecast implements Model.
func (m *HoltWinters) Forecast(h int, _ [][]float64) ([]float64, error) {
	if !m.ready {
		return nil, fmt.Errorf("forecast: Holt-Winters not fitted")
	}
	if h <= 0 {
		return nil, fmt.Errorf("forecast: horizon %d", h)
	}
	out := make([]float64, h)
	for i := 1; i <= h; i++ {
		f := m.level + float64(i)*m.trend
		if m.Period > 0 {
			f += m.season[(m.steps+i-1)%m.Period]
		}
		out[i-1] = f
	}
	return out, nil
}
