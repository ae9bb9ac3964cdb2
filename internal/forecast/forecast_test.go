package forecast

import (
	"math"
	"testing"

	"icewafl/internal/rng"
	"icewafl/internal/stats"
)

// synthAR1 generates a stationary AR(1) series with the given coefficient.
func synthAR1(n int, phi float64, seed int64) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	x := 0.0
	for i := range out {
		x = phi*x + r.Normal(0, 1)
		out[i] = 50 + x
	}
	return out
}

// synthSeasonal generates level + trend + daily season + noise.
func synthSeasonal(n int, seed int64) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 + 0.01*float64(i) + 10*math.Sin(2*math.Pi*float64(i%24)/24) + r.Normal(0, 0.5)
	}
	return out
}

func TestDifferenceIntegrateRoundTrip(t *testing.T) {
	y := []float64{3, 5, 4, 8, 13, 11}
	for d := 0; d <= 2; d++ {
		diffed, seeds, err := difference(y, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffed) != len(y)-d {
			t.Fatalf("d=%d: length %d", d, len(diffed))
		}
		// Append "forecasts" that continue the differenced series, then
		// integrating arbitrary values must be consistent with manual
		// computation for d=1.
		if d == 1 {
			fc := integrate([]float64{2, 3}, seeds)
			if fc[0] != 13 || fc[1] != 16 {
				t.Fatalf("integrate: %v", fc)
			}
		}
		if d == 0 && len(seeds) != 0 {
			t.Fatal("d=0 should have no seeds")
		}
	}
	if _, _, err := difference([]float64{1}, 2); err == nil {
		t.Fatal("over-differencing accepted")
	}
	if _, _, err := difference(nil, -1); err == nil {
		t.Fatal("negative d accepted")
	}
}

func TestARIMARecoversARCoefficient(t *testing.T) {
	y := synthAR1(2000, 0.7, 1)
	m := NewARIMA(1, 0, 0)
	if err := m.Fit(y, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.phi[0]-0.7) > 0.08 {
		t.Fatalf("phi = %g, want ≈ 0.7", m.phi[0])
	}
	if math.Abs(m.mu-50) > 1 {
		t.Fatalf("mu = %g, want ≈ 50", m.mu)
	}
}

func TestARIMAForecastMeanReverts(t *testing.T) {
	y := synthAR1(1000, 0.5, 2)
	m := NewARIMA(1, 0, 0)
	if err := m.Fit(y, nil); err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 50 {
		t.Fatalf("forecast length %d", len(fc))
	}
	// Long-horizon AR(1) forecasts converge to the mean.
	if math.Abs(fc[49]-m.mu) > 0.5 {
		t.Fatalf("terminal forecast %g, mean %g", fc[49], m.mu)
	}
}

func TestARIMAWithDifferencingTracksTrend(t *testing.T) {
	// Linear trend + small noise: ARIMA(1,1,0) should forecast upward.
	r := rng.New(3)
	y := make([]float64, 600)
	for i := range y {
		y[i] = float64(i)*0.5 + r.Normal(0, 0.2)
	}
	m := NewARIMA(1, 1, 0)
	if err := m.Fit(y, nil); err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := y[len(y)-1]
	if fc[9] <= last {
		t.Fatalf("trend not continued: forecast %g after %g", fc[9], last)
	}
	want := last + 10*0.5
	if math.Abs(fc[9]-want) > 2 {
		t.Fatalf("forecast %g, want ≈ %g", fc[9], want)
	}
}

func TestARIMAMAComponent(t *testing.T) {
	// MA(1) process: y_t = e_t + 0.6·e_{t-1}.
	r := rng.New(4)
	n := 3000
	y := make([]float64, n)
	prevE := 0.0
	for i := range y {
		e := r.Normal(0, 1)
		y[i] = 10 + e + 0.6*prevE
		prevE = e
	}
	m := NewARIMA(0, 0, 1)
	if err := m.Fit(y, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.theta[0]-0.6) > 0.12 {
		t.Fatalf("theta = %g, want ≈ 0.6", m.theta[0])
	}
}

func TestARIMAErrors(t *testing.T) {
	m := NewARIMA(1, 0, 0)
	if _, err := m.Forecast(5, nil); err == nil {
		t.Error("unfitted forecast accepted")
	}
	if err := m.Fit([]float64{1, 2}, nil); err == nil {
		t.Error("tiny series accepted")
	}
	if err := NewARIMA(-1, 0, 0).Fit(synthAR1(100, 0.5, 5), nil); err == nil {
		t.Error("negative order accepted")
	}
	good := NewARIMA(1, 0, 0)
	if err := good.Fit(synthAR1(100, 0.5, 6), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := good.Forecast(0, nil); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestARIMADeterministic(t *testing.T) {
	y := synthAR1(500, 0.6, 7)
	a, b := NewARIMA(2, 0, 1), NewARIMA(2, 0, 1)
	if err := a.Fit(y, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(y, nil); err != nil {
		t.Fatal(err)
	}
	fa, _ := a.Forecast(12, nil)
	fb, _ := b.Forecast(12, nil)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("fit not deterministic at step %d", i)
		}
	}
}

func TestARIMAXUsesExogenousSignal(t *testing.T) {
	// Target is driven almost entirely by an exogenous regressor.
	r := rng.New(8)
	n := 1000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range y {
		v := r.Uniform(-5, 5)
		x[i] = []float64{v}
		y[i] = 20 + 3*v + r.Normal(0, 0.3)
	}
	m := NewARIMAX(1, 0, 0)
	if err := m.Fit(y, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.beta[0]-20) > 0.5 || math.Abs(m.beta[1]-3) > 0.1 {
		t.Fatalf("regression beta %v", m.beta)
	}
	// Forecast with known future regressors must beat a pure ARIMA.
	xf := [][]float64{{4}, {-4}, {0}}
	fc, err := m.Forecast(3, xf)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{32, 8, 20}
	for i := range want {
		if math.Abs(fc[i]-want[i]) > 1.5 {
			t.Fatalf("forecast %v, want ≈ %v", fc, want)
		}
	}
}

func TestARIMAXErrors(t *testing.T) {
	m := NewARIMAX(1, 0, 0)
	if err := m.Fit([]float64{1, 2, 3}, nil); err == nil {
		t.Error("missing exog accepted")
	}
	if err := m.Fit(nil, nil); err == nil {
		t.Error("empty series accepted")
	}
	if err := m.Fit([]float64{1, 2}, [][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged exog accepted")
	}
	if _, err := m.Forecast(2, nil); err == nil {
		t.Error("unfitted forecast accepted")
	}
	y := synthAR1(300, 0.4, 9)
	x := make([][]float64, len(y))
	for i := range x {
		x[i] = []float64{float64(i % 7)}
	}
	if err := m.Fit(y, x); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(3, [][]float64{{1}}); err == nil {
		t.Error("horizon/exog mismatch accepted")
	}
}

func TestHoltWintersSeasonal(t *testing.T) {
	y := synthSeasonal(24*30, 10)
	m := NewHoltWinters(0.3, 0.05, 0.2, 24)
	if err := m.Fit(y, nil); err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(24, nil)
	if err != nil {
		t.Fatal(err)
	}
	actualNext := make([]float64, 24)
	for i := range actualNext {
		j := len(y) + i
		actualNext[i] = 100 + 0.01*float64(j) + 10*math.Sin(2*math.Pi*float64(j%24)/24)
	}
	mae := stats.MAE(fc, actualNext)
	if mae > 1.5 {
		t.Fatalf("seasonal forecast MAE %g", mae)
	}
}

func TestHoltWintersNonSeasonal(t *testing.T) {
	// Pure trend: Holt's linear method should extrapolate it.
	y := make([]float64, 100)
	for i := range y {
		y[i] = 5 + 2*float64(i)
	}
	m := NewHoltWinters(0.5, 0.5, 0, 0)
	if err := m.Fit(y, nil); err != nil {
		t.Fatal(err)
	}
	fc, _ := m.Forecast(5, nil)
	for i, f := range fc {
		want := 5 + 2*float64(99+i+1)
		if math.Abs(f-want) > 0.5 {
			t.Fatalf("trend forecast %v", fc)
		}
	}
}

func TestHoltWintersLearnOne(t *testing.T) {
	y := synthSeasonal(24*20, 11)
	m := NewHoltWinters(0.3, 0.05, 0.2, 24)
	if err := m.Fit(y[:24*10], nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range y[24*10:] {
		if err := m.LearnOne(v); err != nil {
			t.Fatal(err)
		}
	}
	// Online updates should match a fresh fit over the full window
	// closely enough to forecast well.
	fc, _ := m.Forecast(12, nil)
	if len(fc) != 12 {
		t.Fatal("forecast length")
	}
	unfitted := NewHoltWinters(0.3, 0.05, 0.2, 24)
	if err := unfitted.LearnOne(1); err == nil {
		t.Fatal("LearnOne before Fit accepted")
	}
}

func TestHoltWintersErrors(t *testing.T) {
	if err := NewHoltWinters(0, 0.1, 0.1, 24).Fit(synthSeasonal(100, 12), nil); err == nil {
		t.Error("alpha 0 accepted")
	}
	if err := NewHoltWinters(0.3, 1.5, 0.1, 24).Fit(synthSeasonal(100, 12), nil); err == nil {
		t.Error("beta > 1 accepted")
	}
	if err := NewHoltWinters(0.3, 0.1, 0.1, 24).Fit(make([]float64, 30), nil); err == nil {
		t.Error("less than two seasons accepted")
	}
	if err := NewHoltWinters(0.3, 0.1, 0, 0).Fit([]float64{1}, nil); err == nil {
		t.Error("single observation accepted")
	}
	m := NewHoltWinters(0.3, 0.1, 0.1, 24)
	if _, err := m.Forecast(5, nil); err == nil {
		t.Error("unfitted forecast accepted")
	}
	if err := m.Fit(synthSeasonal(240, 13), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(-1, nil); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestModelNames(t *testing.T) {
	if NewARIMA(1, 0, 0).Name() != "arima" ||
		NewARIMAX(1, 0, 0).Name() != "arimax" ||
		NewHoltWinters(0.1, 0.1, 0.1, 24).Name() != "holt_winters" {
		t.Fatal("model name mismatch")
	}
}

func TestGridSearchSelectsBetterModel(t *testing.T) {
	// Strong AR(1): an AR candidate must beat a mean-only candidate.
	y := synthAR1(600, 0.85, 14)
	cands := []Candidate{
		{Label: "mean-only", New: func() Model { return NewARIMA(0, 0, 0) }},
		{Label: "ar1", New: func() Model { return NewARIMA(1, 0, 0) }},
	}
	best, results, err := GridSearchCV(cands, y, nil, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if results[best].Label != "ar1" {
		t.Fatalf("grid search picked %q (scores %v)", results[best].Label, results)
	}
	if !(results[1].MAE < results[0].MAE) {
		t.Fatalf("AR(1) MAE %g not better than mean-only %g", results[1].MAE, results[0].MAE)
	}
}

func TestGridSearchHandlesFailingCandidates(t *testing.T) {
	y := synthAR1(200, 0.5, 15)
	cands := []Candidate{
		{Label: "broken", New: func() Model { return NewHoltWinters(0, 0, 0, 24) }},
		{Label: "ok", New: func() Model { return NewARIMA(1, 0, 0) }},
	}
	best, results, err := GridSearchCV(cands, y, nil, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if results[best].Label != "ok" {
		t.Fatalf("picked %q", results[best].Label)
	}
	if results[0].Err == nil || !math.IsNaN(results[0].MAE) {
		t.Fatalf("broken candidate not reported: %+v", results[0])
	}
}

func TestGridSearchAllFail(t *testing.T) {
	y := synthAR1(200, 0.5, 16)
	cands := []Candidate{
		{Label: "broken", New: func() Model { return NewHoltWinters(0, 0, 0, 24) }},
	}
	if _, _, err := GridSearchCV(cands, y, nil, 4, 5); err == nil {
		t.Fatal("all-failing grid accepted")
	}
	if _, _, err := GridSearchCV(nil, y, nil, 4, 5); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}

func TestTailHelper(t *testing.T) {
	if got := tail([]float64{1, 2, 3, 4}, 2); len(got) != 2 || got[0] != 3 {
		t.Fatalf("tail %v", got)
	}
	if got := tail([]float64{1}, 3); len(got) != 3 || got[2] != 1 || got[0] != 0 {
		t.Fatalf("short tail %v", got)
	}
	if tail(nil, 0) != nil {
		t.Fatal("tail of 0")
	}
}

func TestSARIMABeatsARIMAOnSeasonalData(t *testing.T) {
	y := synthSeasonal(24*40, 20)
	train, test := y[:24*35], y[24*35:24*35+24]

	plain := NewARIMA(2, 0, 1)
	if err := plain.Fit(train, nil); err != nil {
		t.Fatal(err)
	}
	plainFC, err := plain.Forecast(24, nil)
	if err != nil {
		t.Fatal(err)
	}

	seasonal := NewSARIMA(1, 0, 0, 1, 1, 0, 24)
	if err := seasonal.Fit(train, nil); err != nil {
		t.Fatal(err)
	}
	seasonalFC, err := seasonal.Forecast(24, nil)
	if err != nil {
		t.Fatal(err)
	}

	plainMAE := stats.MAE(plainFC, test)
	seasonalMAE := stats.MAE(seasonalFC, test)
	if seasonalMAE >= plainMAE {
		t.Fatalf("SARIMA MAE %.3f not better than ARIMA %.3f on seasonal data", seasonalMAE, plainMAE)
	}
	if seasonalMAE > 2 {
		t.Fatalf("SARIMA MAE %.3f too high for near-deterministic season", seasonalMAE)
	}
}

func TestSeasonalDifferenceRoundTrip(t *testing.T) {
	y := []float64{1, 2, 3, 4, 11, 12, 13, 14, 21, 22, 23, 24}
	diffed, seed, err := seasonalDifference(y, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffed) != 8 {
		t.Fatalf("diffed length %d", len(diffed))
	}
	for _, v := range diffed {
		if v != 10 {
			t.Fatalf("seasonal diff %v", diffed)
		}
	}
	// Forecast the next 4 seasonal diffs as 10 and integrate: should
	// continue 31, 32, 33, 34.
	fc := seasonalIntegrate([]float64{10, 10, 10, 10}, seed, 4)
	want := []float64{31, 32, 33, 34}
	for i := range want {
		if math.Abs(fc[i]-want[i]) > 1e-9 {
			t.Fatalf("integrated %v, want %v", fc, want)
		}
	}
}

func TestSARIMAErrors(t *testing.T) {
	if err := NewSARIMA(1, 0, 0, 1, 0, 0, 0).Fit(synthSeasonal(480, 21), nil); err == nil {
		t.Error("seasonal terms without period accepted")
	}
	if err := NewSARIMA(1, 0, 0, 0, 1, 0, 24).Fit(make([]float64, 10), nil); err == nil {
		t.Error("tiny series accepted")
	}
	m := NewSARIMA(1, 0, 0, 1, 0, 0, 24)
	if _, err := m.Forecast(5, nil); err == nil {
		t.Error("unfitted forecast accepted")
	}
	if err := m.Fit(synthSeasonal(24*20, 22), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(0, nil); err == nil {
		t.Error("zero horizon accepted")
	}
	if m.Name() != "sarima" {
		t.Error("name")
	}
}

func TestSARIMAWithoutSeasonalTermsMatchesARIMAShape(t *testing.T) {
	// SP=SD=SQ=0 degrades to a plain ARIMA over the same lag sets.
	y := synthAR1(800, 0.6, 23)
	s := NewSARIMA(1, 0, 0, 0, 0, 0, 24)
	if err := s.Fit(y, nil); err != nil {
		t.Fatal(err)
	}
	a := NewARIMA(1, 0, 0)
	if err := a.Fit(y, nil); err != nil {
		t.Fatal(err)
	}
	sf, _ := s.Forecast(5, nil)
	af, _ := a.Forecast(5, nil)
	for i := range sf {
		if math.Abs(sf[i]-af[i]) > 0.2 {
			t.Fatalf("degenerate SARIMA diverges from ARIMA: %v vs %v", sf, af)
		}
	}
}

func TestNaiveBaseline(t *testing.T) {
	m := NewNaive()
	if _, err := m.Forecast(3, nil); err == nil {
		t.Error("unfitted forecast accepted")
	}
	if err := m.Fit(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if err := m.Fit([]float64{1, 2, 7}, nil); err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(3, nil)
	if err != nil || fc[0] != 7 || fc[2] != 7 {
		t.Fatalf("naive forecast %v, %v", fc, err)
	}
	if _, err := m.Forecast(0, nil); err == nil {
		t.Error("zero horizon accepted")
	}
	if m.Name() != "naive" {
		t.Error("name")
	}
}

func TestSeasonalNaiveBaseline(t *testing.T) {
	m := NewSeasonalNaive(3)
	if err := m.Fit([]float64{1, 2}, nil); err == nil {
		t.Error("sub-period series accepted")
	}
	if err := NewSeasonalNaive(0).Fit([]float64{1}, nil); err == nil {
		t.Error("zero period accepted")
	}
	if err := m.Fit([]float64{9, 9, 9, 4, 5, 6}, nil); err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 5, 6, 4, 5}
	for i := range want {
		if fc[i] != want[i] {
			t.Fatalf("seasonal naive %v, want %v", fc, want)
		}
	}
}

func TestSeasonalNaiveBeatsNaiveOnSeasonalData(t *testing.T) {
	y := synthSeasonal(24*20, 30)
	train, test := y[:24*19], y[24*19:]
	naive := NewNaive()
	naive.Fit(train, nil)
	nf, _ := naive.Forecast(24, nil)
	seasonal := NewSeasonalNaive(24)
	seasonal.Fit(train, nil)
	sf, _ := seasonal.Forecast(24, nil)
	if stats.MAE(sf, test) >= stats.MAE(nf, test) {
		t.Fatalf("seasonal naive (%.2f) not better than naive (%.2f)",
			stats.MAE(sf, test), stats.MAE(nf, test))
	}
}
