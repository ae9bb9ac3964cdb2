package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/dataset"
	"icewafl/internal/forecast"
	"icewafl/internal/plot"
	"icewafl/internal/rng"
	"icewafl/internal/stats"
	"icewafl/internal/stream"
	"icewafl/internal/timeseries"
)

// Scenario names of the forecasting experiment (§3.2.1 / Table 2).
const (
	ScenarioEval  = "eval"  // D_eval: clean last year
	ScenarioNoise = "noise" // D_noise: temporally increasing multiplicative noise (Figure 6)
	ScenarioScale = "scale" // D_scale: temporally increasing scale errors (Figure 7)
)

// MeasurementAttrs are the numeric sensor attributes of the air-quality
// stream that the pollution scenarios target ("all numerical attributes"
// in Table 2; the running-index and calendar attributes are identifiers,
// not measurements).
var MeasurementAttrs = []string{
	"PM2.5", "PM10", "SO2", "NO2", "CO", "O3",
	"TEMP", "PRES", "DEWP", "RAIN", "WSPM",
}

// Exp2Config parameterises the forecasting experiment.
type Exp2Config struct {
	DataSeed int64
	// Reps is the number of independently polluted replicates averaged
	// per scenario (the paper uses 10). The clean scenario always runs
	// once: it is deterministic.
	Reps int
	// TrainHours is the length of one training period (504 h = 3 weeks).
	TrainHours int
	// Horizon is the forecast length per cycle (12 h).
	Horizon int
	// NoiseLoMax and NoiseHiMax are the Eq. 3 terminal bounds of the
	// multiplicative-noise distribution U(a, b).
	NoiseLoMax, NoiseHiMax float64
	// ScaleFactor, ScalePrior and ScaleHold parameterise the D_scale
	// polluter: factor 0.125, prior probability 0.01, 4-hour episodes.
	ScaleFactor float64
	ScalePrior  float64
	ScaleHold   time.Duration

	// Model hyperparameters (defaults from the grid search; see
	// RunExp2GridSearch).
	ARIMAOrder  [3]int
	ARIMAXOrder [3]int
	HWAlpha     float64
	HWBeta      float64
	HWGamma     float64
	HWPeriod    int

	// IncludeSARIMA adds a seasonal ARIMA(1,0,0)(1,1,0)_24 as a fourth
	// method — an extension beyond the paper's three, useful as an
	// ablation of the seasonal modelling choice.
	IncludeSARIMA bool
	// IncludeBaselines adds the naive and seasonal-naive reference
	// forecasters, the floor any learning method must beat.
	IncludeBaselines bool
}

// DefaultExp2Config returns the paper-faithful configuration with the
// hyperparameters selected by RunExp2GridSearch on D_train.
func DefaultExp2Config() Exp2Config {
	return Exp2Config{
		DataSeed:    DefaultDataSeed,
		Reps:        10,
		TrainHours:  504,
		Horizon:     12,
		NoiseLoMax:  0.1,
		NoiseHiMax:  0.5,
		ScaleFactor: 0.125,
		ScalePrior:  0.01,
		ScaleHold:   4 * time.Hour,
		ARIMAOrder:  [3]int{3, 0, 0},
		ARIMAXOrder: [3]int{2, 0, 1},
		HWAlpha:     0.55,
		HWBeta:      0.01,
		HWGamma:     0.25,
		HWPeriod:    24,
	}
}

// ModelNames lists the evaluated methods in paper order.
var ModelNames = []string{"arima", "holt_winters", "arimax"}

// CyclePoint is one x-position of Figures 6/7: the start of an evaluation
// timespan and the (replicate-averaged) MAE per model.
type CyclePoint struct {
	Start time.Time
	MAE   map[string]float64
}

// Exp2Result is one line set of Figure 6 or 7.
type Exp2Result struct {
	Region   string
	Scenario string
	Points   []CyclePoint
	// FailedFits counts model fits that returned an error (skipped
	// points); it should be zero in healthy runs.
	FailedFits int
}

// regionSeries loads one region's stream, imputes NO2 with forward fill
// (the §3.2.1 preprocessing), and returns the tuples.
func regionSeries(region string, dataSeed int64) ([]stream.Tuple, error) {
	tuples := dataset.AirQuality(region, dataSeed, dataset.AirQualityOptions{})
	s, err := timeseries.FromTuples(tuples, "NO2")
	if err != nil {
		return nil, err
	}
	s.FFill()
	if err := timeseries.ApplyToTuples(tuples, "NO2", s); err != nil {
		return nil, err
	}
	return tuples, nil
}

// regionSplits loads one region's stream as regionSeries does and cuts
// the Table 2 splits out of its NO2 series.
func regionSplits(cfg Exp2Config, region string) ([]stream.Tuple, *timeseries.Splits, error) {
	tuples, err := regionSeries(region, cfg.DataSeed)
	if err != nil {
		return nil, nil, err
	}
	s, err := timeseries.FromTuples(tuples, "NO2")
	if err != nil {
		return nil, nil, err
	}
	splits, err := timeseries.Split(s, time.Duration(cfg.Horizon)*time.Hour)
	return tuples, splits, err
}

// evalSlice cuts the Table 2 D_eval portion (last year) out of the
// stream.
func evalSlice(tuples []stream.Tuple) []stream.Tuple {
	last, _ := tuples[len(tuples)-1].Timestamp()
	evalStart := last.AddDate(-1, 0, 0)
	i := sort.Search(len(tuples), func(i int) bool {
		ts, _ := tuples[i].Timestamp()
		return !ts.Before(evalStart)
	})
	return tuples[i:]
}

// noisePipeline builds the D_noise polluter: multiplicative uniform noise
// over every measurement attribute whose bounds ramp from 0 at the start
// of the evaluation stream to (NoiseLoMax, NoiseHiMax) at its end (Eq. 3).
func noisePipeline(cfg Exp2Config, tau0, tauN time.Time, seed int64) *core.Pipeline {
	noise := &core.UniformMultNoise{
		Lo:   core.Linear(tau0, tauN, 0, cfg.NoiseLoMax),
		Hi:   core.Linear(tau0, tauN, 0, cfg.NoiseHiMax),
		Rand: rng.Derive(seed, "exp2/noise"),
	}
	return core.NewPipeline(core.NewStandard("increasing noise", noise, nil, MeasurementAttrs...))
}

// scalePipeline builds the D_scale polluter: scale by 0.125 during
// four-hour episodes whose activation combines a 0.01 prior with the
// linearly increasing temporal probability of Eq. 4.
func scalePipeline(cfg Exp2Config, tau0, tauN time.Time, seed int64) *core.Pipeline {
	trigger := core.And{
		core.NewRandomConst(cfg.ScalePrior, rng.Derive(seed, "exp2/scale-prior")),
		core.NewRandom(core.Linear(tau0, tauN, 0, 1), rng.Derive(seed, "exp2/scale-ramp")),
	}
	cond := core.NewSticky(trigger, cfg.ScaleHold)
	scale := &core.ScaleByFactor{Factor: core.Const(cfg.ScaleFactor)}
	return core.NewPipeline(core.NewStandard("increasing scale errors", scale, cond, MeasurementAttrs...))
}

// polluteEval produces one polluted replicate of the evaluation stream.
func polluteEval(cfg Exp2Config, scenario string, eval []stream.Tuple, seed int64) ([]stream.Tuple, error) {
	if scenario == ScenarioEval {
		return eval, nil
	}
	tau0, _ := eval[0].Timestamp()
	tauN, _ := eval[len(eval)-1].Timestamp()
	var pipe *core.Pipeline
	switch scenario {
	case ScenarioNoise:
		pipe = noisePipeline(cfg, tau0, tauN, seed)
	case ScenarioScale:
		pipe = scalePipeline(cfg, tau0, tauN, seed)
	default:
		return nil, fmt.Errorf("exp2: unknown scenario %q", scenario)
	}
	proc := core.NewProcess(pipe)
	proc.KeepClean = false
	res, err := proc.Run(stream.NewSliceSource(eval[0].Schema(), eval))
	if err != nil {
		return nil, err
	}
	return res.Polluted, nil
}

// features extracts the forecasting inputs from a stream: the NO2 target
// and the ARIMAX regressors (TEMP, PRES, WSPM plus sine/cosine encodings
// of month and hour, §3.2.2).
func features(tuples []stream.Tuple) (y []float64, x [][]float64) {
	y = make([]float64, len(tuples))
	x = make([][]float64, len(tuples))
	for i, t := range tuples {
		no2, _ := t.MustGet("NO2").AsFloat()
		y[i] = no2
		temp, _ := t.MustGet("TEMP").AsFloat()
		pres, _ := t.MustGet("PRES").AsFloat()
		wspm, _ := t.MustGet("WSPM").AsFloat()
		ts, _ := t.Timestamp()
		if ts.IsZero() {
			ts = t.EventTime
		}
		sinM, cosM := timeseries.MonthSinCos(ts)
		sinH, cosH := timeseries.HourSinCos(ts)
		x[i] = []float64{temp, pres, wspm, sinM, cosM, sinH, cosH}
	}
	return y, x
}

// newModels instantiates the configured methods.
func newModels(cfg Exp2Config) map[string]func() forecast.Model {
	models := map[string]func() forecast.Model{
		"arima": func() forecast.Model {
			return forecast.NewARIMA(cfg.ARIMAOrder[0], cfg.ARIMAOrder[1], cfg.ARIMAOrder[2])
		},
		"arimax": func() forecast.Model {
			return forecast.NewARIMAX(cfg.ARIMAXOrder[0], cfg.ARIMAXOrder[1], cfg.ARIMAXOrder[2])
		},
		"holt_winters": func() forecast.Model {
			return forecast.NewHoltWinters(cfg.HWAlpha, cfg.HWBeta, cfg.HWGamma, cfg.HWPeriod)
		},
	}
	if cfg.IncludeSARIMA {
		models["sarima"] = func() forecast.Model {
			return forecast.NewSARIMA(1, 0, 0, 1, 1, 0, 24)
		}
	}
	if cfg.IncludeBaselines {
		models["naive"] = func() forecast.Model { return forecast.NewNaive() }
		models["seasonal_naive"] = func() forecast.Model { return forecast.NewSeasonalNaive(24) }
	}
	return models
}

// modelsOf returns the model names present in a result, in ModelNames
// order first, extras after.
func modelsOf(r *Exp2Result) []string {
	present := map[string]bool{}
	for _, p := range r.Points {
		for name := range p.MAE {
			present[name] = true
		}
	}
	var out []string
	for _, m := range ModelNames {
		if present[m] {
			out = append(out, m)
			delete(present, m)
		}
	}
	var extra []string
	for m := range present {
		extra = append(extra, m)
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// RunExp2 reproduces one region × scenario combination of Figures 6/7:
// models are re-fitted on consecutive 504-hour training periods of the
// (polluted) evaluation stream and forecast the following 12 hours; MAEs
// are averaged over the polluted replicates.
func RunExp2(cfg Exp2Config, region, scenario string) (*Exp2Result, error) {
	tuples, err := regionSeries(region, cfg.DataSeed)
	if err != nil {
		return nil, err
	}
	eval := evalSlice(tuples)
	reps := cfg.Reps
	if scenario == ScenarioEval || reps < 1 {
		reps = 1
	}

	cycles := (len(eval) - cfg.Horizon) / cfg.TrainHours
	if cycles < 1 {
		return nil, fmt.Errorf("exp2: evaluation stream too short (%d tuples)", len(eval))
	}
	res := &Exp2Result{Region: region, Scenario: scenario}
	sums := make([]map[string]float64, cycles)
	counts := make([]map[string]int, cycles)
	for c := range sums {
		sums[c] = make(map[string]float64)
		counts[c] = make(map[string]int)
	}
	factories := newModels(cfg)

	for rep := 0; rep < reps; rep++ {
		polluted, err := polluteEval(cfg, scenario, eval, cfg.DataSeed+int64(rep)*15485863)
		if err != nil {
			return nil, err
		}
		y, x := features(polluted)
		for c := 0; c < cycles; c++ {
			trainStart := c * cfg.TrainHours
			trainEnd := trainStart + cfg.TrainHours
			fcEnd := trainEnd + cfg.Horizon
			if fcEnd > len(y) {
				break
			}
			for name, mk := range factories {
				model := mk()
				if err := model.Fit(y[trainStart:trainEnd], x[trainStart:trainEnd]); err != nil {
					res.FailedFits++
					continue
				}
				pred, err := model.Forecast(cfg.Horizon, x[trainEnd:fcEnd])
				if err != nil {
					res.FailedFits++
					continue
				}
				sums[c][name] += stats.MAE(pred, y[trainEnd:fcEnd])
				counts[c][name]++
			}
		}
	}

	for c := 0; c < cycles; c++ {
		ts, _ := eval[c*cfg.TrainHours+cfg.TrainHours].Timestamp()
		point := CyclePoint{Start: ts, MAE: make(map[string]float64)}
		for name := range factories {
			if counts[c][name] > 0 {
				point.MAE[name] = sums[c][name] / float64(counts[c][name])
			}
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// PrintExp2 renders one Figure 6/7 panel as a table: one row per
// evaluation timespan start, one column per model, then the chart and
// each model's early→late trend (Summarise).
func PrintExp2(w io.Writer, r *Exp2Result) {
	fmt.Fprintf(w, "Figure %s — region %s, scenario %s (MAE per evaluation timespan)\n",
		figureForScenario(r.Scenario), r.Region, r.Scenario)
	models := modelsOf(r)
	fmt.Fprintf(w, "%-12s", "start")
	for _, m := range models {
		fmt.Fprintf(w, " %14s", m)
	}
	fmt.Fprintln(w)
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-12s", p.Start.Format("01-02"))
		for _, m := range models {
			fmt.Fprintf(w, " %14.2f", p.MAE[m])
		}
		fmt.Fprintln(w)
	}
	if r.FailedFits > 0 {
		fmt.Fprintf(w, "WARNING: %d failed fits\n", r.FailedFits)
	}
	var series []plot.Series
	for _, m := range models {
		vals := make([]float64, len(r.Points))
		for i, p := range r.Points {
			vals[i] = p.MAE[m]
		}
		series = append(series, plot.Series{Name: m, Values: vals})
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, plot.Lines("MAE over evaluation timespans", series, 52, 12))
	for _, s := range r.Summarise() {
		fmt.Fprintf(w, "  %-14s early MAE %.2f -> late MAE %.2f (%+.0f%%)\n",
			s.Model, s.EarlyMAE, s.LateMAE, s.DegradationPercent)
	}
}

func figureForScenario(s string) string {
	switch s {
	case ScenarioNoise:
		return "6"
	case ScenarioScale:
		return "7"
	}
	return "6/7 (clean baseline)"
}

// Exp2TrendSummary condenses a result for robustness comparison: the mean
// MAE over the first and last third of the cycles per model, showing how
// strongly each method degrades as pollution grows.
type Exp2TrendSummary struct {
	Model              string
	EarlyMAE, LateMAE  float64
	DegradationPercent float64
}

// Summarise computes the trend summary of a result.
func (r *Exp2Result) Summarise() []Exp2TrendSummary {
	n := len(r.Points)
	if n == 0 {
		return nil
	}
	third := n / 3
	if third < 1 {
		third = 1
	}
	var out []Exp2TrendSummary
	for _, m := range modelsOf(r) {
		var early, late []float64
		for i, p := range r.Points {
			v, ok := p.MAE[m]
			if !ok {
				continue
			}
			if i < third {
				early = append(early, v)
			}
			if i >= n-third {
				late = append(late, v)
			}
		}
		s := Exp2TrendSummary{Model: m, EarlyMAE: stats.Mean(early), LateMAE: stats.Mean(late)}
		if s.EarlyMAE > 0 {
			s.DegradationPercent = (s.LateMAE - s.EarlyMAE) / s.EarlyMAE * 100
		}
		out = append(out, s)
	}
	return out
}

// RunExp2GridSearch reproduces the §3.2.2 hyperparameter determination:
// grid search with 5-fold time-series cross validation on the first
// year's training split, per model family. It returns the winning labels
// and all scores.
func RunExp2GridSearch(cfg Exp2Config, region string) (map[string]forecast.GridResult, error) {
	tuples, splits, err := regionSplits(cfg, region)
	if err != nil {
		return nil, err
	}
	nTrain := splits.Train.Len()
	y, x := features(tuples[:nTrain])

	orders, zeroOne := []int{1, 2, 3}, []int{0, 1}
	families := []struct {
		name  string
		cands []forecast.Candidate
		x     [][]float64
	}{
		{"arima", grid("arima(%d,%d,%d)", func(p, d, q int) forecast.Model { return forecast.NewARIMA(p, d, q) },
			orders, zeroOne, zeroOne), nil},
		{"arimax", grid("arimax(%d,%d,%d)", func(p, d, q int) forecast.Model { return forecast.NewARIMAX(p, d, q) },
			orders, zeroOne, zeroOne), x},
		{"holt_winters", grid("holt_winters(a=%.2f,b=%.2f,g=%.2f)", func(a, b, g float64) forecast.Model { return forecast.NewHoltWinters(a, b, g, 24) },
			[]float64{0.15, 0.35, 0.55}, []float64{0.01, 0.05, 0.15}, []float64{0.1, 0.25, 0.4}), nil},
	}
	winners := make(map[string]forecast.GridResult)
	for _, f := range families {
		best, results, err := forecast.GridSearchCV(f.cands, y, f.x, 5, cfg.Horizon)
		if err != nil {
			return nil, fmt.Errorf("exp2 grid %s: %w", f.name, err)
		}
		winners[f.name] = results[best]
	}
	return winners, nil
}

// grid lists one model family's candidates: every combination of the
// three hyperparameter lists, labelled by format.
func grid[T any](format string, mk func(a, b, c T) forecast.Model, as, bs, cs []T) []forecast.Candidate {
	var out []forecast.Candidate
	for _, a := range as {
		for _, b := range bs {
			for _, c := range cs {
				out = append(out, forecast.Candidate{
					Label: fmt.Sprintf(format, a, b, c),
					New:   func() forecast.Model { return mk(a, b, c) },
				})
			}
		}
	}
	return out
}
