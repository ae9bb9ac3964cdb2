package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"icewafl/internal/dq"
	"icewafl/internal/stream"
)

// Small repetition counts keep the integration tests fast while still
// exercising the full experiment paths end to end.

func TestRandomTemporalScenario(t *testing.T) {
	r, err := RunExp1Random(DefaultDataSeed, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 4 invariants: expected == measured per hour (the nulls
	// are exactly detectable), sinusoidal shape with midnight max and a
	// noon zero, and an overall proportion near 25%.
	for h := 0; h < 24; h++ {
		if r.ExpectedPerHour[h] != r.MeasuredPerHour[h] {
			t.Fatalf("hour %d: expected %.1f != measured %.1f",
				h, r.ExpectedPerHour[h], r.MeasuredPerHour[h])
		}
	}
	if r.MeasuredPerHour[12] != 0 {
		t.Fatalf("noon errors %.2f should be 0 (probability 0)", r.MeasuredPerHour[12])
	}
	if r.MeasuredPerHour[0] < r.MeasuredPerHour[6] || r.MeasuredPerHour[23] < r.MeasuredPerHour[18] {
		t.Fatalf("no midnight peak: %v", r.MeasuredPerHour)
	}
	if r.AvgProportion < 18 || r.AvgProportion > 32 {
		t.Fatalf("error proportion %.2f%% far from the configured 25%%", r.AvgProportion)
	}
}

func TestSoftwareUpdateScenario(t *testing.T) {
	r, err := RunExp1Update(DefaultDataSeed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.WindowConstantsInvalid() {
		t.Fatalf("stream constants: %+v", r)
	}
	rows := map[string]Table1Row{}
	for _, row := range r.Rows {
		rows[row.Label] = row
	}
	bpm0 := rows["BPM=0 (Prob. 0.8)"]
	bpmNull := rows["BPM=null (Prob. 0.2)"]
	dist := rows["Distance"]
	cal := rows["CaloriesBurned"]

	// BPM splits ≈ 0.8/0.2 of the high-BPM tuples.
	total := bpm0.Expected + bpmNull.Expected
	if math.Abs(total-float64(r.HighBPMTuples)) > 1e-9 {
		t.Fatalf("BPM split %.1f + %.1f != %d", bpm0.Expected, bpmNull.Expected, r.HighBPMTuples)
	}
	if frac := bpm0.Expected / total; frac < 0.6 || frac > 0.95 {
		t.Fatalf("BPM=0 fraction %.2f far from 0.8", frac)
	}
	// The measured BPM=0 count carries the two pre-existing violations.
	if bpm0.PreExisting != 2 {
		t.Fatalf("pre-existing violations %d, want 2", bpm0.PreExisting)
	}
	if math.Abs(bpm0.Measured-(bpm0.Expected+2)) > 0.5 {
		t.Fatalf("BPM=0 measured %.1f, expected %.1f (+2)", bpm0.Measured, bpm0.Expected)
	}
	// Null detection is exact.
	if bpmNull.Measured != bpmNull.Expected {
		t.Fatalf("BPM=null measured %.1f != expected %.1f", bpmNull.Measured, bpmNull.Expected)
	}
	// Distance detection is exact (every changed value violates
	// Steps ≥ Distance after the km→cm conversion).
	if dist.Measured != dist.Expected {
		t.Fatalf("Distance measured %.1f != expected %.1f", dist.Measured, dist.Expected)
	}
	if dist.Expected < float64(r.PostUpdateTuples)/5 {
		t.Fatalf("too few Distance errors: %.1f of %d", dist.Expected, r.PostUpdateTuples)
	}
	// CaloriesBurned: nearly all rounded values are detectable; a few
	// round to values that still satisfy the regex.
	if cal.Measured > cal.Expected || cal.Measured < cal.Expected*0.95 {
		t.Fatalf("CaloriesBurned measured %.1f vs expected %.1f", cal.Measured, cal.Expected)
	}
}

// WindowConstantsInvalid sanity-checks the dataset-derived constants.
func (r *Exp1UpdateResult) WindowConstantsInvalid() bool {
	return r.PostUpdateTuples < 900 || r.PostUpdateTuples > 1060 ||
		r.HighBPMTuples < 15 || r.HighBPMTuples > 70
}

func TestBadNetworkScenario(t *testing.T) {
	r, err := RunExp1Network(DefaultDataSeed, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.WindowTuples != 88 {
		t.Fatalf("window tuples %d, want 88 (11 days × 8 quarter-hours)", r.WindowTuples)
	}
	// Expected ≈ 0.2 × 88 = 17.6 within sampling tolerance.
	if r.ExpectedDelayed < 10 || r.ExpectedDelayed > 26 {
		t.Fatalf("expected delayed %.2f far from 17.6", r.ExpectedDelayed)
	}
	// The increasing-timestamp expectation recovers nearly every delay.
	if math.Abs(r.MeasuredDelayed-r.ExpectedDelayed) > 2 {
		t.Fatalf("measured %.2f vs expected %.2f", r.MeasuredDelayed, r.ExpectedDelayed)
	}
}

func TestExp2NoiseDegradesAndARIMAXIsRobust(t *testing.T) {
	if testing.Short() {
		t.Skip("forecasting experiment is slow")
	}
	cfg := DefaultExp2Config()
	cfg.Reps = 2
	clean, err := RunExp2(cfg, "Wanshouxigong", ScenarioEval)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := RunExp2(cfg, "Wanshouxigong", ScenarioNoise)
	if err != nil {
		t.Fatal(err)
	}
	if clean.FailedFits != 0 || noisy.FailedFits != 0 {
		t.Fatalf("failed fits: clean %d, noisy %d", clean.FailedFits, noisy.FailedFits)
	}
	if len(clean.Points) < 10 {
		t.Fatalf("only %d cycles", len(clean.Points))
	}

	sumClean := map[string]float64{}
	sumNoisy := map[string]float64{}
	for i := range clean.Points {
		for _, m := range ModelNames {
			sumClean[m] += clean.Points[i].MAE[m]
			sumNoisy[m] += noisy.Points[i].MAE[m]
		}
	}
	// Noise pollution must hurt every model overall.
	for _, m := range ModelNames {
		if sumNoisy[m] <= sumClean[m] {
			t.Fatalf("model %s not degraded by noise: %.1f vs %.1f", m, sumNoisy[m], sumClean[m])
		}
	}
	// Figure 6's headline: ARIMAX degrades least (relative degradation).
	summary := map[string]Exp2TrendSummary{}
	for _, s := range noisy.Summarise() {
		summary[s.Model] = s
	}
	ax := summary["arima"].DegradationPercent
	hw := summary["holt_winters"].DegradationPercent
	amx := summary["arimax"].DegradationPercent
	if amx >= ax || amx >= hw {
		t.Fatalf("ARIMAX degradation %.0f%% not smallest (arima %.0f%%, hw %.0f%%)", amx, ax, hw)
	}
}

func TestExp2ScaleMilderThanNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("forecasting experiment is slow")
	}
	cfg := DefaultExp2Config()
	cfg.Reps = 2
	noise, err := RunExp2(cfg, "Gucheng", ScenarioNoise)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := RunExp2(cfg, "Gucheng", ScenarioScale)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7 vs Figure 6: the MAE growth trend is much weaker for
	// scale errors than for noise (averaged across models).
	trend := func(r *Exp2Result) float64 {
		var sum float64
		for _, s := range r.Summarise() {
			sum += s.LateMAE - s.EarlyMAE
		}
		return sum
	}
	if trend(scale) >= trend(noise) {
		t.Fatalf("scale trend %.1f not milder than noise trend %.1f", trend(scale), trend(noise))
	}
}

func TestExp2UnknownScenario(t *testing.T) {
	cfg := DefaultExp2Config()
	cfg.Reps = 1
	if _, err := RunExp2(cfg, "Gucheng", "bogus"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestExp3OverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment is slow")
	}
	cfg := Exp3Config{DataSeed: DefaultDataSeed, Runs: 5, Replicas: 10}
	r, err := RunExp3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != 4 {
		t.Fatalf("%d scenarios", len(r.Scenarios))
	}
	var baseline *Exp3Scenario
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		if len(sc.RuntimesMS) != 5 || sc.Box.Median <= 0 {
			t.Fatalf("scenario %s: %+v", sc.Name, sc.Box)
		}
		if sc.Name == "no pollution" {
			baseline = sc
		}
	}
	if baseline == nil {
		t.Fatal("no baseline scenario")
	}
	if baseline.OverheadPercent != 0 {
		t.Fatalf("baseline overhead %.1f%%", baseline.OverheadPercent)
	}
	// Every pollution scenario costs something, but stays within the
	// same order of magnitude as the baseline.
	for _, sc := range r.Scenarios {
		if sc.Name == "no pollution" {
			continue
		}
		if sc.OverheadPercent < 0 {
			t.Logf("scenario %s faster than baseline (%.1f%%): timing noise", sc.Name, sc.OverheadPercent)
		}
		if sc.OverheadPercent > 150 {
			t.Fatalf("scenario %s overhead %.1f%% above 150%%", sc.Name, sc.OverheadPercent)
		}
	}
	var buf bytes.Buffer
	PrintExp3(&buf, r)
	if out := buf.String(); !strings.Contains(out, "Figure 8") || !strings.Contains(out, "runtime (ms)") {
		t.Fatalf("exp3 printer incomplete:\n%s", out)
	}
}

func TestReplicateWearableCadence(t *testing.T) {
	tuples := replicateWearable(DefaultDataSeed, 3)
	if len(tuples) != 3*1060 {
		t.Fatalf("%d tuples", len(tuples))
	}
	prev, _ := tuples[0].Timestamp()
	for i, tp := range tuples[1:] {
		ts, _ := tp.Timestamp()
		if !ts.Equal(prev.Add(15 * time.Minute)) {
			t.Fatalf("cadence broken at replica boundary %d", i+1)
		}
		prev = ts
	}
}

func TestScenarioSuitesMatchPaperExpectations(t *testing.T) {
	if got := len(SoftwareUpdateSuite().Expectations); got != 4 {
		t.Fatalf("software update suite has %d expectations, want 4", got)
	}
	if got := len(RandomTemporalSuite().Expectations); got != 1 {
		t.Fatalf("random temporal suite has %d expectations, want 1", got)
	}
	if got := len(BadNetworkSuite().Expectations); got != 1 {
		t.Fatalf("bad network suite has %d expectations, want 1", got)
	}
}

func TestCaloriesRegexSemantics(t *testing.T) {
	re, err := dq.NewMatchRegex("c", CaloriesRegex)
	if err != nil {
		t.Fatal(err)
	}
	valid := []string{"0", "120", "18.123", "4.201"}
	invalid := []string{"18.1", "18.12", "18.120", "4.5000001", "-3.123"}
	for _, s := range valid {
		if !re.Pattern.MatchString(s) {
			t.Errorf("valid value %q rejected", s)
		}
	}
	for _, s := range invalid {
		if re.Pattern.MatchString(s) {
			t.Errorf("invalid value %q accepted", s)
		}
	}
}

func TestWearableSourceIsFresh(t *testing.T) {
	a, err := stream.Drain(WearableSource(DefaultDataSeed))
	if err != nil {
		t.Fatal(err)
	}
	b, err := stream.Drain(WearableSource(DefaultDataSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("sources diverged at %d", i)
		}
	}
}

func TestExp4SynthesisStudy(t *testing.T) {
	r, err := RunExp4(DefaultDataSeed, 2120)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	byName := map[string]Exp4Row{}
	for _, row := range r.Rows {
		byName[row.Stream] = row
	}
	orig := byName["polluted original"]
	boot := byName["block_bootstrap"]
	seasonal := byName["seasonal_bootstrap"]
	ar := byName["ar_model"]

	if orig.ErrorRate < 0.15 || orig.ErrorRate > 0.35 {
		t.Fatalf("original error rate %.3f", orig.ErrorRate)
	}
	// Both bootstraps preserve the error *rate*.
	for _, row := range []Exp4Row{boot, seasonal} {
		if math.Abs(row.ErrorRate-orig.ErrorRate) > 0.06 {
			t.Fatalf("%s error rate %.3f vs original %.3f", row.Stream, row.ErrorRate, orig.ErrorRate)
		}
	}
	// Only the seasonal bootstrap preserves the daily *shape*.
	if seasonal.ShapeCorrelation < 0.7 {
		t.Fatalf("seasonal bootstrap shape correlation %.2f", seasonal.ShapeCorrelation)
	}
	if boot.ShapeCorrelation > 0.5 {
		t.Fatalf("plain bootstrap unexpectedly preserved shape: %.2f", boot.ShapeCorrelation)
	}
	// The AR model removes the errors entirely.
	if ar.Errors != 0 || !math.IsNaN(ar.ShapeCorrelation) {
		t.Fatalf("AR model not clean: %+v", ar)
	}
}

func TestExp2WithSARIMA(t *testing.T) {
	if testing.Short() {
		t.Skip("forecasting experiment is slow")
	}
	cfg := DefaultExp2Config()
	cfg.Reps = 1
	cfg.IncludeSARIMA = true
	r, err := RunExp2(cfg, "Wanliu", ScenarioEval)
	if err != nil {
		t.Fatal(err)
	}
	if r.FailedFits != 0 {
		t.Fatalf("failed fits %d", r.FailedFits)
	}
	models := modelsOf(r)
	if len(models) != 4 || models[3] != "sarima" {
		t.Fatalf("models %v", models)
	}
	// SARIMA must be competitive with Holt-Winters on clean seasonal
	// data (both model the daily cycle).
	var sarima, arima float64
	for _, p := range r.Points {
		sarima += p.MAE["sarima"]
		arima += p.MAE["arima"]
	}
	if sarima >= arima {
		t.Fatalf("SARIMA (%.1f) not better than plain ARIMA (%.1f) on clean seasonal data", sarima, arima)
	}
}

func TestExp5DetectorSpecialisation(t *testing.T) {
	r, err := RunExp5(DefaultDataSeed, 4000)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(det, sc string) Exp5Cell { return r.Cells[det][sc] }
	// Each specialist dominates its own error type.
	if c := cell("rolling_zscore", "missing"); c.Recall < 0.95 {
		t.Fatalf("zscore should catch all nulls: %+v", c)
	}
	if c := cell("rate_of_change", "outliers"); c.Recall < 0.7 {
		t.Fatalf("rate-of-change should catch outliers: %+v", c)
	}
	if c := cell("frozen_run", "frozen"); c.Recall < 0.4 {
		t.Fatalf("frozen-run should catch freezes: %+v", c)
	}
	if c := cell("gap_detector", "delay"); c.Recall < 0.9 {
		t.Fatalf("gap detector should catch delays: %+v", c)
	}
	// Specialists stay silent on foreign error types.
	if c := cell("gap_detector", "missing"); c.Flagged != 0 {
		t.Fatalf("gap detector flagged value errors: %+v", c)
	}
	if c := cell("frozen_run", "outliers"); c.Recall > 0.1 {
		t.Fatalf("frozen-run caught outliers: %+v", c)
	}
	// The ensemble is at least as good as every member on every type.
	for _, sc := range r.Scenarios {
		best := 0.0
		for _, d := range r.Detectors {
			if d == "ensemble(all four)" || d == "seasonal_zscore" {
				continue
			}
			if rec := cell(d, sc).Recall; rec > best {
				best = rec
			}
		}
		if ens := cell("ensemble(all four)", sc).Recall; ens < best-1e-9 {
			t.Fatalf("ensemble recall %.2f below best member %.2f on %s", ens, best, sc)
		}
	}
}

func TestExp6CleanerSpecialisation(t *testing.T) {
	r, err := RunExp6(DefaultDataSeed, 4000)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(c, sc string) Exp6Cell { return r.Cells[c][sc] }
	// Imputers repair missing values almost completely.
	if c := cell("forward_fill", "missing"); c.ImprovementPercent < 70 {
		t.Fatalf("forward fill on missing: %+v", c)
	}
	if c := cell("interpolate", "missing"); c.ImprovementPercent < 80 {
		t.Fatalf("interpolate on missing: %+v", c)
	}
	// The Hampel filter repairs outliers; imputers cannot.
	if c := cell("hampel_filter", "outliers"); c.ImprovementPercent < 50 {
		t.Fatalf("hampel on outliers: %+v", c)
	}
	if c := cell("forward_fill", "outliers"); c.ImprovementPercent > 5 {
		t.Fatalf("forward fill should not repair outliers: %+v", c)
	}
	// The chained pipeline is strong on both value-error types.
	pipeName := "pipeline(interpolate,hampel_filter)"
	if c := cell(pipeName, "outliers"); c.ImprovementPercent < 50 {
		t.Fatalf("pipeline on outliers: %+v", c)
	}
	if c := cell(pipeName, "missing"); c.ImprovementPercent < 70 {
		t.Fatalf("pipeline on missing: %+v", c)
	}
}

// TestExp2GridSearchSmall checks that the grid search picks a winner in
// every family and that, on Wanshouxigong, the winners are the
// hyperparameters DefaultExp2Config runs with (the other regions pick
// others; see the exp2_grid golden).
func TestExp2GridSearchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("grid search is slow")
	}
	cfg := DefaultExp2Config()
	winners, err := RunExp2GridSearch(cfg, "Wanshouxigong")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"arima":        fmt.Sprintf("arima(%d,%d,%d)", cfg.ARIMAOrder[0], cfg.ARIMAOrder[1], cfg.ARIMAOrder[2]),
		"arimax":       fmt.Sprintf("arimax(%d,%d,%d)", cfg.ARIMAXOrder[0], cfg.ARIMAXOrder[1], cfg.ARIMAXOrder[2]),
		"holt_winters": fmt.Sprintf("holt_winters(a=%.2f,b=%.2f,g=%.2f)", cfg.HWAlpha, cfg.HWBeta, cfg.HWGamma),
	}
	for _, family := range ModelNames {
		w, ok := winners[family]
		if !ok {
			t.Fatalf("no winner for %s", family)
		}
		if w.MAE <= 0 || w.Label != want[family] {
			t.Fatalf("winner for %s: %+v, want %s (DefaultExp2Config)", family, w, want[family])
		}
	}
}

func TestExp3DiskMode(t *testing.T) {
	if testing.Short() {
		t.Skip("disk-mode runtime experiment is slow")
	}
	cfg := Exp3Config{DataSeed: DefaultDataSeed, Runs: 3, Replicas: 5, DiskDir: t.TempDir()}
	r, err := RunExp3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != 4 {
		t.Fatalf("%d scenarios", len(r.Scenarios))
	}
	for _, sc := range r.Scenarios {
		if sc.Box.Median <= 0 {
			t.Fatalf("scenario %s has no runtime", sc.Name)
		}
	}
}

func TestExp2WithBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("forecasting experiment is slow")
	}
	cfg := DefaultExp2Config()
	cfg.Reps = 1
	cfg.IncludeBaselines = true
	r, err := RunExp2(cfg, "Gucheng", ScenarioEval)
	if err != nil {
		t.Fatal(err)
	}
	var naive, seasonal, arimax float64
	for _, p := range r.Points {
		naive += p.MAE["naive"]
		seasonal += p.MAE["seasonal_naive"]
		arimax += p.MAE["arimax"]
	}
	if naive == 0 || seasonal == 0 {
		t.Fatal("baselines missing from result")
	}
	// The learning methods must beat the last-value baseline on a
	// seasonal stream, and the seasonal-naive must beat the plain naive.
	if arimax >= naive {
		t.Fatalf("ARIMAX (%.1f) did not beat naive (%.1f)", arimax, naive)
	}
	if seasonal >= naive {
		t.Fatalf("seasonal naive (%.1f) did not beat naive (%.1f)", seasonal, naive)
	}
}
