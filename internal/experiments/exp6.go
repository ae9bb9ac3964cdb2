package experiments

import (
	"fmt"
	"io"

	"icewafl/internal/clean"
	"icewafl/internal/core"
	"icewafl/internal/dataset"
	"icewafl/internal/stream"
)

// Experiment 6 (extension): the cleaning benchmark. Icewafl's output —
// the polluted stream plus the retained clean stream — is exactly what a
// cleaning-algorithm benchmark needs: repair quality becomes the RMSE of
// the repaired attribute against the original values. One error type is
// injected at a time and a panel of cleaners is scored.

// Exp6Cell is one (cleaner, error type) score.
type Exp6Cell struct {
	Cleaner            string
	Scenario           string
	RMSEBefore         float64
	RMSEAfter          float64
	ImprovementPercent float64
	Changed            int
}

// Exp6Result is the full matrix.
type Exp6Result struct {
	Scenarios []string
	Cleaners  []string
	Cells     map[string]map[string]Exp6Cell
	Tuples    int
}

// Exp6Scenarios lists the injected error types (value errors only:
// cleaners repair values, not delivery timing).
var Exp6Scenarios = []string{"outliers", "missing", "frozen"}

func exp6Cleaners() []clean.Cleaner {
	return []clean.Cleaner{
		clean.ForwardFill{},
		clean.Interpolate{},
		clean.HampelFilter{Window: 12, Threshold: 4},
		clean.Pipeline{clean.Interpolate{}, clean.HampelFilter{Window: 12, Threshold: 4}},
	}
}

// RunExp6 builds the cleaner × error-type matrix over the air-quality
// NO2 attribute.
func RunExp6(dataSeed int64, tuples int) (*Exp6Result, error) {
	data := dataset.AirQuality(dataset.RegionWanliu, dataSeed,
		dataset.AirQualityOptions{Tuples: tuples, MissingRate: -1})
	res := &Exp6Result{
		Scenarios: Exp6Scenarios,
		Cells:     make(map[string]map[string]Exp6Cell),
		Tuples:    tuples,
	}
	for _, c := range exp6Cleaners() {
		res.Cleaners = append(res.Cleaners, c.Name())
	}
	for _, scenario := range Exp6Scenarios {
		pipe, err := exp5Scenario(scenario, dataSeed)
		if err != nil {
			return nil, err
		}
		proc := core.NewProcess(pipe)
		out, err := proc.Run(stream.NewSliceSource(data[0].Schema(), data))
		if err != nil {
			return nil, fmt.Errorf("exp6 %s: %w", scenario, err)
		}
		for _, c := range exp6Cleaners() {
			score, err := clean.Evaluate(c, out.Clean, out.Polluted, "NO2")
			if err != nil {
				return nil, fmt.Errorf("exp6 %s/%s: %w", scenario, c.Name(), err)
			}
			if res.Cells[c.Name()] == nil {
				res.Cells[c.Name()] = make(map[string]Exp6Cell)
			}
			res.Cells[c.Name()][scenario] = Exp6Cell{
				Cleaner:            c.Name(),
				Scenario:           scenario,
				RMSEBefore:         score.RMSEBefore,
				RMSEAfter:          score.RMSEAfter,
				ImprovementPercent: score.ImprovementPercent,
				Changed:            score.Changed,
			}
		}
	}
	return res, nil
}

// PrintExp6 renders the RMSE-improvement matrix.
func PrintExp6(w io.Writer, r *Exp6Result) {
	fmt.Fprintf(w, "Experiment 6 — repair quality per cleaner and error type (%d tuples)\n", r.Tuples)
	fmt.Fprintf(w, "cells: RMSE before -> after (improvement)\n")
	fmt.Fprintf(w, "%-40s", "cleaner \\ error")
	for _, s := range r.Scenarios {
		fmt.Fprintf(w, " %22s", s)
	}
	fmt.Fprintln(w)
	for _, c := range r.Cleaners {
		fmt.Fprintf(w, "%-40s", c)
		for _, s := range r.Scenarios {
			cell := r.Cells[c][s]
			fmt.Fprintf(w, " %6.1f->%5.1f (%+4.0f%%)", cell.RMSEBefore, cell.RMSEAfter, cell.ImprovementPercent)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Expected shape: imputers repair missing values, the Hampel filter")
	fmt.Fprintln(w, "repairs outliers, neither helps against frozen runs, and the chained")
	fmt.Fprintln(w, "pipeline combines the imputer's and the filter's strengths.")
}
