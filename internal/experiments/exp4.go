package experiments

import (
	"fmt"
	"io"
	"math"

	"icewafl/internal/stats"
	"icewafl/internal/stream"
	"icewafl/internal/synth"
)

// Experiment 4 implements the paper's fourth future-work item (§5): use
// Icewafl-generated benchmark streams to test whether time-series
// synthesis approaches are agnostic to temporal error types. A polluted
// stream is synthesised with two approaches; the DQ suite then measures
// how much of the (temporal) error pattern survives synthesis:
//
//   - a moving-block bootstrap replays stretches of the polluted stream
//     and should preserve both the error rate and its temporal shape;
//   - a seasonal AR model generates fresh values and should wash the
//     errors out entirely.

// Exp4Row reports the error pattern of one stream.
type Exp4Row struct {
	Stream string
	// Tuples and Errors are the stream size and detected error count.
	Tuples, Errors int
	// ErrorRate is Errors / Tuples.
	ErrorRate float64
	// ShapeCorrelation is the Pearson correlation between this stream's
	// per-hour error histogram and the polluted original's (1 for the
	// original itself; NaN when a stream has no errors at all).
	ShapeCorrelation float64
}

// Exp4Result compares error-pattern preservation across synthesizers.
type Exp4Result struct {
	Rows []Exp4Row
}

// RunExp4 pollutes the wearable stream with the §3.1.1 sinusoidal
// missing-value pattern, synthesises it with both approaches, and
// validates all three streams with the same expectation.
func RunExp4(dataSeed int64, synthLen int) (*Exp4Result, error) {
	proc := RandomTemporalProcess(dataSeed)
	polluted, err := proc.Run(WearableSource(dataSeed))
	if err != nil {
		return nil, err
	}

	synthesizers := []synth.Synthesizer{
		synth.BlockBootstrap{BlockLen: 16},
		synth.SeasonalBlockBootstrap{BlockLen: 16},
		synth.ARSynthesizer{Order: 2},
	}
	attrs := []string{"BPM", "Steps", "Distance", "CaloriesBurned", "ActiveMinutes"}

	res := &Exp4Result{}
	origHist, origErrors := errorHistogram(polluted.Polluted)
	res.Rows = append(res.Rows, Exp4Row{
		Stream:           "polluted original",
		Tuples:           len(polluted.Polluted),
		Errors:           origErrors,
		ErrorRate:        float64(origErrors) / float64(len(polluted.Polluted)),
		ShapeCorrelation: 1,
	})

	for _, s := range synthesizers {
		generated, err := s.Synthesize(polluted.Polluted, attrs, synthLen, dataSeed+99)
		if err != nil {
			return nil, fmt.Errorf("exp4 %s: %w", s.Name(), err)
		}
		hist, errors := errorHistogram(generated)
		res.Rows = append(res.Rows, Exp4Row{
			Stream:           s.Name(),
			Tuples:           len(generated),
			Errors:           errors,
			ErrorRate:        float64(errors) / float64(len(generated)),
			ShapeCorrelation: histCorrelation(origHist, hist),
		})
	}
	return res, nil
}

// errorHistogram applies the §3.1.1 detection (null Distance values,
// the expect_column_values_to_not_be_null violations) row-wise and
// buckets the findings by hour of day.
func errorHistogram(tuples []stream.Tuple) ([24]float64, int) {
	var hist [24]float64
	errors := 0
	for _, t := range tuples {
		v, ok := t.Get("Distance")
		if !ok || !v.IsNull() {
			continue
		}
		ts, tok := t.Timestamp()
		if !tok {
			continue
		}
		hist[ts.Hour()]++
		errors++
	}
	return hist, errors
}

// histCorrelation computes the Pearson correlation of two hourly
// histograms; it returns NaN when either histogram is flat (e.g. no
// errors at all).
func histCorrelation(a, b [24]float64) float64 {
	as := a[:]
	bs := b[:]
	ma, mb := stats.Mean(as), stats.Mean(bs)
	var num, da, db float64
	for i := 0; i < 24; i++ {
		num += float64((as[i] - ma) * (bs[i] - mb))
		da += float64((as[i] - ma) * (as[i] - ma))
		db += float64((bs[i] - mb) * (bs[i] - mb))
	}
	if da == 0 || db == 0 {
		return math.NaN() // undefined for flat histograms
	}
	return num / math.Sqrt(da*db)
}

// PrintExp4 renders the comparison.
func PrintExp4(w io.Writer, r *Exp4Result) {
	fmt.Fprintln(w, "Experiment 4 — error-pattern preservation under time-series synthesis")
	fmt.Fprintf(w, "%-20s %8s %8s %10s %12s\n", "stream", "tuples", "errors", "rate", "shape-corr")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-20s %8d %8d %9.1f%% %12.2f\n",
			row.Stream, row.Tuples, row.Errors, row.ErrorRate*100, row.ShapeCorrelation)
	}
	fmt.Fprintln(w, "Expected shape: the plain bootstrap preserves the error rate but")
	fmt.Fprintln(w, "scrambles its daily shape; the seasonal bootstrap preserves both; the")
	fmt.Fprintln(w, "AR model synthesises clean data (no errors at all).")
}
