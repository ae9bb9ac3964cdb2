// Package experiments reproduces the paper's evaluation (§3): the three
// data-quality scenarios over the wearable stream (Figure 4, Table 1,
// §3.1.3), the forecasting-robustness study over the air-quality streams
// (Figures 6 and 7, Table 2), and the runtime-overhead measurement
// (Figure 8), plus the extension studies (Experiments 4–6). Tables lists
// every table they print: cmd/paper prints them and
// TestExperimentGoldens pins them.
package experiments

import (
	"time"

	"icewafl/internal/core"
	"icewafl/internal/dataset"
	"icewafl/internal/dq"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// SoftwareUpdateAt is the timestamp of the simulated erroneous software
// update: pollution applies to tuples recorded from 2016-02-27 on.
var SoftwareUpdateAt = time.Date(2016, 2, 27, 0, 0, 0, 0, time.UTC)

// RandomTemporalProcess builds the §3.1.1 scenario: NULL values injected
// into the Distance attribute with the sinusoidal daily probability
// p(t) = 0.25·cos(π/12·t) + 0.25, so the error rate peaks at midnight
// (0.5) and vanishes at noon.
func RandomTemporalProcess(seed int64) *core.Process {
	cond := core.NewRandom(core.SinusoidDaily(0.25, 0.25), rng.Derive(seed, "random-temporal/cond"))
	p := core.NewStandard("sinusoidal nulls", core.MissingValue{}, cond, "Distance")
	return core.NewProcess(core.NewPipeline(p))
}

// RandomTemporalSuite detects the §3.1.1 errors with
// expect_column_values_to_not_be_null on Distance.
func RandomTemporalSuite() *dq.Suite {
	return dq.NewSuite("random-temporal", dq.NotBeNull{Column: "Distance"})
}

// SoftwareUpdateProcess builds the Figure 5 scenario: a composite
// polluter gated on Time ≥ 2016-02-27 delegates to three children —
// km→cm unit conversion on Distance, precision-2 rounding on
// CaloriesBurned, and a nested composite that, for BPM > 100, first sets
// BPM to 0 and then (with probability 0.2) to NULL.
func SoftwareUpdateProcess(seed int64) *core.Process {
	bpmFix := core.NewComposite("wrong BPM measurement",
		core.Compare{Attr: "BPM", Op: core.OpGt, Value: stream.Float(100)},
		core.NewStandard("BPM set to 0", core.SetConstant{Value: stream.Float(0)}, nil, "BPM"),
		core.NewStandard("BPM set to null", core.MissingValue{},
			core.NewRandomConst(0.2, rng.Derive(seed, "software-update/bpm-null")), "BPM"),
	)
	update := core.NewComposite("software update",
		core.TimeInterval{From: SoftwareUpdateAt},
		core.NewStandard("Distance km to cm",
			&core.ScaleByFactor{Factor: core.Const(100000)}, nil, "Distance"),
		core.NewStandard("CaloriesBurned precision 2",
			core.RoundPrecision{Digits: 2}, nil, "CaloriesBurned"),
		bpmFix,
	)
	return core.NewProcess(core.NewPipeline(update))
}

// CaloriesRegex is the §3.1.2 regex for valid CaloriesBurned values: an
// integer, or a fraction with exactly three decimals ending in a non-zero
// digit — the precision the clean generator emits. The paper describes
// this as a pattern "that allows a precision p ≤ 3"; requiring the full
// three decimals is the sharpening needed for the rounded (precision-2)
// values to violate it.
const CaloriesRegex = `^\d+(\.\d{2}[1-9])?$`

// SoftwareUpdateSuite builds the four expectations of §3.1.2:
// (i) Steps ≥ Distance catches the km→cm conversion,
// (ii) the precision regex catches the CaloriesBurned rounding,
// (iii) a row-filtered multicolumn sum catches BPM set to 0 while the
// tracker recorded activity, and
// (iv) not-null catches BPM set to NULL.
func SoftwareUpdateSuite() *dq.Suite {
	regex, err := dq.NewMatchRegex("CaloriesBurned", CaloriesRegex)
	if err != nil {
		panic(err) // compile-time constant pattern
	}
	return dq.NewSuite("software-update",
		dq.PairAGreaterThanB{A: "Steps", B: "Distance", OrEqual: true},
		regex,
		dq.Where{
			Inner: dq.MulticolumnSumToEqual{
				Columns:   []string{"ActiveMinutes", "Distance", "Steps"},
				Total:     0,
				Tolerance: 1e-9,
			},
			Cond: dq.RowCondition{Column: "BPM", Op: "==", Value: stream.Float(0)},
		},
		dq.NotBeNull{Column: "BPM"},
	)
}

// BadNetworkProcess builds the §3.1.3 scenario: tuples recorded between
// 13:00 and 14:59 are delayed by one hour with probability 0.2.
func BadNetworkProcess(seed int64) *core.Process {
	cond := core.And{
		core.TimeOfDay{FromHour: 13, ToHour: 15},
		core.NewRandomConst(0.2, rng.Derive(seed, "bad-network/prob")),
	}
	p := core.NewStandard("network delay", core.DelayTuple{Delay: time.Hour}, cond)
	return core.NewProcess(core.NewPipeline(p))
}

// BadNetworkSuite detects delayed tuples with
// expect_column_values_to_be_increasing on the Time attribute.
func BadNetworkSuite() *dq.Suite {
	return dq.NewSuite("bad-network", dq.BeIncreasing{Column: "Time"})
}

// WearableSource returns a fresh source over the shared wearable stream.
// dataSeed fixes the synthetic data itself; pollution seeds vary per
// repetition while the data stays constant, as in the paper (one dataset,
// 50 pollution runs).
func WearableSource(dataSeed int64) stream.Source {
	return stream.NewSliceSource(dataset.WearableSchema(), dataset.Wearable(dataSeed))
}
