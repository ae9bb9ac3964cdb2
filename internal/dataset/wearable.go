package dataset

import (
	"math"
	"sync"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// WearableStart is the first timestamp of the wearable stream. The paper's
// combined HRTable/MainTable stream spans 264.75 hours from 2016-02-26 to
// 2016-03-07 (volunteer 0216-0051-NHC); we reproduce the same span at a
// 15-minute granularity (the MainTable granularity is not published), so
// absolute tuple counts differ slightly from the paper while every
// per-scenario proportion is preserved. EXPERIMENTS.md reports both.
var WearableStart = time.Date(2016, 2, 26, 0, 0, 0, 0, time.UTC)

// WearableInterval is the sampling granularity of the generated stream.
const WearableInterval = 15 * time.Minute

// WearableHours is the stream's span in hours (264.75 h as in the paper).
const WearableHours = 264.75

// WearableTuples is the number of generated observations
// (264.75 h x 4 per hour + 1 = 1060).
const WearableTuples = int(WearableHours*4) + 1

// NewWearableSchema builds the activity-tracker schema through the
// error-returning constructor path — the public, non-panicking way to
// obtain it.
func NewWearableSchema() (*stream.Schema, error) {
	return stream.NewSchema("Time",
		stream.Field{Name: "Time", Kind: stream.KindTime},
		stream.Field{Name: "BPM", Kind: stream.KindFloat},
		stream.Field{Name: "Steps", Kind: stream.KindInt},
		stream.Field{Name: "Distance", Kind: stream.KindFloat},
		stream.Field{Name: "CaloriesBurned", Kind: stream.KindFloat},
		stream.Field{Name: "ActiveMinutes", Kind: stream.KindInt},
	)
}

// wearableSchemaCached validates the schema once, on first use, instead
// of at package init — an invalid schema no longer takes down every
// importer before main runs.
var wearableSchemaCached = sync.OnceValue(func() *stream.Schema {
	s, err := NewWearableSchema()
	if err != nil {
		panic(err) // unreachable: the field list is a compile-time constant
	}
	return s
})

func wearableSchema() *stream.Schema { return wearableSchemaCached() }

// WearableSchema returns the schema of the activity-tracker stream
// (timestamp attribute "Time").
func WearableSchema() *stream.Schema { return wearableSchema() }

// Wearable generates the activity-tracker stream. The same seed always
// yields the same stream. Properties mirrored from the paper's data:
//
//   - idle "tracker not worn" periods where BPM, Steps, Distance,
//     CaloriesBurned and ActiveMinutes are all zero;
//   - exercise bouts pushing BPM above 100 in roughly 3-4%% of tuples;
//   - CaloriesBurned recorded at a precision of exactly three decimals
//     (or the integer 0 when idle), so the round-to-2 pollution of the
//     software-update scenario is detectable by a precision regex;
//   - exactly two anomalous tuples with BPM == 0 but non-zero activity —
//     the two pre-existing constraint violations GX surfaced on the real
//     stream (Table 1's "+2").
func Wearable(seed int64) []stream.Tuple {
	r := rng.Derive(seed, "wearable")
	tuples := make([]stream.Tuple, 0, WearableTuples)

	// State machine over 15-minute slots: sleeping, idle (worn, resting),
	// active (walking), exercising (BPM > 100), or not worn.
	exerciseLeft := 0
	notWornLeft := 0

	for i := 0; i < WearableTuples; i++ {
		ts := WearableStart.Add(time.Duration(i) * WearableInterval)
		h := ts.Hour()

		var bpm float64
		var steps int64
		var activeMin int64

		switch {
		case notWornLeft > 0:
			notWornLeft--
			// Everything zero: tracker on the nightstand.
		case h < 6 || h >= 23: // sleep
			bpm = r.Uniform(52, 64)
		default:
			if exerciseLeft == 0 && r.Bernoulli(0.011) {
				exerciseLeft = 2 + r.Intn(3) // 30-60 minutes of exercise
			}
			if exerciseLeft == 0 && (h == 9 || h == 21) && r.Bernoulli(0.08) {
				notWornLeft = 1 + r.Intn(4) // shower / charging
				continueIdle(&bpm, &steps, &activeMin)
			} else if exerciseLeft > 0 {
				exerciseLeft--
				bpm = r.Uniform(105, 150)
				steps = int64(r.Uniform(1200, 2200))
				activeMin = int64(r.Uniform(10, 15))
			} else if r.Bernoulli(0.52) { // walking around
				bpm = r.Uniform(72, 98)
				steps = int64(r.Uniform(120, 900))
				activeMin = int64(r.Uniform(1, 9))
			} else { // sitting
				bpm = r.Uniform(62, 80)
			}
		}

		distance := float64(steps) * 0.00072 // km, ~0.72 m stride
		calories := 0.0
		if bpm > 0 {
			calories = 18 + float64(0.055*float64(steps)) + float64(0.1*(bpm-60)) + r.Uniform(0, 2)
		}

		tuples = append(tuples, makeWearableTuple(ts, bpm, steps, distance, calories, activeMin))
	}

	// Plant the two pre-existing violations: BPM == 0 with activity > 0.
	// Deterministic positions in the pre-update day keep runs comparable.
	plantGlitch(tuples, 30, r)
	plantGlitch(tuples, 61, r)
	return tuples
}

func continueIdle(bpm *float64, steps *int64, activeMin *int64) {
	*bpm, *steps, *activeMin = 0, 0, 0
}

func makeWearableTuple(ts time.Time, bpm float64, steps int64, distance, calories float64, activeMin int64) stream.Tuple {
	return stream.NewTuple(wearableSchema(), []stream.Value{
		stream.Time(ts),
		stream.Float(math.Round(bpm)),
		stream.Int(steps),
		stream.Float(math.Round(distance*1000) / 1000),
		stream.Float(quantize3(calories)),
		stream.Int(activeMin),
	})
}

// quantize3 rounds to exactly three decimals and nudges the third decimal
// to be non-zero for positive values, so clean CaloriesBurned values
// always render with three decimal digits.
func quantize3(x float64) float64 {
	if x == 0 {
		return 0
	}
	q := math.Round(x*1000) / 1000
	milli := int64(math.Round(q * 1000))
	if milli%10 == 0 {
		milli++ // force a non-zero third decimal
	}
	return float64(milli) / 1000
}

// plantGlitch turns tuple i into a BPM==0, activity>0 anomaly.
func plantGlitch(tuples []stream.Tuple, i int, r *rng.Stream) {
	if i >= len(tuples) {
		return
	}
	steps := int64(r.Uniform(200, 600))
	tuples[i].Set("BPM", stream.Float(0))
	tuples[i].Set("Steps", stream.Int(steps))
	tuples[i].Set("Distance", stream.Float(math.Round(float64(steps)*0.72)/1000))
	tuples[i].Set("CaloriesBurned", stream.Float(quantize3(18+float64(0.055*float64(steps)))))
	tuples[i].Set("ActiveMinutes", stream.Int(5))
}
