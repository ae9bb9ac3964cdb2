// Package dataset generates the two benchmark streams of the paper's
// evaluation as deterministic synthetic equivalents:
//
//   - a Beijing-multi-site-air-quality-like stream (hourly, 4 years,
//     35,064 tuples per region, 18 attributes) for the forecasting
//     experiment, and
//   - a wearable-device-like activity-tracker stream (11 days, 15-minute
//     granularity) for the data-quality experiment.
//
// Both generators are seeded, so experiments are reproducible, and both
// expose realistic structure: daily and annual seasonality, autocorrelated
// innovations, covariate dependence, idle periods and a pair of
// pre-existing constraint violations mirroring the quirks the paper
// reports in the real data.
package dataset

import (
	"math"
	"sync"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// Regions of the air-quality dataset used in the forecasting experiment.
const (
	RegionGucheng       = "Gucheng"
	RegionWanshouxigong = "Wanshouxigong"
	RegionWanliu        = "Wanliu"
)

// Regions lists the three evaluation regions in paper order.
func Regions() []string {
	return []string{RegionGucheng, RegionWanshouxigong, RegionWanliu}
}

// AirQualityStart and AirQualityEnd delimit the generated period,
// matching the real dataset's span (hourly, 2013-03-01 .. 2017-02-28).
var (
	AirQualityStart = time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	AirQualityEnd   = time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
)

// AirQualityTuples is the number of hourly observations per region
// (35,064 = 4 years x 8,760 + 24 leap-day hours).
const AirQualityTuples = 35064

// NewAirQualitySchema builds the air-quality schema through the
// error-returning constructor path — the public, non-panicking way to
// obtain it.
func NewAirQualitySchema() (*stream.Schema, error) {
	return stream.NewSchema("ts",
		stream.Field{Name: "No", Kind: stream.KindInt},
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "year", Kind: stream.KindInt},
		stream.Field{Name: "month", Kind: stream.KindInt},
		stream.Field{Name: "day", Kind: stream.KindInt},
		stream.Field{Name: "hour", Kind: stream.KindInt},
		stream.Field{Name: "PM2.5", Kind: stream.KindFloat},
		stream.Field{Name: "PM10", Kind: stream.KindFloat},
		stream.Field{Name: "SO2", Kind: stream.KindFloat},
		stream.Field{Name: "NO2", Kind: stream.KindFloat},
		stream.Field{Name: "CO", Kind: stream.KindFloat},
		stream.Field{Name: "O3", Kind: stream.KindFloat},
		stream.Field{Name: "TEMP", Kind: stream.KindFloat},
		stream.Field{Name: "PRES", Kind: stream.KindFloat},
		stream.Field{Name: "DEWP", Kind: stream.KindFloat},
		stream.Field{Name: "RAIN", Kind: stream.KindFloat},
		stream.Field{Name: "wd", Kind: stream.KindString},
		stream.Field{Name: "WSPM", Kind: stream.KindFloat},
	)
}

// airQualitySchemaCached validates the schema once, on first use,
// instead of at package init.
var airQualitySchemaCached = sync.OnceValue(func() *stream.Schema {
	s, err := NewAirQualitySchema()
	if err != nil {
		panic(err) // unreachable: the field list is a compile-time constant
	}
	return s
})

func airQualitySchema() *stream.Schema { return airQualitySchemaCached() }

// AirQualitySchema returns the 18-attribute schema of the air-quality
// stream (timestamp attribute "ts").
func AirQualitySchema() *stream.Schema { return airQualitySchema() }

var windDirections = []string{"N", "NNE", "NE", "ENE", "E", "ESE", "SE", "SSE",
	"S", "SSW", "SW", "WSW", "W", "WNW", "NW", "NNW"}

// AirQualityOptions tunes the generator; the zero value reproduces the
// defaults used by the experiments.
type AirQualityOptions struct {
	// MissingRate is the fraction of NO2 values replaced by NULL, to be
	// imputed with forward fill as in the paper (default 0.015).
	MissingRate float64
	// Tuples overrides the stream length (default AirQualityTuples).
	Tuples int
}

// AirQuality generates the hourly multivariate stream for one region.
// The same (region, seed) pair always produces the same stream.
//
// The target pollutant NO2 carries daily and annual cycles, an AR(1)
// innovation process, and a dependence on the weather covariates TEMP,
// PRES and WSPM — the attributes ARIMAX receives (§3.2.2) — so the
// forecasting methods have genuine structure to learn.
func AirQuality(region string, seed int64, opts AirQualityOptions) []stream.Tuple {
	if opts.MissingRate == 0 {
		opts.MissingRate = 0.015
	}
	if opts.Tuples == 0 {
		opts.Tuples = AirQualityTuples
	}
	r := rng.Derive(seed, "airquality/"+region)
	missR := rng.Derive(seed, "airquality-missing/"+region)

	// Region-specific base levels keep the three streams distinct.
	base := 38 + float64(8*r.Float64()) // NO2 base μg/m³
	tempBase := 12 + float64(3*r.Float64())
	presBase := 1012 + float64(3*r.Float64())

	// AR(1) states.
	arNO2, arTemp, arPres, arWind := 0.0, 0.0, 0.0, 0.0

	tuples := make([]stream.Tuple, 0, opts.Tuples)
	for i := 0; i < opts.Tuples; i++ {
		ts := AirQualityStart.Add(time.Duration(i) * time.Hour)
		hour := float64(ts.Hour())
		yearFrac := float64(ts.YearDay()-1) / 365.0

		arTemp = float64(0.97*arTemp) + r.Normal(0, 0.8)
		arPres = float64(0.95*arPres) + r.Normal(0, 0.6)
		arWind = float64(0.8*arWind) + r.Normal(0, 0.5)
		arNO2 = float64(0.85*arNO2) + r.Normal(0, 4)

		temp := tempBase +
			float64(12*math.Sin(2*math.Pi*(yearFrac-0.25))) + // annual cycle, peak in summer
			float64(4*math.Sin(2*math.Pi*(hour-9)/24)) + // daily cycle, peak afternoon
			arTemp
		pres := presBase - float64(6*math.Sin(2*math.Pi*(yearFrac-0.25))) + arPres
		wspm := math.Abs(1.8 + arWind)
		dewp := temp - 4 - float64(3*r.Float64())
		rain := 0.0
		if r.Bernoulli(0.04) {
			rain = r.Uniform(0.1, 8)
		}

		no2 := base +
			float64(14*math.Cos(2*math.Pi*(hour-19)/24)) + // daily cycle, rush-hour peak
			float64(9*math.Sin(2*math.Pi*(yearFrac+0.25))) + // annual cycle, winter peak
			float64(-0.45*(temp-tempBase)) + // cold → more NO2
			float64(-3.5*wspm) + // wind disperses
			float64(0.25*(pres-presBase)) +
			arNO2
		if no2 < 1 {
			no2 = 1
		}

		// Correlated companion pollutants.
		pm25 := math.Max(2, float64(0.9*no2)+r.Normal(20, 10))
		pm10 := math.Max(pm25, pm25+r.Uniform(5, 40))
		so2 := math.Max(1, float64(0.3*no2)+r.Normal(5, 3))
		co := math.Max(100, float64(18*no2)+r.Normal(300, 150))
		o3 := math.Max(1, 80-float64(0.6*no2)+float64(8*math.Sin(2*math.Pi*(hour-14)/24))+r.Normal(0, 8))

		no2Val := stream.Float(round1(no2))
		if missR.Bernoulli(opts.MissingRate) {
			no2Val = stream.Null()
		}

		tuples = append(tuples, stream.NewTuple(airQualitySchema(), []stream.Value{
			stream.Int(int64(i + 1)),
			stream.Time(ts),
			stream.Int(int64(ts.Year())),
			stream.Int(int64(ts.Month())),
			stream.Int(int64(ts.Day())),
			stream.Int(int64(ts.Hour())),
			stream.Float(round1(pm25)),
			stream.Float(round1(pm10)),
			stream.Float(round1(so2)),
			no2Val,
			stream.Float(round1(co)),
			stream.Float(round1(o3)),
			stream.Float(round1(temp)),
			stream.Float(round1(pres)),
			stream.Float(round1(dewp)),
			stream.Float(round1(rain)),
			stream.Str(windDirections[r.Intn(len(windDirections))]),
			stream.Float(round1(wspm)),
		}))
	}
	return tuples
}

func round1(x float64) float64 { return math.Round(x*10) / 10 }
