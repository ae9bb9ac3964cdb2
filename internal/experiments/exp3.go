package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/csvio"
	"icewafl/internal/dataset"
	"icewafl/internal/plot"
	"icewafl/internal/stats"
	"icewafl/internal/stream"
)

// Exp3Config parameterises the runtime-overhead experiment.
type Exp3Config struct {
	DataSeed int64
	// Runs is the number of timed executions per scenario (paper: 50).
	Runs int
	// Replicas repeats the wearable stream end to end to lengthen the
	// workload: the raw stream has only ~1k tuples, too short for stable
	// wall-clock measurements on modern hardware. Timestamps continue
	// seamlessly across replicas so temporal conditions stay meaningful.
	Replicas int
	// DiskDir, when non-empty, reads the input from and writes the
	// output to real files under this directory instead of memory —
	// closer to the paper's load-from/write-to-disk pipeline, with a
	// heavier baseline that dilutes the relative pollution overhead.
	DiskDir string
}

// Exp3Scenario is one box of Figure 8.
type Exp3Scenario struct {
	Name string
	// RuntimesMS holds the wall-clock time of every run in milliseconds.
	RuntimesMS []float64
	Box        stats.BoxPlot
	// OverheadPercent is the overhead relative to the unpolluted
	// baseline: the median over rounds of this scenario's runtime ÷ the
	// baseline's runtime in the same round, minus one (0 for the baseline
	// itself). Pairing within a round cancels load drift on a shared box.
	OverheadPercent float64
}

// Exp3Result reproduces Figure 8.
type Exp3Result struct {
	Scenarios []Exp3Scenario
	Tuples    int
}

// replicateWearable repeats the wearable stream n times, shifting
// timestamps so the cadence continues seamlessly.
func replicateWearable(dataSeed int64, n int) []stream.Tuple {
	base := dataset.Wearable(dataSeed)
	if n <= 1 {
		return base
	}
	span := time.Duration(len(base)) * dataset.WearableInterval
	out := make([]stream.Tuple, 0, len(base)*n)
	for k := 0; k < n; k++ {
		shift := time.Duration(k) * span
		for _, t := range base {
			c := t.Clone()
			ts, _ := c.Timestamp()
			c.SetTimestamp(ts.Add(shift))
			out = append(out, c)
		}
	}
	return out
}

// RunExp3 times the three §3.1 pollution scenarios against an unpolluted
// load-and-write baseline. Every run parses the stream from CSV, runs
// the (possibly empty) pollution process, and serialises the result back
// to CSV, so the measured pipeline covers ingest, pollution and egress —
// the same envelope the paper measures on its Flink cluster.
func RunExp3(cfg Exp3Config) (*Exp3Result, error) {
	tuples := replicateWearable(cfg.DataSeed, cfg.Replicas)
	schema := dataset.WearableSchema()
	var csvData bytes.Buffer
	if err := csvio.WriteAll(&csvData, schema, tuples); err != nil {
		return nil, err
	}
	input := csvData.Bytes()
	inputPath := ""
	if cfg.DiskDir != "" {
		inputPath = filepath.Join(cfg.DiskDir, "exp3-input.csv")
		if err := os.WriteFile(inputPath, input, 0o644); err != nil {
			return nil, fmt.Errorf("exp3: write disk input: %w", err)
		}
	}

	type scenario struct {
		name    string
		proc    func(seed int64) *core.Process // nil: baseline
		reorder int                            // >1 when the pipeline displaces arrivals
	}
	scenarios := []scenario{
		{"software update", SoftwareUpdateProcess, 1},
		// Reorder window 16 ≈ 4 h of slack at 15-minute cadence, enough
		// for the scenario's 1-hour delays.
		{"bad network connection", BadNetworkProcess, 16},
		{"random temporal errors", RandomTemporalProcess, 1},
		{"no pollution", nil, 1},
	}

	// Rounds are interleaved — run r of every scenario before run r+1 of
	// any — so each scenario's r-th runtime has a baseline measured
	// moments later under the same load.
	res := &Exp3Result{Tuples: len(tuples), Scenarios: make([]Exp3Scenario, len(scenarios))}
	for run := 0; run < cfg.Runs; run++ {
		for i, sc := range scenarios {
			elapsed, err := timeOnePipeline(input, inputPath, cfg.DiskDir, schema, sc.proc, sc.reorder, cfg.DataSeed+int64(run))
			if err != nil {
				return nil, fmt.Errorf("exp3 %s run %d: %w", sc.name, run, err)
			}
			res.Scenarios[i].RuntimesMS = append(res.Scenarios[i].RuntimesMS, elapsed.Seconds()*1000)
		}
	}
	// The baseline is the last scenario; against itself every ratio is
	// exactly 1, so its overhead reads 0.
	baseline := res.Scenarios[len(scenarios)-1].RuntimesMS
	for i, sc := range scenarios {
		out := &res.Scenarios[i]
		out.Name = sc.name
		out.Box = stats.NewBoxPlot(out.RuntimesMS)
		ratios := make([]float64, len(out.RuntimesMS))
		for r, ms := range out.RuntimesMS {
			ratios[r] = ms / baseline[r]
		}
		out.OverheadPercent = (stats.Median(ratios) - 1) * 100
	}
	return res, nil
}

// timeOnePipeline measures one CSV → (pollute) → CSV execution. Both the
// baseline and the pollution scenarios run the tuple-wise streaming path
// (the analogue of a Flink operator chain): the only difference is the
// pollution operator in the middle, so the measured delta is the cost of
// pollution itself, as in the paper's setup. With diskDir set, input and
// output live on real files (synced), as in the paper's cluster runs.
func timeOnePipeline(input []byte, inputPath, diskDir string, schema *stream.Schema, mkProc func(int64) *core.Process, reorder int, seed int64) (time.Duration, error) {
	start := time.Now()

	var in io.Reader = bytes.NewReader(input)
	var outFile *os.File
	var out io.Writer = io.Discard
	if diskDir != "" {
		f, err := os.Open(inputPath)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		in = f
		outFile, err = os.CreateTemp(diskDir, "exp3-out-*.csv")
		if err != nil {
			return 0, err
		}
		defer os.Remove(outFile.Name())
		defer outFile.Close()
		out = outFile
	}

	reader, err := csvio.NewReader(in, schema)
	if err != nil {
		return 0, err
	}
	writer := csvio.NewWriter(out, schema)
	var src stream.Source = reader
	if mkProc != nil {
		proc := mkProc(seed)
		proc.DisableLog = true // the log is an optional output (Figure 2)
		src, _, err = proc.RunStream(reader, reorder)
		if err != nil {
			return 0, err
		}
	}
	if _, err := stream.Copy(writer, src); err != nil {
		return 0, err
	}
	if outFile != nil {
		if err := outFile.Sync(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// PrintExp3 renders Figure 8 as box-plot statistics plus an ASCII box
// plot panel.
func PrintExp3(w io.Writer, r *Exp3Result) {
	fmt.Fprintf(w, "Figure 8 — runtime overhead over %d tuples\n", r.Tuples)
	boxes := make([]plot.Box, 0, len(r.Scenarios))
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "%-24s %s overhead=%+.1f%%\n", sc.Name, sc.Box.String(), sc.OverheadPercent)
		boxes = append(boxes, plot.Box{
			Label: sc.Name,
			Min:   sc.Box.WhiskerLow, Q1: sc.Box.Q1, Median: sc.Box.Median,
			Q3: sc.Box.Q3, Max: sc.Box.WhiskerHigh,
		})
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, plot.Boxes("runtime (ms)", boxes, 50))
}
