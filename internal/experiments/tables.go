package experiments

import (
	"fmt"
	"io"
	"os"
	"strings"

	"icewafl/internal/dataset"
)

// Table is one table of the evaluation as cmd/paper prints it. Tables
// lists them all; TestExperimentGoldens pins every one that is not
// Timed to testdata/<Name>.golden. No name continues another after an
// underscore, so a name selects exactly its table and a shorter prefix
// (exp2, exp2_gucheng) a group.
type Table struct {
	// Name selects the table on cmd/paper's command line.
	Name string
	// Artifact is what the table reproduces: a paper figure, table or
	// section, or the extension study.
	Artifact string
	// Timed marks a table of wall-clock times, which no golden can pin.
	Timed bool
	// Print runs the table at its documented size for one data seed and
	// prints it.
	Print func(w io.Writer, seed int64) error
}

// printed runs an experiment and prints its result.
func printed[R any](run func(seed int64) (R, error), print func(io.Writer, R)) func(io.Writer, int64) error {
	return func(w io.Writer, seed int64) error {
		r, err := run(seed)
		if err != nil {
			return err
		}
		print(w, r)
		return nil
	}
}

// exp2Config is DefaultExp2Config for another data seed.
func exp2Config(seed int64) Exp2Config {
	cfg := DefaultExp2Config()
	cfg.DataSeed = seed
	return cfg
}

// exp2Table prints one region × scenario panel of Figures 6/7; vary,
// when set, changes the default configuration.
func exp2Table(region, scenario string, vary func(*Exp2Config)) func(io.Writer, int64) error {
	return printed(func(seed int64) (*Exp2Result, error) {
		cfg := exp2Config(seed)
		if vary != nil {
			vary(&cfg)
		}
		return RunExp2(cfg, region, scenario)
	}, PrintExp2)
}

// exp3Table prints Figure 8 (the paper's 50 runs over the wearable
// stream stretched to 106 000 tuples), in memory or on files in a fresh
// temporary directory.
func exp3Table(disk bool) func(io.Writer, int64) error {
	return printed(func(seed int64) (*Exp3Result, error) {
		cfg := Exp3Config{DataSeed: seed, Runs: 50, Replicas: 100}
		if disk {
			dir, err := os.MkdirTemp("", "icewafl-exp3-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			cfg.DiskDir = dir
		}
		return RunExp3(cfg)
	}, PrintExp3)
}

// Tables lists every table of the evaluation in paper order, each at the
// size EXPERIMENTS.md documents: 50 repetitions for Experiments 1 and 3,
// the paper's 10 polluted replicates for Experiment 2, 2 120 synthetic
// tuples for Experiment 4 and 6 000 for the matrices of 5 and 6.
func Tables() []Table {
	tables := []Table{
		{Name: "exp1_random", Artifact: "Figure 4 and §3.1.1: random temporal errors",
			Print: printed(func(seed int64) (*Exp1RandomResult, error) { return RunExp1Random(seed, 50) }, PrintExp1Random)},
		{Name: "exp1_update", Artifact: "Table 1 and Figure 5: software update",
			Print: printed(func(seed int64) (*Exp1UpdateResult, error) { return RunExp1Update(seed, 50) }, PrintExp1Update)},
		{Name: "exp1_network", Artifact: "§3.1.3: bad network connection",
			Print: printed(func(seed int64) (*Exp1NetworkResult, error) { return RunExp1Network(seed, 50) }, PrintExp1Network)},
		{Name: "exp2_splits", Artifact: "Table 2: data splits", Print: printExp2Splits},
		{Name: "exp2_grid", Artifact: "§3.2.2: hyperparameter grid search", Print: printExp2Grid},
	}
	for _, region := range dataset.Regions() {
		for _, sc := range []string{ScenarioEval, ScenarioNoise, ScenarioScale} {
			tables = append(tables, Table{
				Name:     "exp2_" + strings.ToLower(region) + "_" + sc,
				Artifact: "Figure " + figureForScenario(sc) + ", region " + region,
				Print:    exp2Table(region, sc, nil),
			})
		}
	}
	return append(tables,
		Table{Name: "exp2_sarima", Artifact: "ablation: Figure 6, region Wanshouxigong, plus a seasonal ARIMA",
			Print: exp2Table(dataset.RegionWanshouxigong, ScenarioNoise, func(c *Exp2Config) { c.IncludeSARIMA = true })},
		Table{Name: "exp2_baselines", Artifact: "ablation: clean baseline, region Wanshouxigong, plus naive forecasters",
			Print: exp2Table(dataset.RegionWanshouxigong, ScenarioEval, func(c *Exp2Config) { c.IncludeBaselines = true })},
		Table{Name: "exp3_memory", Artifact: "Figure 8: runtime overhead", Timed: true, Print: exp3Table(false)},
		Table{Name: "exp3_disk", Artifact: "Figure 8 with input and output on files", Timed: true, Print: exp3Table(true)},
		Table{Name: "exp4", Artifact: "§5 future work 4: synthesis error-pattern study",
			Print: printed(func(seed int64) (*Exp4Result, error) { return RunExp4(seed, 2120) }, PrintExp4)},
		Table{Name: "exp5", Artifact: "extension: detector × error-type matrix",
			Print: printed(func(seed int64) (*Exp5Result, error) { return RunExp5(seed, 6000) }, PrintExp5)},
		Table{Name: "exp6", Artifact: "extension: cleaner × error-type matrix",
			Print: printed(func(seed int64) (*Exp6Result, error) { return RunExp6(seed, 6000) }, PrintExp6)},
	)
}

// printExp2Splits prints Table 2 for every region.
func printExp2Splits(w io.Writer, seed int64) error {
	cfg := exp2Config(seed)
	for _, region := range dataset.Regions() {
		tuples, splits, err := regionSplits(cfg, region)
		if err != nil {
			return err
		}
		const day = "2006-01-02 15:04"
		fmt.Fprintf(w, "Table 2 — data splits for region %s (%d tuples total):\n", region, len(tuples))
		fmt.Fprintf(w, "  D_train: %6d tuples  [%s .. %s)\n", splits.Train.Len(), splits.Train.Times[0].Format(day), splits.TrainEnd.Format(day))
		fmt.Fprintf(w, "  D_valid: %6d tuples  [%s .. %s)\n", splits.Valid.Len(), splits.TrainEnd.Format(day), splits.ValidEnd.Format(day))
		fmt.Fprintf(w, "  D_eval:  %6d tuples  [%s .. ]\n", splits.Eval.Len(), splits.EvalStart.Format(day))
		fmt.Fprintln(w, "  D_noise, D_scale: polluted variants of D_eval")
	}
	return nil
}

// printExp2Grid prints every region's grid-search winners.
func printExp2Grid(w io.Writer, seed int64) error {
	for _, region := range dataset.Regions() {
		winners, err := RunExp2GridSearch(exp2Config(seed), region)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "grid search (5-fold time-series CV) for region %s:\n", region)
		for _, family := range ModelNames {
			win := winners[family]
			fmt.Fprintf(w, "  %-14s best: %-32s CV-MAE %.2f\n", family, win.Label, win.MAE)
		}
	}
	return nil
}
