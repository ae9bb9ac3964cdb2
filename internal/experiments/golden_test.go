package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// table renders one experiment's printed table: run the experiment, then
// print its result.
func table[R any](run func() (R, error), print func(io.Writer, R)) func() ([]byte, error) {
	return func() ([]byte, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		print(&buf, r)
		return buf.Bytes(), nil
	}
}

func exp2Table(region, scenario string) func() ([]byte, error) {
	return table(func() (*Exp2Result, error) {
		cfg := DefaultExp2Config()
		cfg.Reps = 2
		return RunExp2(cfg, region, scenario)
	}, PrintExp2)
}

// TestExperimentGoldens pins every table the experiments print, at the
// sizes the shape tests above use, to testdata/<name>.golden: for a given
// data seed, re-running an experiment must reproduce its table byte for
// byte. Exp 3 is left out because its columns are wall-clock times.
// Regenerate with:
//
//	go test ./internal/experiments -run TestExperimentGoldens -update
func TestExperimentGoldens(t *testing.T) {
	for _, tc := range []struct {
		name   string
		render func() ([]byte, error)
	}{
		{name: "exp1_random", render: table(func() (*Exp1RandomResult, error) { return RunExp1Random(DefaultDataSeed, 5) }, PrintExp1Random)},
		{name: "exp1_update", render: table(func() (*Exp1UpdateResult, error) { return RunExp1Update(DefaultDataSeed, 5) }, PrintExp1Update)},
		{name: "exp1_network", render: table(func() (*Exp1NetworkResult, error) { return RunExp1Network(DefaultDataSeed, 10) }, PrintExp1Network)},
		{name: "exp2_gucheng_eval", render: exp2Table("Gucheng", ScenarioEval)},
		{name: "exp2_gucheng_noise", render: exp2Table("Gucheng", ScenarioNoise)},
		{name: "exp2_gucheng_scale", render: exp2Table("Gucheng", ScenarioScale)},
		{name: "exp4", render: table(func() (*Exp4Result, error) { return RunExp4(DefaultDataSeed, 2120) }, PrintExp4)},
		{name: "exp5", render: table(func() (*Exp5Result, error) { return RunExp5(DefaultDataSeed, 4000) }, PrintExp5)},
		{name: "exp6", render: table(func() (*Exp6Result, error) { return RunExp6(DefaultDataSeed, 4000) }, PrintExp6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.render()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create it): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("table differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
