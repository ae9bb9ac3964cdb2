package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestExperimentGoldens pins every table Tables lists, except the
// wall-clock Exp 3 ones, to testdata/<name>.golden at the size cmd/paper
// runs it: for the default data seed, `go run ./cmd/paper <name>` prints
// the golden byte for byte. A golden no table writes fails the test.
// Regenerate with:
//
//	go test ./internal/experiments -run TestExperimentGoldens -update
func TestExperimentGoldens(t *testing.T) {
	pinned := map[string]bool{}
	tables := Tables()
	for _, tb := range tables {
		for _, other := range tables {
			if strings.HasPrefix(other.Name, tb.Name+"_") {
				t.Errorf("table %s continues %s: cmd/paper %s would print both", other.Name, tb.Name, tb.Name)
			}
		}
		if tb.Timed {
			continue
		}
		path := filepath.Join("testdata", tb.Name+".golden")
		pinned[path] = true
		t.Run(tb.Name, func(t *testing.T) {
			var got bytes.Buffer
			if err := tb.Print(&got, DefaultDataSeed); err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create it): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("table differs from %s\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
			}
		})
	}
	stale, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range stale {
		if !pinned[path] {
			t.Errorf("%s belongs to no table; delete it", path)
		}
	}
}
