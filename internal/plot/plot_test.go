package plot

import (
	"math"
	"strings"
	"testing"
)

func TestLinesBasic(t *testing.T) {
	out := Lines("demo", []Series{
		{Name: "up", Values: []float64{1, 2, 3, 4, 5}},
		{Name: "down", Values: []float64{5, 4, 3, 2, 1}},
	}, 20, 8)
	if !strings.Contains(out, "demo") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "o down") {
		t.Fatalf("legend missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + 8 rows + axis + legend
	if len(lines) != 11 {
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	// The increasing series must put a '*' in the top row at the right
	// and the bottom row at the left.
	top, bottom := lines[1], lines[8]
	if !strings.Contains(top, "*") || !strings.Contains(bottom, "*") {
		t.Fatalf("line chart shape wrong:\n%s", out)
	}
	if strings.Index(top, "*") < strings.Index(bottom, "*") {
		t.Fatalf("increasing series not rising:\n%s", out)
	}
}

func TestLinesHandlesEdgeCases(t *testing.T) {
	// Constant series (zero range), NaNs, empty series, single point.
	out := Lines("", []Series{
		{Name: "const", Values: []float64{3, 3, 3}},
		{Name: "nan", Values: []float64{math.NaN(), 1, math.NaN()}},
		{Name: "empty"},
		{Name: "single", Values: []float64{2}},
	}, 10, 5)
	if out == "" {
		t.Fatal("empty output")
	}
	// Tiny dimensions are clamped, not panicking.
	_ = Lines("", []Series{{Name: "x", Values: []float64{1}}}, 1, 1)
	// No series at all.
	_ = Lines("", nil, 20, 5)
}

func TestBoxes(t *testing.T) {
	out := Boxes("runtimes", []Box{
		{Label: "fast", Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5},
		{Label: "slow", Min: 6, Q1: 7, Median: 8, Q3: 9, Max: 10},
	}, 40)
	if !strings.Contains(out, "runtimes") {
		t.Fatal("title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + 2 boxes + scale
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	for _, row := range lines[1:3] {
		for _, c := range []string{"[", "]", "M", "|"} {
			if !strings.Contains(row, c) {
				t.Fatalf("box row missing %q:\n%s", c, out)
			}
		}
	}
	// The fast box must sit left of the slow box.
	if strings.Index(lines[1], "M") >= strings.Index(lines[2], "M") {
		t.Fatalf("boxes not ordered on shared scale:\n%s", out)
	}
	// Degenerate: all-equal values.
	_ = Boxes("", []Box{{Label: "flat", Min: 1, Q1: 1, Median: 1, Q3: 1, Max: 1}}, 30)
}
