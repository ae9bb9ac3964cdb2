package core

import (
	"bytes"
	"testing"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// statefulProcess extends the checkpoint test's state-heavy pipeline with
// the remaining run-scoped state carriers: an observer feeding a
// deviation condition, an error budget, and a cascade tracker. A single
// compiled instance of this process exercises every arm of the reset
// walker.
func statefulProcess(seed int64) *Process {
	base := ckptProcess(seed)
	st := NewStreamState(32)
	observe := NewObserver(st)
	deviate := NewStandard("spike", &Outlier{Magnitude: Const(5), Rand: rng.Derive(seed, "spike")},
		DeviationCondition{State: st, Attr: "v", Sigmas: 2, MinCount: 10}, "v")
	budget := NewStandard("budget", MissingValue{},
		NewBudgetCondition(NewRandomConst(0.5, rng.Derive(seed, "budget")), 3, 45*time.Minute), "v")
	p := base.Pipelines[0]
	p.Polluters = append(p.Polluters, observe, deviate, budget)
	return base
}

// TestRunTwiceByteIdentical is the regression test for per-run pipeline
// resets: running the same compiled process twice over the same input
// must produce byte-identical polluted streams and logs. Before
// ResetPipeline, stateful components (frozen values, sticky holds,
// Markov chains, budgets, cascade trackers, running statistics, per-key
// instances, and every RNG stream) silently carried their first run's
// state into the second.
func TestRunTwiceByteIdentical(t *testing.T) {
	schema := ckptSchema()
	const n = 300
	const seed = 97

	runBatch := func(pr *Process) ([]byte, []byte) {
		res, err := pr.Run(ckptSource(schema, n))
		if err != nil {
			t.Fatal(err)
		}
		csv, logJSON := renderRun(t, schema, res.Polluted, entriesOf(res.Log))
		return csv, logJSON
	}
	runStreaming := func(pr *Process) ([]byte, []byte) {
		src, log, err := pr.RunStream(ckptSource(schema, n), 1)
		if err != nil {
			t.Fatal(err)
		}
		tuples, err := stream.Drain(src)
		if err != nil {
			t.Fatal(err)
		}
		csv, logJSON := renderRun(t, schema, tuples, entriesOf(log))
		return csv, logJSON
	}
	runCheckpointed := func(pr *Process) ([]byte, []byte) {
		src, log, _, err := checkpointed(pr, ckptSource(schema, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		tuples, err := stream.Drain(src)
		if err != nil {
			t.Fatal(err)
		}
		csv, logJSON := renderRun(t, schema, tuples, entriesOf(log))
		return csv, logJSON
	}
	for _, tc := range []struct {
		name string
		run  func(*Process) ([]byte, []byte)
	}{
		{"batch", runBatch},
		{"streaming", runStreaming},
		{"checkpointed", runCheckpointed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr := statefulProcess(seed)
			csv1, log1 := tc.run(pr)
			csv2, log2 := tc.run(pr)
			if !bytes.Equal(csv1, csv2) {
				t.Errorf("second run's polluted stream differs from first (%d vs %d bytes)", len(csv1), len(csv2))
			}
			if !bytes.Equal(log1, log2) {
				t.Errorf("second run's pollution log differs from first (%d vs %d bytes)", len(log1), len(log2))
			}
		})
	}

	// A second run must also match a freshly compiled process: the reset
	// returns components to their just-constructed state, not merely to a
	// self-consistent one.
	t.Run("matches-fresh-compile", func(t *testing.T) {
		pr := statefulProcess(seed)
		_, _ = runBatch(pr)
		csvReused, logReused := runBatch(pr)
		fresh := statefulProcess(seed)
		csvFresh, logFresh := runBatch(fresh)
		if !bytes.Equal(csvReused, csvFresh) {
			t.Error("re-run of used process differs from freshly compiled process")
		}
		if !bytes.Equal(logReused, logFresh) {
			t.Error("re-run log of used process differs from freshly compiled process")
		}
	})

	// Mixing runners over one compiled process: batch then streaming must
	// equal streaming on a fresh process (the reset erases cross-runner
	// contamination too).
	t.Run("cross-runner", func(t *testing.T) {
		pr := statefulProcess(seed)
		_, _ = runBatch(pr)
		csvMixed, logMixed := runStreaming(pr)
		fresh := statefulProcess(seed)
		csvFresh, logFresh := runStreaming(fresh)
		if !bytes.Equal(csvMixed, csvFresh) {
			t.Error("streaming after batch differs from streaming on fresh process")
		}
		if !bytes.Equal(logMixed, logFresh) {
			t.Error("streaming-after-batch log differs from fresh streaming log")
		}
	})
}

// TestResetPipelineIdempotent guards the documented idempotence contract:
// resetting twice (or resetting a never-run pipeline) is a no-op.
func TestResetPipelineIdempotent(t *testing.T) {
	schema := ckptSchema()
	pr := statefulProcess(11)
	ResetPipeline(pr.Pipelines[0])
	ResetPipeline(pr.Pipelines[0])
	res1, err := pr.Run(ckptSource(schema, 120))
	if err != nil {
		t.Fatal(err)
	}
	fresh := statefulProcess(11)
	res2, err := fresh.Run(ckptSource(schema, 120))
	if err != nil {
		t.Fatal(err)
	}
	csv1, log1 := renderRun(t, schema, res1.Polluted, entriesOf(res1.Log))
	csv2, log2 := renderRun(t, schema, res2.Polluted, entriesOf(res2.Log))
	if !bytes.Equal(csv1, csv2) || !bytes.Equal(log1, log2) {
		t.Error("reset of a never-run pipeline changed its output")
	}
	ResetPipeline(nil) // nil-safe
}

// TestRNGStreamReset pins the Stream.Reset contract the walker relies on:
// after Reset the stream replays its first draws exactly, including the
// Box-Muller spare.
func TestRNGStreamReset(t *testing.T) {
	s := rng.Derive(42, "reset-test")
	first := make([]float64, 8)
	for i := range first {
		first[i] = s.Normal(0, 1)
	}
	s.Reset()
	for i := range first {
		if got := s.Normal(0, 1); got != first[i] {
			t.Fatalf("draw %d after Reset = %v, want %v", i, got, first[i])
		}
	}
}

// TestCleanTapStreaming checks that Process.CleanTap observes exactly the
// prepared (clean) tuples, in order, for both batch and streaming runs.
func TestCleanTapStreaming(t *testing.T) {
	schema := ckptSchema()
	const n = 50
	for _, mode := range []string{"batch", "streaming"} {
		t.Run(mode, func(t *testing.T) {
			pr := statefulProcess(7)
			var tapped []stream.Tuple
			pr.CleanTap = func(tp stream.Tuple) { tapped = append(tapped, tp.Clone()) }
			pr.KeepClean = true
			var clean []stream.Tuple
			switch mode {
			case "batch":
				res, err := pr.Run(ckptSource(schema, n))
				if err != nil {
					t.Fatal(err)
				}
				clean = res.Clean
			case "streaming":
				src, _, err := pr.RunStream(ckptSource(schema, n), 1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := stream.Drain(src); err != nil {
					t.Fatal(err)
				}
				// Streaming mode never materialises the clean stream; the
				// tap is its only witness. Compare against a plain prepared
				// run of the same source.
				prep := stream.NewPrepare(ckptSource(schema, n), 1)
				var perr error
				clean, perr = stream.Drain(prep)
				if perr != nil {
					t.Fatal(perr)
				}
			}
			if len(tapped) != n {
				t.Fatalf("tap saw %d tuples, want %d", len(tapped), n)
			}
			for i := range tapped {
				if tapped[i].ID != clean[i].ID {
					t.Fatalf("tap tuple %d has ID %d, clean has %d", i, tapped[i].ID, clean[i].ID)
				}
				for j := 0; j < tapped[i].Len(); j++ {
					if tapped[i].At(j).String() != clean[i].At(j).String() {
						t.Fatalf("tap tuple %d attr %d = %q, clean has %q", i, j, tapped[i].At(j).String(), clean[i].At(j).String())
					}
				}
			}
		})
	}
}
