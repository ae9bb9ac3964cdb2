package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"icewafl/internal/csvio"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// The loan oracle: a run over a csvio.Reader hands every tuple's values
// back to the reader, which reuses them for later rows. The same rows
// through a source that never takes a tuple back must give the same
// dirty CSV, log and dead letters, or a tuple was reused while something
// still held it.

// lendInput renders n rows over ckptSchema from seed. Most cells are in
// the canonical form Writer writes, so a recycled row copies them; about
// one in three is spelled otherwise (1.50, +5, 007, 1e3, .5, +00:00,
// .000, a leading space, \.), quoted, or a quoted string across lines.
// With bad set, one row in about 40 is malformed (a bare quote) or has a
// cell that does not parse.
func lendInput(seed int64, n int, bad bool) string {
	r := rand.New(rand.NewSource(seed))
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	var b strings.Builder
	b.WriteString("ts,v,sensor\n")
	for i := range n {
		at := base.Add(time.Duration(i) * time.Minute)
		ts := at.Format(time.RFC3339)
		switch r.Intn(12) {
		case 0:
			ts = strings.TrimSuffix(ts, "Z") + "+00:00"
		case 1:
			ts = strings.TrimSuffix(ts, "Z") + ".000Z"
		case 2:
			ts = at.In(time.FixedZone("", 19800)).Format(time.RFC3339)
		case 3:
			ts = `"` + ts + `"`
		}
		f := float64(r.Intn(20001)-10000) / 100
		v := strconv.FormatFloat(f, 'f', -1, 64)
		switch r.Intn(16) {
		case 0:
			v = fmt.Sprint(r.Float64() * 100) // 16–17 digits
		case 1:
			v = strconv.FormatFloat(f, 'f', 3, 64) // 1.500
		case 2:
			v = strconv.FormatFloat(f, 'e', -1, 64) // 1.5e+00
		case 3:
			v = "00" + strings.TrimPrefix(v, "-")
		case 4:
			v = "+" + strings.TrimPrefix(v, "-")
		case 5:
			v = strings.Replace(v, "0.", ".", 1)
		case 6:
			v = `"` + v + `"`
		}
		sensor := []string{"s0", "sensör-1", "s2", "", " s3", `\.`, `"s,4"`, "\"s\n5\"", `"s""6"`}[r.Intn(9)]
		switch k := r.Intn(40); {
		case bad && k == 0:
			v = `1"2`
		case bad && k == 1:
			v = "not-a-number"
		}
		fmt.Fprintf(&b, "%s,%s,%s\n", ts, v, sensor)
	}
	return b.String()
}

// lendProcess mixes value noise, a frozen value held across tuples,
// drops and delays; under quarantine a polluter also panics on about 1 %
// of the rows.
func lendProcess(seed int64, quarantine bool) *Process {
	polluters := []Polluter{
		NewStandard("noise", &GaussianNoise{Stddev: Const(3), Rand: rng.Derive(seed, "noise")},
			NewRandomConst(0.4, rng.Derive(seed, "noise-c")), "v"),
		NewStandard("freeze", NewFrozenValue(),
			NewSticky(NewRandomConst(0.05, rng.Derive(seed, "freeze-c")), 30*time.Minute), "v", "sensor"),
		NewStandard("drop", DropTuple{}, NewRandomConst(0.1, rng.Derive(seed, "drop-c")), "v"),
		NewStandard("delay", DelayTuple{Delay: 90 * time.Minute},
			NewRandomConst(0.1, rng.Derive(seed, "delay-c")), "v"),
	}
	if quarantine {
		polluters = append(polluters, NewStandard("panic", panicOn{threshold: 99}, nil, "v"))
	}
	return &Process{Pipelines: []*Pipeline{NewPipeline(polluters...)}, FirstID: 1,
		Fault: FaultPolicy{Quarantine: quarantine, DLQ: stream.NewDeadLetterQueue()}}
}

// lentRun is one run's rendered outputs.
type lentRun struct{ dirty, log, dead string }

// drainLent writes each tuple src emits before it asks for the next one,
// as the loan rule allows, and stops after limit tuples (< 0: at EOF).
func drainLent(t *testing.T, w *csvio.Writer, src stream.Source, limit int) {
	t.Helper()
	for n := 0; n != limit; n++ {
		tp, err := src.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(tp); err != nil {
			t.Fatal(err)
		}
	}
}

func render(t *testing.T, dirty *bytes.Buffer, entries []Entry, dead []stream.DeadLetter) lentRun {
	t.Helper()
	var lb bytes.Buffer
	if err := logOf(entries...).WriteJSON(&lb); err != nil {
		t.Fatal(err)
	}
	return lentRun{dirty.String(), lb.String(), fmt.Sprintf("%+v", dead)}
}

// runLent pollutes src in the given shape and renders the outputs.
func runLent(t *testing.T, pr *Process, src stream.Source, spec StreamSpec) lentRun {
	t.Helper()
	run, err := pr.Stream(src, spec)
	if err != nil {
		t.Fatal(err)
	}
	var dirty bytes.Buffer
	w := csvio.NewWriter(&dirty, src.Schema())
	drainLent(t, w, run.Source, -1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return render(t, &dirty, entriesOf(run.Log), pr.Fault.DLQ.Letters())
}

// plainSource is the non-recycling side: input with no bad rows goes
// through csvio.ReadAll into a slice; input with bad rows is every
// result of a reader that is never handed a tuple back, replayed in
// order, tuple errors included.
func plainSource(t *testing.T, input string, schema *stream.Schema) stream.Source {
	t.Helper()
	if tuples, err := csvio.ReadAll(strings.NewReader(input), schema); err == nil {
		return stream.NewSliceSource(schema, tuples)
	}
	r, err := csvio.NewReader(strings.NewReader(input), schema)
	if err != nil {
		t.Fatal(err)
	}
	rp := &replaySource{schema: schema}
	for {
		tp, err := r.Next()
		if err == io.EOF {
			return rp
		}
		if _, ok := stream.AsTupleError(err); err != nil && !ok {
			t.Fatal(err)
		}
		rp.rows = append(rp.rows, replayRow{tp, err})
	}
}

type replayRow struct {
	t   stream.Tuple
	err error
}

// replaySource returns recorded results in order, then io.EOF.
type replaySource struct {
	schema *stream.Schema
	rows   []replayRow
}

func (s *replaySource) Schema() *stream.Schema { return s.schema }

func (s *replaySource) Next() (stream.Tuple, error) {
	if len(s.rows) == 0 {
		return stream.Tuple{}, io.EOF
	}
	r := s.rows[0]
	s.rows = s.rows[1:]
	return r.t, r.err
}

func lentReader(t *testing.T, input string) *csvio.Reader {
	t.Helper()
	r, err := csvio.NewReader(strings.NewReader(input), ckptSchema())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLentTuplesMatchOwnedTuples(t *testing.T) {
	const n = 600
	for _, seed := range []int64{1, 2, 3} {
		for _, quarantine := range []bool{false, true} {
			input := lendInput(seed, n, quarantine)
			for _, reorder := range []int{1, 2, 64} {
				t.Run(fmt.Sprintf("seed=%d/quarantine=%v/reorder=%d", seed, quarantine, reorder), func(t *testing.T) {
					spec := StreamSpec{Reorder: reorder}
					want := runLent(t, lendProcess(seed, quarantine), plainSource(t, input, ckptSchema()), spec)
					got := runLent(t, lendProcess(seed, quarantine), lentReader(t, input), spec)
					assertSameRun(t, got, want)
					if quarantine && !(strings.Contains(want.dead, "Stage:csv-decode") && strings.Contains(want.dead, "Stage:pollute")) {
						t.Fatalf("want dead letters from both the reader and the pipeline: %s", want.dead)
					}
				})
			}
		}
	}
}

// TestLentTuplesCheckpointResume: a checkpointed run over a recycling
// reader, stopped and resumed from its checkpoint, gives the outputs of
// an uninterrupted run over tuples that are never reused.
func TestLentTuplesCheckpointResume(t *testing.T) {
	const n, seed = 600, 7
	for _, quarantine := range []bool{false, true} {
		input := lendInput(seed, n, quarantine)
		want := runLent(t, lendProcess(seed, quarantine), plainSource(t, input, ckptSchema()), StreamSpec{Checkpoint: true})
		for _, kill := range []int{1, 250} {
			t.Run(fmt.Sprintf("quarantine=%v/kill=%d", quarantine, kill), func(t *testing.T) {
				var dirty bytes.Buffer
				w := csvio.NewWriter(&dirty, ckptSchema())
				pr1 := lendProcess(seed, quarantine)
				run1, err := pr1.Stream(lentReader(t, input), StreamSpec{Checkpoint: true})
				if err != nil {
					t.Fatal(err)
				}
				drainLent(t, w, run1.Source, kill)
				ck, err := run1.Checkpointer.Capture()
				if err != nil {
					t.Fatal(err)
				}
				entries := entriesOf(run1.Log)
				dead := pr1.Fault.DLQ.Letters()

				pr2 := lendProcess(seed, quarantine)
				run2, err := pr2.Stream(lentReader(t, input), StreamSpec{Resume: ck})
				if err != nil {
					t.Fatal(err)
				}
				drainLent(t, w, run2.Source, -1)
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				got := render(t, &dirty, append(entries, entriesOf(run2.Log)...), append(dead, pr2.Fault.DLQ.Letters()...))
				assertSameRun(t, got, want)
			})
		}
	}
}

func assertSameRun(t *testing.T, got, want lentRun) {
	t.Helper()
	if got.dirty != want.dirty {
		t.Errorf("dirty CSV differs: %d bytes, want %d\n%s", len(got.dirty), len(want.dirty), firstDiff(got.dirty, want.dirty))
	}
	if got.log != want.log {
		t.Errorf("log differs: %d bytes, want %d\n%s", len(got.log), len(want.log), firstDiff(got.log, want.log))
	}
	if got.dead != want.dead {
		t.Errorf("dead letters differ:\ngot  %s\nwant %s", got.dead, want.dead)
	}
}

// firstDiff shows the first line on which a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other (%d vs %d lines)", len(al), len(bl))
}

// TestRunStreamLentAllocs: a run over a recycling reader at reorder 64
// into a CSV writer allocates a fraction of an object per tuple — the
// log's blocks and the run's set-up — and never a cell array per row.
func TestRunStreamLentAllocs(t *testing.T) {
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "n", Kind: stream.KindInt},
	)
	const rows = 20000
	var b strings.Builder
	b.WriteString("ts,v,n\n")
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := range rows {
		fmt.Fprintf(&b, "%s,%g,%d\n", base.Add(time.Duration(i)*time.Second).Format(time.RFC3339), float64(i)/4, i)
	}
	input := b.String()
	perTuple := testing.AllocsPerRun(1, func() {
		r, err := csvio.NewReader(strings.NewReader(input), schema)
		if err != nil {
			t.Fatal(err)
		}
		pr := &Process{Pipelines: []*Pipeline{NewPipeline(
			NewStandard("noise", &GaussianNoise{Stddev: Const(3), Rand: rng.Derive(1, "noise")},
				NewRandomConst(0.3, rng.Derive(1, "noise-c")), "v"),
			NewStandard("delay", DelayTuple{Delay: 30 * time.Second},
				NewRandomConst(0.1, rng.Derive(1, "delay-c")), "v"),
		)}, FirstID: 1}
		dirty, _, err := pr.RunStream(r, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := stream.Copy(csvio.NewWriter(io.Discard, schema), dirty); err != nil || n != rows {
			t.Fatalf("copied %d of %d tuples: %v", n, rows, err)
		}
	}) / rows
	t.Logf("%.4f allocs per tuple", perTuple)
	if perTuple > 0.05 {
		t.Fatalf("RunStream over a recycling reader allocates %.3f times per tuple, want at most 0.05", perTuple)
	}
}
