package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icewafl/internal/csvio"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// ckptSchema has a string key attribute so keyed polluters can be part of
// the checkpointed pipeline.
func ckptSchema() *stream.Schema {
	return stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "sensor", Kind: stream.KindString},
	)
}

func ckptSource(s *stream.Schema, n int) stream.Source {
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	return stream.NewGeneratorSource(s, n, func(i int) stream.Tuple {
		return stream.NewTuple(s, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Minute)),
			stream.Float(float64(i)),
			stream.Str(fmt.Sprintf("s%d", i%3)),
		})
	})
}

// ckptProcess builds a deliberately state-heavy pipeline: RNG-driven
// noise, a sticky frozen-value polluter, a Markov burst, and a keyed
// per-sensor polluter. Every run must construct it fresh from the same
// "configuration" (this function), mirroring how config.Build works.
func ckptProcess(seed int64) *Process {
	noise := NewStandard("noise",
		&GaussianNoise{Stddev: Const(3), Rand: rng.Derive(seed, "noise")},
		NewRandomConst(0.4, rng.Derive(seed, "noise-cond")), "v")
	freeze := NewStandard("freeze",
		NewFrozenValue(),
		NewSticky(NewRandomConst(0.05, rng.Derive(seed, "freeze-cond")), 30*time.Minute), "v")
	burst := NewStandard("burst", MissingValue{},
		NewMarkovCondition(0.08, 0.4, rng.Derive(seed, "markov")), "v")
	keyed := NewKeyedPolluter("per-sensor", "sensor", func(key string) Polluter {
		return NewStandard("key-noise",
			&UniformMultNoise{Lo: Const(0.9), Hi: Const(1.1), Rand: rng.Derive(seed, "key/"+key)},
			NewRandomConst(0.3, rng.Derive(seed, "key-cond/"+key)), "v")
	})
	return &Process{
		Pipelines: []*Pipeline{NewPipeline(noise, freeze, burst, keyed)},
		FirstID:   1,
	}
}

// renderRun serialises tuples as CSV and the log as JSON lines, the
// byte-exact artefacts the CLI would produce.
func renderRun(t *testing.T, schema *stream.Schema, tuples []stream.Tuple, entries []Entry) ([]byte, []byte) {
	t.Helper()
	var csvBuf bytes.Buffer
	if err := csvio.WriteAll(&csvBuf, schema, tuples); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	l := logOf(entries...)
	if err := l.WriteJSON(&logBuf); err != nil {
		t.Fatal(err)
	}
	return csvBuf.Bytes(), logBuf.Bytes()
}

// checkpointed starts a checkpointed Stream run, resuming from resume
// when it is non-nil.
func checkpointed(pr *Process, src stream.Source, resume *Checkpoint) (stream.Source, *Log, *Checkpointer, error) {
	run, err := pr.Stream(src, StreamSpec{Checkpoint: true, Resume: resume})
	if err != nil {
		return nil, nil, nil, err
	}
	return run.Source, run.Log, run.Checkpointer, nil
}

func drainN(t *testing.T, src stream.Source, n int) []stream.Tuple {
	t.Helper()
	out := make([]stream.Tuple, 0, n)
	for len(out) < n {
		tp, err := src.Next()
		if err != nil {
			t.Fatalf("drainN: %v", err)
		}
		out = append(out, tp)
	}
	return out
}

// TestCheckpointResumeDeterminism is the acceptance test of the
// checkpoint subsystem: a run killed mid-stream and resumed from its
// checkpoint must produce, concatenated, the byte-identical polluted
// stream and pollution log of an uninterrupted run.
func TestCheckpointResumeDeterminism(t *testing.T) {
	schema := ckptSchema()
	const n = 400
	const seed = 1234

	// Reference: uninterrupted run.
	refProc := ckptProcess(seed)
	refSrc, refLog, _, err := checkpointed(refProc, ckptSource(schema, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	refTuples, err := stream.Drain(refSrc)
	if err != nil {
		t.Fatal(err)
	}
	refCSV, refLogJSON := renderRun(t, schema, refTuples, entriesOf(refLog))

	for _, kill := range []int{1, 37, 200, 399} {
		t.Run(fmt.Sprintf("kill-at-%d", kill), func(t *testing.T) {
			// Phase 1: run until "killed" after `kill` emitted tuples.
			proc1 := ckptProcess(seed)
			src1, log1, ck1, err := checkpointed(proc1, ckptSource(schema, n), nil)
			if err != nil {
				t.Fatal(err)
			}
			head := drainN(t, src1, kill)
			ckpt, err := ck1.Capture()
			if err != nil {
				t.Fatal(err)
			}
			headLogLen := log1.Len()
			if ckpt.LogLen != headLogLen {
				t.Errorf("checkpoint LogLen = %d, log has %d", ckpt.LogLen, headLogLen)
			}
			if ckpt.TuplesOut != uint64(kill) {
				t.Errorf("checkpoint TuplesOut = %d, want %d", ckpt.TuplesOut, kill)
			}

			// Persist + reload the checkpoint (exercises the JSON codec).
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := WriteCheckpoint(path, ckpt); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}

			// Phase 2: a NEW process (no shared memory) resumes.
			proc2 := ckptProcess(seed)
			src2, log2, ck2, err := checkpointed(proc2, ckptSource(schema, n), loaded)
			if err != nil {
				t.Fatal(err)
			}
			tail, err := stream.Drain(src2)
			if err != nil {
				t.Fatal(err)
			}

			combined := append(append([]stream.Tuple{}, head...), tail...)
			entries := append(entriesOf(log1)[:headLogLen], entriesOf(log2)...)
			gotCSV, gotLogJSON := renderRun(t, schema, combined, entries)

			if !bytes.Equal(gotCSV, refCSV) {
				t.Errorf("resumed polluted stream differs from uninterrupted run (kill=%d): %d vs %d bytes",
					kill, len(gotCSV), len(refCSV))
			}
			if !bytes.Equal(gotLogJSON, refLogJSON) {
				t.Errorf("resumed pollution log differs from uninterrupted run (kill=%d)", kill)
			}

			// Final checkpoint totals must be cumulative across sessions.
			final, err := ck2.Capture()
			if err != nil {
				t.Fatal(err)
			}
			if final.TuplesOut != uint64(n) {
				t.Errorf("final TuplesOut = %d, want %d", final.TuplesOut, n)
			}
			if final.LogLen != refLog.Len() {
				t.Errorf("final LogLen = %d, want %d", final.LogLen, refLog.Len())
			}
		})
	}
}

// TestCheckpointRestoreRejectsMissingState guards the strictness of the
// restore path: a snapshot from a different configuration must fail, not
// silently half-restore.
func TestCheckpointRestoreRejectsMissingState(t *testing.T) {
	proc := ckptProcess(1)
	st, err := SnapshotPipeline(proc.Pipelines[0])
	if err != nil {
		t.Fatal(err)
	}
	other := &Process{Pipelines: []*Pipeline{NewPipeline(
		NewStandard("different", MissingValue{}, NewRandomConst(0.5, rng.Derive(1, "x")), "v"),
	)}}
	if err := RestorePipeline(other.Pipelines[0], st); err == nil {
		t.Error("restore into a different pipeline succeeded")
	}
	if err := RestorePipeline(proc.Pipelines[0], PipelineState{}); err == nil {
		t.Error("restore from an empty snapshot succeeded")
	}
}

func TestCheckpointVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	c := &Checkpoint{Version: CheckpointVersion + 1, Pipeline: PipelineState{}}
	// Write raw to bypass version stamping.
	cGood := &Checkpoint{Version: CheckpointVersion, Pipeline: PipelineState{}}
	if err := WriteCheckpoint(path, cGood); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if err := WriteCheckpoint(path, c); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Error("version mismatch accepted")
	}
	proc := ckptProcess(1)
	if _, _, _, err := checkpointed(proc, ckptSource(ckptSchema(), 1), c); err == nil {
		t.Error("resume with wrong version accepted")
	}
}

// panicPolluter panics on selected tuple IDs — the poisoned-tuple half of
// the chaos test.
type panicPolluter struct {
	every uint64
}

func (p *panicPolluter) Name() string { return "panicky" }

func (p *panicPolluter) Pollute(t *stream.Tuple, tau time.Time, log *Log) {
	if log != nil {
		log.Record(Entry{TupleID: t.ID, Polluter: p.Name(), Error: "pre-panic", Attrs: []string{"v"}})
	}
	if p.every > 0 && t.ID%p.every == 0 {
		panic(fmt.Sprintf("poisoned tuple %d", t.ID))
	}
}

// TestChaosPipelineQuarantinesPoisonedTuples is the chaos acceptance
// test: a panicking operator, run under quarantine, completes and
// quarantines exactly the poisoned tuples.
func TestChaosPipelineQuarantinesPoisonedTuples(t *testing.T) {
	schema := ckptSchema()
	const n = 300

	proc := ckptProcess(42)
	proc.Fault = FaultPolicy{Quarantine: true}
	proc.Pipelines[0].Polluters = append(proc.Pipelines[0].Polluters, &panicPolluter{every: 50})

	res, err := proc.RunContext(context.Background(), ckptSource(schema, n))
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	// IDs 50, 100, ..., 300 are poisoned: 6 tuples.
	wantPoisoned := 6
	if len(res.Quarantined) != wantPoisoned {
		t.Fatalf("quarantined %d tuples, want %d", len(res.Quarantined), wantPoisoned)
	}
	for _, d := range res.Quarantined {
		if d.TupleID%50 != 0 {
			t.Errorf("non-poisoned tuple %d quarantined", d.TupleID)
		}
		if !strings.Contains(d.Cause, "poisoned tuple") {
			t.Errorf("cause %q does not name the panic", d.Cause)
		}
		if d.Stage != "pollute" {
			t.Errorf("stage = %q", d.Stage)
		}
	}
	if len(res.Polluted)+len(res.Quarantined) != n {
		t.Errorf("polluted %d + quarantined %d != %d", len(res.Polluted), len(res.Quarantined), n)
	}
	// The quarantined tuples' partial log entries must have been rolled
	// back: no "pre-panic" entry for a poisoned ID survives.
	for _, e := range entriesOf(res.Log) {
		if e.Error == "pre-panic" && e.TupleID%50 == 0 {
			t.Errorf("log kept entry for quarantined tuple %d", e.TupleID)
		}
	}
}

// TestQuarantineCapAborts: MaxQuarantined bounds silent data loss.
func TestQuarantineCapAborts(t *testing.T) {
	schema := ckptSchema()
	proc := &Process{
		Pipelines: []*Pipeline{NewPipeline(&panicPolluter{every: 2})},
		FirstID:   1,
		Fault:     FaultPolicy{Quarantine: true, MaxQuarantined: 3},
	}
	_, err := proc.Run(ckptSource(schema, 100))
	if err == nil {
		t.Fatal("run with 50 poisoned tuples succeeded despite cap of 3")
	}
}

// TestStreamingQuarantine: the streaming runner path also diverts
// poisoned tuples instead of failing.
func TestStreamingQuarantine(t *testing.T) {
	schema := ckptSchema()
	proc := &Process{
		Pipelines: []*Pipeline{NewPipeline(&panicPolluter{every: 10})},
		FirstID:   1,
		Fault:     FaultPolicy{Quarantine: true},
	}
	src, _, ck, err := checkpointed(proc, ckptSource(schema, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := stream.Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 90 || ck.DeadLetters().Len() != 10 {
		t.Errorf("delivered %d, quarantined %d; want 90/10", len(tuples), ck.DeadLetters().Len())
	}
}

// TestCheckpointedQuarantineCountsInput: quarantined malformed input rows
// advance the input position so resume skips them correctly.
func TestCheckpointedQuarantineCountsInput(t *testing.T) {
	schema := ckptSchema()
	// CSV with two malformed rows among ten good ones.
	var b strings.Builder
	b.WriteString("ts,v,sensor\n")
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		if i == 3 || i == 7 {
			b.WriteString("not-a-time,oops,s0\n")
			continue
		}
		fmt.Fprintf(&b, "%s,%d,s%d\n", base.Add(time.Duration(i)*time.Minute).Format(time.RFC3339), i, i%3)
	}
	mkReader := func() stream.Source {
		r, err := csvio.NewReader(strings.NewReader(b.String()), schema)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	proc1 := ckptProcess(7)
	proc1.Fault = FaultPolicy{Quarantine: true}
	src1, _, ck1, err := checkpointed(proc1, mkReader(), nil)
	if err != nil {
		t.Fatal(err)
	}
	head := drainN(t, src1, 5) // past the first malformed row
	ckpt, err := ck1.Capture()
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.TuplesIn != 6 { // 5 good + 1 malformed
		t.Errorf("TuplesIn = %d, want 6", ckpt.TuplesIn)
	}
	if ckpt.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", ckpt.Quarantined)
	}

	proc2 := ckptProcess(7)
	proc2.Fault = FaultPolicy{Quarantine: true}
	src2, _, ck2, err := checkpointed(proc2, mkReader(), ckpt)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := stream.Drain(src2)
	if err != nil {
		t.Fatal(err)
	}
	if len(head)+len(tail) != 10 {
		t.Errorf("delivered %d tuples total, want 10", len(head)+len(tail))
	}
	final, err := ck2.Capture()
	if err != nil {
		t.Fatal(err)
	}
	if final.TuplesIn != 12 || final.Quarantined != 2 {
		t.Errorf("final TuplesIn=%d Quarantined=%d, want 12/2", final.TuplesIn, final.Quarantined)
	}
	// IDs must be contiguous across the resume boundary.
	var last uint64
	for i, tp := range append(head, tail...) {
		if tp.ID != uint64(i)+1 {
			t.Fatalf("tuple %d has ID %d (last %d): numbering broke at resume", i, tp.ID, last)
		}
		last = tp.ID
	}
}

// TestKeyedPolluterCheckpointRebuildsInstances: per-key state survives a
// checkpoint even for keys the resumed process has not seen yet.
func TestKeyedPolluterCheckpointRebuildsInstances(t *testing.T) {
	mk := func() *KeyedPolluter {
		return NewKeyedPolluter("keyed", "sensor", func(key string) Polluter {
			return NewStandard("freeze", NewFrozenValue(),
				NewSticky(NewRandomConst(0.5, rng.Derive(5, "k/"+key)), time.Hour), "v")
		})
	}
	schema := ckptSchema()
	src := ckptSource(schema, 50)
	orig := mk()
	pipe := NewPipeline(orig)
	tau := time.Now()
	for i := 0; i < 50; i++ {
		tp, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		pipe.Apply(&tp, tau, nil)
	}
	if len(orig.Keys()) != 3 {
		t.Fatalf("keys = %v", orig.Keys())
	}
	st, err := SnapshotPipeline(pipe)
	if err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := RestorePipeline(NewPipeline(restored), st); err != nil {
		t.Fatal(err)
	}
	if len(restored.Keys()) != 3 {
		t.Errorf("restored keys = %v, want 3 keys", restored.Keys())
	}
}

// TestCheckpointValueTimeRoundTrip pins that a time cell survives the
// checkpoint's value codec with the same bits — instant, fraction and
// offset — whatever its zone, over the years RFC 3339 can write.
func TestCheckpointValueTimeRoundTrip(t *testing.T) {
	zones := []*time.Location{time.UTC, time.FixedZone("", 8*3600), time.FixedZone("", -(3*3600 + 1800)), time.Local}
	times := []time.Time{
		{},
		time.Date(1500, 7, 14, 9, 30, 15, 250, time.UTC),
		time.Unix(-1, 999_999_999),
		time.Date(2300, 3, 1, 12, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
	}
	for _, loc := range zones {
		for _, ts := range times {
			v := stream.Time(ts.In(loc))
			back, err := decodeValue(encodeValue(v))
			if err != nil || back != v {
				t.Errorf("%v: decodeValue(encodeValue) = %v, %v", ts.In(loc), back, err)
			}
		}
	}
}

// TestCheckpointResumeKeepsFrozenTimeOffset: a time cell frozen before
// the checkpoint renders after the resume as the uninterrupted run
// renders it, in its own offset and with its fraction.
func TestCheckpointResumeKeepsFrozenTimeOffset(t *testing.T) {
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "seen", Kind: stream.KindTime},
	)
	var in strings.Builder
	in.WriteString("ts,seen\n")
	base := time.Date(2021, 6, 1, 12, 0, 0, 500_000_000, time.FixedZone("", 5*3600+1800))
	for i := range 20 {
		fmt.Fprintf(&in, "%s,%s\n", base.Add(time.Duration(i)*time.Minute).UTC().Format(time.RFC3339),
			base.Add(time.Duration(i)*time.Second).Format(time.RFC3339Nano))
	}
	process := func() *Process {
		return &Process{Pipelines: []*Pipeline{NewPipeline(NewStandard("freeze", NewFrozenValue(), Always{}, "seen"))}, FirstID: 1}
	}
	source := func() stream.Source {
		r, err := csvio.NewReader(strings.NewReader(in.String()), schema)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := runLent(t, process(), source(), StreamSpec{Checkpoint: true})
	if n := strings.Count(want.dirty, ",2021-06-01T12:00:00.5+05:30\n"); n != 20 {
		t.Fatalf("the uninterrupted run froze %d of 20 cells at their first value:\n%s", n, want.dirty)
	}

	var dirty bytes.Buffer
	w := csvio.NewWriter(&dirty, schema)
	run1, err := process().Stream(source(), StreamSpec{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	drainLent(t, w, run1.Source, 5)
	ck, err := run1.Checkpointer.Capture()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := process().Stream(source(), StreamSpec{Resume: loaded})
	if err != nil {
		t.Fatal(err)
	}
	drainLent(t, w, run2.Source, -1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := render(t, &dirty, append(entriesOf(run1.Log), entriesOf(run2.Log)...), nil)
	assertSameRun(t, got, want)
}
