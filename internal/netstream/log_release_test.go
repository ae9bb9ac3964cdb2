package netstream

import (
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/stream"
)

// logProbe is a polluter that records exactly one log entry per tuple
// and, being handed the run's log on every call, watches what the
// served session retains. It runs on the pipeline goroutine, the same
// one that flushes the log and captures checkpoints between Next calls,
// so the newest checkpoint in the session log it reads is the one
// appended after the previous tuple.
type logProbe struct {
	t     *testing.T
	every int
	wal   *WAL // the session log, set before the first tuple

	recorded    int // entries recorded so far, released or not
	maxRetained int
	checkpoints int
}

func (p *logProbe) Name() string { return "probe" }

func (p *logProbe) Pollute(t *stream.Tuple, tau time.Time, log *core.Log) {
	if p.recorded > 0 && p.recorded%p.every == 0 {
		ck, err := p.wal.Checkpoint()
		if err == nil && ck == nil {
			p.t.Errorf("after %d tuples: no checkpoint in the session log", p.recorded)
		} else if err != nil {
			p.t.Errorf("after %d tuples: %v", p.recorded, err)
		} else {
			p.checkpoints++
			if ck.LogLen != p.recorded {
				p.t.Errorf("checkpoint after %d tuples: LogLen = %d, want every entry recorded so far", p.recorded, ck.LogLen)
			}
			if got := ck.Offsets["net.log"]; got != int64(p.recorded) {
				p.t.Errorf("checkpoint after %d tuples: net.log offset = %d", p.recorded, got)
			}
		}
	}
	log.Record(core.Entry{TupleID: t.ID, EventTime: tau, Polluter: "probe", Error: "probe"})
	p.recorded++
	if n := log.Len(); n > p.maxRetained {
		p.maxRetained = n
	}
}

// TestServerReleasesPublishedLogEntries: a served session publishes its
// pollution log as it goes, so it must not also retain it — over an
// unbounded source the log would otherwise grow without bound. Released
// entries still count towards every checkpoint's LogLen.
func TestServerReleasesPublishedLogEntries(t *testing.T) {
	const n, every = 2000, 64
	dir := t.TempDir()
	probe := &logProbe{t: t, every: every}
	schema := wireSchema(t)
	gate := make(chan struct{})
	srv, _, _ := startServer(t, Config{
		Proc: &core.Process{Pipelines: []*core.Pipeline{core.NewPipeline(probe)}, FirstID: 1},
		NewSource: func() (stream.Source, error) {
			return &gatedSource{Source: testSource(schema, n), gate: gate}, nil
		},
		Reorder:         1,
		Buffer:          64,
		StateDir:        dir,
		CheckpointEvery: every,
	})
	probe.wal = srv.Hub().WAL(ChannelLog)
	close(gate)
	select {
	case <-srv.PipelineDone():
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline did not finish")
	}
	if err := srv.PipelineErr(); err != nil {
		t.Fatal(err)
	}
	if probe.recorded != n || probe.checkpoints != (n-1)/every {
		t.Fatalf("probe saw %d tuples and %d checkpoints, want %d and %d", probe.recorded, probe.checkpoints, n, (n-1)/every)
	}
	if got := srv.Hub().Seq(ChannelLog); got != n+1 {
		t.Fatalf("log channel carried %d frames, want %d entries + eof", got, n)
	}
	// At reorder 1 the log is flushed after every emitted tuple, and a
	// tuple records one entry here: one flush interval is one entry.
	if probe.maxRetained > 1 {
		t.Fatalf("session retained up to %d log entries, want at most one flush interval (1)", probe.maxRetained)
	}
}
