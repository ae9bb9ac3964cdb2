package netstream

import (
	"strings"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// keyedTestProcess builds a fully keyed pipeline: every per-key
// instance derives its randomness from (seed, key), the precondition
// for byte-identical sharded execution.
func keyedTestProcess(seed int64) *core.Process {
	perKey := func(key string) core.Polluter {
		return core.NewComposite("per-key", nil,
			core.NewStandard("noise",
				&core.GaussianNoise{Stddev: core.Const(2), Rand: rng.Derive(seed, "noise/"+key)},
				core.NewRandomConst(0.4, rng.Derive(seed, "noise-cond/"+key)), "v"),
			core.NewStandard("freeze",
				core.NewFrozenValue(),
				core.NewSticky(core.NewRandomConst(0.05, rng.Derive(seed, "sticky/"+key)), 30*time.Minute), "v"),
		)
	}
	return &core.Process{
		Pipelines: []*core.Pipeline{core.NewPipeline(core.NewKeyedPolluter("keyed", "sensor", perKey))},
		FirstID:   1,
	}
}

// TestServerSharded: a sharded server session must stream exactly what
// the in-process sequential runner produces on every channel — the
// strict merge order makes sharding invisible on the wire.
func TestServerSharded(t *testing.T) {
	const seed, n = 777, 600
	schema := wireSchema(t)

	// Sequential in-process ground truth.
	proc := keyedTestProcess(seed)
	var refClean []stream.Tuple
	proc.CleanTap = func(tp stream.Tuple) { refClean = append(refClean, tp.Clone()) }
	src, refLog, err := proc.RunStream(testSource(schema, n), 1)
	if err != nil {
		t.Fatal(err)
	}
	refDirty, err := stream.Drain(src)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Schema: schema,
		Proc:   keyedTestProcess(seed),
		NewSource: func() (stream.Source, error) {
			return testSource(schema, n), nil
		},
		Reorder:  1,
		Buffer:   64,
		Replay:   1 << 16,
		Shards:   4,
		ShardKey: "sensor",
	}
	_, tcpAddr, _ := startServer(t, cfg)

	dirtyC, err := Dial(tcpAddr, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	defer dirtyC.Stop()
	cleanC, err := Dial(tcpAddr, ChannelClean)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanC.Stop()
	sameTuples(t, "dirty", drainClient(t, dirtyC), refDirty)
	sameTuples(t, "clean", drainClient(t, cleanC), refClean)

	entries := readLogChannel(t, tcpAddr)
	if len(entries) != refLog.Len() {
		t.Fatalf("log: got %d entries, want %d", len(entries), refLog.Len())
	}
	for i := range entries {
		if entries[i].TupleID != refLog.At(i).TupleID || entries[i].Polluter != refLog.At(i).Polluter {
			t.Fatalf("log entry %d differs: got %+v, want %+v", i, entries[i], *refLog.At(i))
		}
	}
}

// TestServerSurfacesShapeRules: the execution-shape rules are
// core.StreamSpec's (see its shape-matrix test); newServer only has to
// ask it — with the schema — at construction, not fail at runtime.
func TestServerSurfacesShapeRules(t *testing.T) {
	cfg := serverConfig(t, 1, 10)
	cfg.Shards, cfg.ShardKey = 4, "nope"
	_, err := newServer(cfg, "", nil, t.Logf)
	if err == nil || !strings.Contains(err.Error(), `netstream: core: shard key attribute "nope" not in schema`) {
		t.Fatalf("newServer = %v, want core's shard-key verdict", err)
	}
}
