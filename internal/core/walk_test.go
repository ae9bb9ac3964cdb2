package core

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"icewafl/internal/rng"
	"icewafl/internal/stream"
)

// customErr is a user-defined error function carrying per-run state: it
// takes part in checkpoints and resets only through the Stateful and
// Resettable interfaces, the way a component outside this package must.
type customErr struct{ calls int }

func (e *customErr) Apply(*stream.Tuple, []string, time.Time) { e.calls++ }
func (*customErr) Kind() string                               { return "custom" }
func (e *customErr) SnapshotState() (json.RawMessage, error)  { return json.Marshal(e.calls) }
func (e *customErr) RestoreState(raw json.RawMessage) error   { return json.Unmarshal(raw, &e.calls) }
func (e *customErr) ResetRunState()                           { e.calls = 0 }

// everyStatefulPipeline holds every component the pipeline walk knows:
// each owner of an RNG stream, each carrier of per-run state, each node
// with children, and one custom component.
func everyStatefulPipeline(seed int64, log *Log) *Pipeline {
	r := func(label string) *rng.Stream { return rng.Derive(seed, label) }
	st := NewStreamState(8)
	return NewPipeline(
		NewObserver(st),
		NewStandard("logic", MissingValue{},
			And{
				NewRandomConst(0.9, r("and")),
				Or{NewRandomConst(0.5, r("or")), Never{}},
				Not{Inner: NewRandomConst(0.1, r("not"))},
			}, "v"),
		NewStandard("hold", &StringTypo{Rand: r("typo")},
			NewSticky(NewRandomConst(0.2, r("sticky")), 10*time.Minute), "label"),
		NewStandard("burst", &customErr{},
			NewMarkovCondition(0.2, 0.3, r("markov")), "v"),
		NewStandard("capped", &UniformMultNoise{Lo: Const(0.9), Hi: Const(1.1), Rand: r("mult")},
			NewBudgetCondition(NewRandomConst(0.8, r("budget")), 2, 30*time.Minute), "v"),
		NewStandard("follow", &IncorrectCategory{Categories: []string{"s0", "s1", "s2"}, Rand: r("cat")},
			&CascadeCondition{Log: log, Upstream: "burst"}, "label"),
		NewStandard("spike",
			Chain{
				&GaussianNoise{Stddev: Const(1), Rand: r("gauss")},
				NewFrozenValue(),
				&Outlier{Magnitude: Const(4), Rand: r("outlier")},
			},
			DeviationCondition{State: st, Attr: "v", Sigmas: 1, MinCount: 4}, "v"),
		NewChoice("pick", NewRandomConst(0.7, r("pick-cond")), r("pick"),
			NewStandard("a", MissingValue{}, nil, "v"),
			NewStandard("b", &GaussianNoise{Stddev: Const(2), Rand: r("b")}, nil, "v")),
		NewKeyedPolluter("per-sensor", "sensor", func(key string) Polluter {
			return NewStandard("key-noise",
				&GaussianNoise{Stddev: Const(1), Rand: r("key/" + key)},
				NewMarkovCondition(0.3, 0.3, r("key-markov/"+key)), "v")
		}),
	)
}

// applyN drives the pipeline over n tuples alternating between two
// sensor keys.
func applyN(p *Pipeline, log *Log, n int) {
	s := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "sensor", Kind: stream.KindString},
		stream.Field{Name: "label", Kind: stream.KindString},
	)
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	keys := [2]string{"s0", "s1"}
	for i := 0; i < n; i++ {
		tau := base.Add(time.Duration(i) * time.Minute)
		t := stream.NewTuple(s, []stream.Value{
			stream.Time(tau), stream.Float(float64(i % 7)), stream.Str(keys[i%2]), stream.Str("s2"),
		})
		t.ID = uint64(i + 1)
		p.Apply(&t, tau, log)
	}
}

// TestSnapshotPathsStable pins the checkpoint's component paths. They are
// a persisted format: a -state-dir or -checkpoint file written by an
// older build must restore under this one, so the list below changes
// only together with a format version.
func TestSnapshotPathsStable(t *testing.T) {
	log := NewLog()
	p := everyStatefulPipeline(7, log)
	applyN(p, log, 40)
	st, err := SnapshotPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(st))
	for k := range st {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"/0:state-observer/state",
		"/1:logic/cond/0/rand",
		"/1:logic/cond/1/0/rand",
		"/1:logic/cond/2/not/rand",
		"/2:hold/cond",
		"/2:hold/cond/trigger/rand",
		"/2:hold/err/rand",
		"/3:burst/cond",
		"/3:burst/cond/rand",
		"/3:burst/err",
		"/4:capped/cond",
		"/4:capped/cond/inner/rand",
		"/4:capped/err/rand",
		"/5:follow/cond",
		"/5:follow/err/rand",
		"/6:spike/cond/state",
		"/6:spike/err/0/rand",
		"/6:spike/err/1",
		"/6:spike/err/2/rand",
		"/7:pick/1:b/err/rand",
		"/7:pick/cond/rand",
		"/7:pick/rand",
		"/8:per-sensor/key=s0/cond",
		"/8:per-sensor/key=s0/cond/rand",
		"/8:per-sensor/key=s0/err/rand",
		"/8:per-sensor/key=s1/cond",
		"/8:per-sensor/key=s1/cond/rand",
		"/8:per-sensor/key=s1/err/rand",
		"/8:per-sensor/keys",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot paths moved:\n got %q\nwant %q", got, want)
	}
}

// TestResetEqualsFresh ties the three visitors of the pipeline walk
// together: after a run, ResetPipeline must leave every component that
// SnapshotPipeline records exactly as a fresh compile leaves it — a
// component snapshotted but never reset fails here.
func TestResetEqualsFresh(t *testing.T) {
	log := NewLog()
	p := everyStatefulPipeline(7, log)
	applyN(p, log, 40)
	ran, err := SnapshotPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	ResetPipeline(p)
	reset, err := SnapshotPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := SnapshotPipeline(everyStatefulPipeline(7, NewLog()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reset, fresh) {
		for k, v := range fresh {
			if string(reset[k]) != string(v) {
				t.Errorf("%s: after reset %s, fresh %s", k, reset[k], v)
			}
		}
		t.Fatalf("reset pipeline has %d paths, fresh has %d", len(reset), len(fresh))
	}
	// The run must have moved every component's state, or the comparison
	// above proves nothing about that component's reset.
	for k, v := range fresh {
		if string(ran[k]) == string(v) {
			t.Errorf("%s unchanged by the run: %s", k, v)
		}
	}

	// Restore is the third visitor: the run's snapshot, restored into a
	// fresh compile, snapshots back to itself.
	restored := everyStatefulPipeline(7, NewLog())
	if err := RestorePipeline(restored, ran); err != nil {
		t.Fatal(err)
	}
	again, err := SnapshotPipeline(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, ran) {
		t.Error("snapshot → restore → snapshot is not the identity")
	}
}
