package config

import (
	"math"
	"strings"
	"testing"
	"time"

	"icewafl/internal/stream"
)

var schema = stream.MustSchema("ts",
	stream.Field{Name: "ts", Kind: stream.KindTime},
	stream.Field{Name: "v", Kind: stream.KindFloat},
	stream.Field{Name: "cat", Kind: stream.KindString},
)

func src(n int) stream.Source {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	return stream.NewGeneratorSource(schema, n, func(i int) stream.Tuple {
		return stream.NewTuple(schema, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Hour)),
			stream.Float(float64(i)),
			stream.Str("a"),
		})
	})
}

func runConfig(t *testing.T, doc string, n int) ([]stream.Tuple, []stream.Tuple) {
	t.Helper()
	proc, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := proc.Run(src(n))
	if err != nil {
		t.Fatal(err)
	}
	return res.Clean, res.Polluted
}

func TestSimpleStandardPolluter(t *testing.T) {
	doc := `{
	  "seed": 1,
	  "pipelines": [{"polluters": [{
	    "name": "null-v",
	    "error": {"type": "missing_value"},
	    "condition": {"type": "compare", "attr": "v", "op": ">=", "value": 5},
	    "attrs": ["v"]
	  }]}]
	}`
	_, polluted := runConfig(t, doc, 10)
	nulls := 0
	for _, tp := range polluted {
		if tp.MustGet("v").IsNull() {
			nulls++
		}
	}
	if nulls != 5 {
		t.Fatalf("nulls %d", nulls)
	}
}

func TestCompositeChoiceConfig(t *testing.T) {
	doc := `{
	  "seed": 2,
	  "pipelines": [{"polluters": [{
	    "name": "either",
	    "type": "composite",
	    "mode": "choice",
	    "children": [
	      {"name": "up", "error": {"type": "offset", "delta": 1000}, "attrs": ["v"]},
	      {"name": "down", "error": {"type": "offset", "delta": -1000}, "attrs": ["v"]}
	    ]
	  }]}]
	}`
	_, polluted := runConfig(t, doc, 100)
	up, down := 0, 0
	for i, tp := range polluted {
		switch tp.MustGet("v").MustFloat() {
		case float64(i) + 1000:
			up++
		case float64(i) - 1000:
			down++
		default:
			t.Fatalf("tuple %d polluted by both or neither", i)
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("choice never alternated: up=%d down=%d", up, down)
	}
}

func TestTemporalParamConfig(t *testing.T) {
	doc := `{
	  "seed": 3,
	  "pipelines": [{"polluters": [{
	    "name": "ramped-noise",
	    "error": {"type": "gaussian_noise",
	              "stddev": {"type": "linear",
	                         "from": "2020-01-01T00:00:00Z",
	                         "to": "2020-01-05T00:00:00Z",
	                         "v0": 0, "v1": 10}},
	    "attrs": ["v"]
	  }]}]
	}`
	clean, polluted := runConfig(t, doc, 96)
	// First tuple: stddev 0, so unchanged. Late tuples: almost surely changed.
	if !polluted[0].MustGet("v").Equal(clean[0].MustGet("v")) {
		t.Fatal("noise applied at zero stddev")
	}
	changed := 0
	for i := 48; i < 96; i++ {
		if !polluted[i].MustGet("v").Equal(clean[i].MustGet("v")) {
			changed++
		}
	}
	if changed < 40 {
		t.Fatalf("late-stream noise too rare: %d/48", changed)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	doc := `{
	  "seed": 7,
	  "pipelines": [{"polluters": [{
	    "name": "noise",
	    "error": {"type": "gaussian_noise", "stddev": 1},
	    "condition": {"type": "random", "p": 0.5},
	    "attrs": ["v"]
	  }]}]
	}`
	_, a := runConfig(t, doc, 200)
	_, b := runConfig(t, doc, 200)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("same config diverged at %d", i)
		}
	}
	docOther := strings.Replace(doc, `"seed": 7`, `"seed": 8`, 1)
	_, c := runConfig(t, docOther, 200)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical pollution")
	}
}

func TestSoftwareUpdateShapedConfig(t *testing.T) {
	// The Figure 5 shape expressed in JSON: nested composites.
	doc := `{
	  "seed": 4,
	  "pipelines": [{"polluters": [{
	    "name": "software update",
	    "type": "composite",
	    "condition": {"type": "time_interval", "from": "2020-01-02T00:00:00Z"},
	    "children": [
	      {"name": "scale", "error": {"type": "scale_by_factor", "factor": 100}, "attrs": ["v"]},
	      {"name": "bpm-fix", "type": "composite",
	       "condition": {"type": "compare", "attr": "v", "op": ">", "value": 3000},
	       "children": [
	         {"name": "zero", "error": {"type": "set_constant", "value": 0}, "attrs": ["v"]}
	       ]}
	    ]
	  }]}]
	}`
	clean, polluted := runConfig(t, doc, 72)
	_ = clean
	for i, tp := range polluted {
		v := tp.MustGet("v").MustFloat()
		switch {
		case i < 24 && v != float64(i):
			t.Fatalf("tuple %d polluted before gate: %g", i, v)
		case i >= 24 && float64(i)*100 > 3000 && v != 0:
			t.Fatalf("tuple %d should be zeroed: %g", i, v)
		case i >= 24 && float64(i)*100 <= 3000 && v != float64(i)*100:
			t.Fatalf("tuple %d should be scaled: %g", i, v)
		}
	}
}

func TestAllConditionTypesParse(t *testing.T) {
	doc := `{
	  "seed": 5,
	  "pipelines": [{"polluters": [{
	    "name": "p",
	    "error": {"type": "missing_value"},
	    "condition": {"type": "and", "children": [
	      {"type": "always"},
	      {"type": "not", "child": {"type": "never"}},
	      {"type": "or", "children": [
	        {"type": "time_of_day", "from_hour": 0, "to_hour": 24},
	        {"type": "random", "p": 0.1}
	      ]},
	      {"type": "random", "p_param": {"type": "sinusoid_daily", "amp": 0.0, "offset": 1.0}}
	    ]},
	    "attrs": ["v"]
	  }]}]
	}`
	_, polluted := runConfig(t, doc, 10)
	for i, tp := range polluted {
		if !tp.MustGet("v").IsNull() {
			t.Fatalf("tuple %d not polluted under always-true composite", i)
		}
	}
}

func TestAllErrorTypesParse(t *testing.T) {
	errors := []string{
		`{"type": "gaussian_noise", "stddev": 1}`,
		`{"type": "uniform_mult_noise", "lo": 0.1, "hi": 0.2}`,
		`{"type": "scale_by_factor", "factor": 2}`,
		`{"type": "missing_value"}`,
		`{"type": "set_constant", "value": 42}`,
		`{"type": "incorrect_category", "categories": ["a", "b"]}`,
		`{"type": "round_precision", "digits": 2}`,
		`{"type": "outlier", "magnitude": 5}`,
		`{"type": "string_typo"}`,
		`{"type": "swap_attributes"}`,
		`{"type": "offset", "delta": 1}`,
		`{"type": "clamp", "clamp_lo": 0, "clamp_hi": 1}`,
		`{"type": "delayed_tuple", "delay": "1h"}`,
		`{"type": "frozen_value"}`,
		`{"type": "timestamp_shift", "offset": "-30m"}`,
		`{"type": "dropped_tuple"}`,
		`{"type": "hold_and_release", "release_at": "2020-01-02T00:00:00Z"}`,
		`{"type": "chain", "errors": [{"type": "offset", "delta": 1}, {"type": "clamp", "clamp_lo": 0, "clamp_hi": 10}]}`,
	}
	for _, e := range errors {
		doc := `{"seed": 1, "pipelines": [{"polluters": [{
			"name": "p", "error": ` + e + `, "attrs": ["v"]}]}]}`
		if _, err := Load(strings.NewReader(doc)); err != nil {
			t.Errorf("error spec %s rejected: %v", e, err)
		}
	}
}

func TestPatternParamConfig(t *testing.T) {
	doc := `{
	  "seed": 6,
	  "pipelines": [{"polluters": [{
	    "name": "drift",
	    "error": {"type": "offset",
	              "delta": {"type": "pattern", "max": -5,
	                        "pattern": {"type": "abrupt", "at": "2020-01-02T00:00:00Z"}}},
	    "attrs": ["v"]
	  }]}]
	}`
	clean, polluted := runConfig(t, doc, 48)
	for i := range polluted {
		want := clean[i].MustGet("v").MustFloat()
		if i >= 24 {
			want -= 5
		}
		if got := polluted[i].MustGet("v").MustFloat(); got != want {
			t.Fatalf("tuple %d: %g, want %g", i, got, want)
		}
	}
}

func TestRouting(t *testing.T) {
	doc := `{
	  "seed": 9,
	  "route": "round_robin",
	  "pipelines": [
	    {"polluters": [{"name": "a", "error": {"type": "offset", "delta": 1000}, "attrs": ["v"]}]},
	    {"polluters": []}
	  ]
	}`
	_, polluted := runConfig(t, doc, 10)
	if len(polluted) != 10 {
		t.Fatalf("%d tuples", len(polluted))
	}
	hit := 0
	for _, tp := range polluted {
		if tp.MustGet("v").MustFloat() >= 1000 {
			hit++
		}
	}
	if hit != 5 {
		t.Fatalf("round robin polluted %d", hit)
	}
}

func TestConfigErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{"seed": 1, "pipelines": []}`,
		`{"seed": 1, "unknown_field": true, "pipelines": [{"polluters": []}]}`,
		`{"seed": 1, "route": "bogus", "pipelines": [{"polluters": []}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "", "error": {"type": "missing_value"}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p"}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "nope"}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}, "condition": {"type": "nope"}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}, "condition": {"type": "random"}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}, "condition": {"type": "compare", "attr": "v", "op": "~", "value": 1}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}, "condition": {"type": "time_interval", "from": "not-a-time"}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "gaussian_noise"}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "delayed_tuple", "delay": "xyz"}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "type": "composite", "error": {"type": "missing_value"}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "type": "composite", "mode": "weighted", "weights": [1], "children": []}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "type": "bogus"}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}, "children": [{"name": "c", "error": {"type": "missing_value"}}]}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "incorrect_category"}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "chain"}}]}]}`,
	}
	for i, doc := range bad {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("bad document %d accepted", i)
		}
	}
	// There is no "parallel" key: a run pollutes its sub-streams on one
	// goroutine, and the parse error names the key.
	_, err := Load(strings.NewReader(`{"seed": 1, "parallel": true, "pipelines": [{"polluters": []}]}`))
	if err == nil || !strings.Contains(err.Error(), `"parallel"`) {
		t.Errorf(`{"parallel": true}: err = %v, want an error naming the key`, err)
	}
}

// TestConfigRejectsSilentlyWrongParams pins the parameter ranges whose
// violation would compile into a polluter that quietly does something
// other than what the document says, and that each range's edges are
// accepted.
func TestConfigRejectsSilentlyWrongParams(t *testing.T) {
	polluter := func(body string) string {
		return `{"seed": 1, "pipelines": [{"polluters": [{"name": "p", ` + body + `}]}]}`
	}
	cond := func(c string) string {
		return polluter(`"error": {"type": "missing_value"}, "condition": ` + c)
	}
	weighted := func(weights string) string {
		return polluter(`"type": "composite", "mode": "weighted", "weights": ` + weights + `, "children": [
			{"name": "a", "error": {"type": "missing_value"}}, {"name": "b", "error": {"type": "missing_value"}}]`)
	}
	clamp := func(lo, hi string) string {
		return polluter(`"error": {"type": "clamp", "clamp_lo": ` + lo + `, "clamp_hi": ` + hi + `}`)
	}
	serveDoc := func(keys string) string {
		return `{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}}]}], "serve": {` + keys + `}}`
	}
	faultDoc := func(keys string) string {
		return `{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}}]}], "fault_policy": {` + keys + `}}`
	}
	for _, tc := range []struct{ name, doc, want string }{
		{"from_hour above 23", cond(`{"type": "time_of_day", "from_hour": 24, "to_hour": 3}`),
			"config: time_of_day at pipeline[0]/0:p/cond: from_hour 24 outside 0-23"},
		{"negative from_hour", cond(`{"type": "time_of_day", "from_hour": -1, "to_hour": 3}`),
			"config: time_of_day at pipeline[0]/0:p/cond: from_hour -1 outside 0-23"},
		{"to_hour above 24", cond(`{"type": "time_of_day", "from_hour": 1, "to_hour": 25}`),
			"config: time_of_day at pipeline[0]/0:p/cond: to_hour 25 outside 0-24"},
		{"equal hours", cond(`{"type": "time_of_day", "from_hour": 5, "to_hour": 5}`),
			"config: time_of_day at pipeline[0]/0:p/cond: from_hour == to_hour (5) never fires"},
		{"hours omitted", cond(`{"type": "time_of_day"}`),
			"config: time_of_day at pipeline[0]/0:p/cond: from_hour == to_hour (0) never fires"},
		{"p above 1", cond(`{"type": "random", "p": 20}`),
			"config: random at pipeline[0]/0:p/cond: p 20 outside [0, 1]"},
		{"negative p", cond(`{"type": "random", "p": -0.1}`),
			"config: random at pipeline[0]/0:p/cond: p -0.1 outside [0, 1]"},
		{"negative weight", weighted(`[1, -1]`),
			"config: weighted at pipeline[0]/0:p: weight -1 is not a finite non-negative number"},
		{"all weights zero", weighted(`[0, 0]`),
			"config: weighted at pipeline[0]/0:p: all weights are zero"},
		{"clamp bounds inverted", clamp("5", "1"),
			"config: clamp at pipeline[0]/0:p/error: clamp_lo 5 > clamp_hi 1"},
		{"zero hold", cond(`{"type": "sticky", "hold": "0s", "child": {"type": "always"}}`),
			"config: sticky at pipeline[0]/0:p/cond: hold 0s outside (0s, ∞)"},
		{"negative hold", cond(`{"type": "sticky", "hold": "-1h", "child": {"type": "always"}}`),
			"config: sticky at pipeline[0]/0:p/cond: hold -1h0m0s outside (0s, ∞)"},
		{"zero budget window", cond(`{"type": "budget", "budget": 2, "window": "0s", "child": {"type": "always"}}`),
			"config: budget at pipeline[0]/0:p/cond: window 0s outside (0s, ∞)"},
		{"negative delay", polluter(`"error": {"type": "delayed_tuple", "delay": "-1h"}`),
			"config: delayed_tuple at pipeline[0]/0:p/error: delay -1h0m0s outside [0s, ∞)"},
		{"and without children", cond(`{"type": "and", "children": []}`),
			"config: and at pipeline[0]/0:p/cond: children is empty"},
		{"or without children", cond(`{"type": "or"}`),
			"config: or at pipeline[0]/0:p/cond: needs children"},
		{"key its type does not take", cond(`{"type": "compare", "attr": "v", "op": ">", "value": 1, "p": 0.5}`),
			`config: compare at pipeline[0]/0:p/cond: unknown key "p"`},
		{"key inside a child", cond(`{"type": "not", "child": {"type": "always", "hold": "1h"}}`),
			`config: always at pipeline[0]/0:p/cond/not: unknown key "hold"`},
		// The columnar engine is gone: a document that still asks for it
		// fails instead of running the one engine silently.
		{"columnar serve key", serveDoc(`"columnar": true, "columnar_batch": 64`),
			`config: parse: json: unknown field "columnar"`},
		// Deployment is the daemon's command line (-listen, -http,
		// -state-dir, -archive-deleted); no serve key spells it.
		{"listen serve key", serveDoc(`"listen": ":7077"`), `config: parse: json: unknown field "listen"`},
		{"http serve key", serveDoc(`"http": ":7078"`), `config: parse: json: unknown field "http"`},
		{"wal_dir serve key", serveDoc(`"wal_dir": "w"`), `config: parse: json: unknown field "wal_dir"`},
		{"checkpoint serve key", serveDoc(`"checkpoint": "ck.json"`), `config: parse: json: unknown field "checkpoint"`},
		{"state_dir serve key", serveDoc(`"state_dir": "s"`), `config: parse: json: unknown field "state_dir"`},
		{"archive_deleted serve key", serveDoc(`"archive_deleted": true`), `config: parse: json: unknown field "archive_deleted"`},
		// A failed session stays failed until the daemon restarts and
		// recovers it: no key asks for in-process restarts.
		{"supervise serve key", serveDoc(`"supervise": true`), `config: parse: json: unknown field "supervise"`},
		{"restart_budget serve key", serveDoc(`"restart_budget": 3`), `config: parse: json: unknown field "restart_budget"`},
		{"restart_window serve key", serveDoc(`"restart_window": "1m"`), `config: parse: json: unknown field "restart_window"`},
		{"restart_backoff serve key", serveDoc(`"restart_backoff": "100ms"`), `config: parse: json: unknown field "restart_backoff"`},
		// WAL retention is the log's byte cap plus the tenant budget;
		// segments do not age out.
		{"wal_retain_age serve key", serveDoc(`"wal_retain_age": "1h"`), `config: parse: json: unknown field "wal_retain_age"`},
		// A file source never fails transiently and a network client
		// reconnects by itself: fault_policy has no retry keys.
		{"retries fault key", faultDoc(`"retries": 3`), `config: parse: json: unknown field "retries"`},
		{"backoff fault key", faultDoc(`"backoff": "50ms"`), `config: parse: json: unknown field "backoff"`},
		{"max_backoff fault key", faultDoc(`"max_backoff": "2s"`), `config: parse: json: unknown field "max_backoff"`},
		{"jitter fault key", faultDoc(`"jitter": 0.2`), `config: parse: json: unknown field "jitter"`},
		{"attempt_timeout fault key", faultDoc(`"attempt_timeout": "1s"`), `config: parse: json: unknown field "attempt_timeout"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	for _, doc := range []string{
		cond(`{"type": "time_of_day", "from_hour": 0, "to_hour": 24}`),
		cond(`{"type": "time_of_day", "from_hour": 23, "to_hour": 0}`),
		cond(`{"type": "random", "p": 0}`),
		cond(`{"type": "random", "p": 1}`),
		weighted(`[0, 2]`),
		clamp("3", "3"),
		polluter(`"error": {"type": "timestamp_shift", "offset": "-30m"}`),
		cond(`{"type": "sticky", "hold": "1ns", "child": {"type": "always"}}`),
		cond(`{"type": "budget", "budget": 1, "window": "1ns", "child": {"type": "always"}}`),
		polluter(`"error": {"type": "delayed_tuple", "delay": "0s"}`),
	} {
		if _, err := Load(strings.NewReader(doc)); err != nil {
			t.Errorf("edge of a valid range rejected: %v\n%s", err, doc)
		}
	}
	// JSON has no literal for a non-finite weight; a document built in
	// code can still carry one.
	for _, w := range []float64{math.Inf(1), math.NaN()} {
		doc, err := Parse(strings.NewReader(weighted(`[1, 1]`)))
		if err != nil {
			t.Fatal(err)
		}
		doc.Pipelines[0].Polluters[0].Weights[0] = w
		if _, err := Build(doc); err == nil || !strings.Contains(err.Error(), "not a finite non-negative number") {
			t.Errorf("weight %g: Build = %v", w, err)
		}
	}
}

func TestStickyConditionConfig(t *testing.T) {
	doc := `{
	  "seed": 11,
	  "pipelines": [{"polluters": [{
	    "name": "episode",
	    "error": {"type": "missing_value"},
	    "condition": {"type": "sticky", "hold": "3h",
	                  "child": {"type": "time_interval",
	                            "from": "2020-01-01T05:00:00Z",
	                            "to": "2020-01-01T06:00:00Z"}},
	    "attrs": ["v"]
	  }]}]
	}`
	_, polluted := runConfig(t, doc, 12)
	// Trigger at hour 5; sticky holds hours 5-7.
	for i, tp := range polluted {
		isNull := tp.MustGet("v").IsNull()
		want := i >= 5 && i <= 7
		if isNull != want {
			t.Fatalf("hour %d: null=%v want %v", i, isNull, want)
		}
	}
}

func TestMarkovConditionConfig(t *testing.T) {
	doc := `{
	  "seed": 12,
	  "pipelines": [{"polluters": [{
	    "name": "bursts",
	    "error": {"type": "missing_value"},
	    "condition": {"type": "markov", "p_enter": 0.05, "p_exit": 0.2},
	    "attrs": ["v"]
	  }]}]
	}`
	_, polluted := runConfig(t, doc, 2000)
	nulls, bursts := 0, 0
	prev := false
	for _, tp := range polluted {
		cur := tp.MustGet("v").IsNull()
		if cur {
			nulls++
			if !prev {
				bursts++
			}
		}
		prev = cur
	}
	if nulls == 0 || bursts == 0 {
		t.Fatal("no bursts generated")
	}
	// Bursty: average burst length clearly above 1.
	if avg := float64(nulls) / float64(bursts); avg < 2 {
		t.Fatalf("average burst length %.2f not bursty", avg)
	}
}

func TestBudgetConditionConfig(t *testing.T) {
	doc := `{
	  "seed": 13,
	  "pipelines": [{"polluters": [{
	    "name": "capped",
	    "error": {"type": "missing_value"},
	    "condition": {"type": "budget", "budget": 2, "window": "6h",
	                  "child": {"type": "always"}},
	    "attrs": ["v"]
	  }]}]
	}`
	_, polluted := runConfig(t, doc, 12)
	// Hourly tuples: at most 2 nulls per 6-hour window.
	nulls := 0
	for _, tp := range polluted {
		if tp.MustGet("v").IsNull() {
			nulls++
		}
	}
	if nulls != 4 { // 2 per 6h over 12h
		t.Fatalf("budget allowed %d errors, want 4", nulls)
	}
}

func TestKeyedPolluterConfig(t *testing.T) {
	doc := `{
	  "seed": 14,
	  "pipelines": [{"polluters": [{
	    "name": "per-category",
	    "type": "keyed",
	    "key_attr": "cat",
	    "template": {"name": "freeze", "error": {"type": "frozen_value"}, "attrs": ["v"]}
	  }]}]
	}`
	proc, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	// Two alternating categories: each freezes at its first value.
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	src := stream.NewGeneratorSource(schema, 8, func(i int) stream.Tuple {
		cat := "a"
		if i%2 == 1 {
			cat = "b"
		}
		return stream.NewTuple(schema, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Hour)),
			stream.Float(float64(i)),
			stream.Str(cat),
		})
	})
	res, err := proc.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range res.Polluted {
		want := 0.0
		if i%2 == 1 {
			want = 1.0
		}
		if got := tp.MustGet("v").MustFloat(); got != want {
			t.Fatalf("tuple %d frozen to %g, want %g", i, got, want)
		}
	}
}

func TestStatefulConfigErrors(t *testing.T) {
	bad := []string{
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}, "condition": {"type": "sticky", "hold": "1h"}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}, "condition": {"type": "sticky", "hold": "zzz", "child": {"type": "always"}}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}, "condition": {"type": "markov", "p_enter": 0, "p_exit": 0.5}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "error": {"type": "missing_value"}, "condition": {"type": "budget", "budget": 0, "window": "1h", "child": {"type": "always"}}}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "type": "keyed", "key_attr": "cat"}]}]}`,
		`{"seed": 1, "pipelines": [{"polluters": [{"name": "p", "type": "keyed", "key_attr": "cat", "template": {"name": "t"}}]}]}`,
	}
	for i, doc := range bad {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("bad stateful document %d accepted", i)
		}
	}
}

func TestAllParamAndPatternTypesParse(t *testing.T) {
	params := []string{
		`1.5`,
		`{"type": "linear", "from": "2020-01-01T00:00:00Z", "to": "2020-01-02T00:00:00Z", "v0": 0, "v1": 1}`,
		`{"type": "sinusoid_daily", "amp": 0.25, "offset": 0.25}`,
		`{"type": "pattern", "max": 2, "pattern": {"type": "abrupt", "at": "2020-01-01T12:00:00Z"}}`,
		`{"type": "pattern", "pattern": {"type": "incremental", "from": "2020-01-01T00:00:00Z", "to": "2020-01-02T00:00:00Z"}}`,
		`{"type": "pattern", "max": 3, "pattern": {"type": "intermediate", "from": "2020-01-01T00:00:00Z", "to": "2020-01-02T00:00:00Z", "triangular": true}}`,
	}
	for _, p := range params {
		doc := `{"seed": 1, "pipelines": [{"polluters": [{
			"name": "p", "error": {"type": "offset", "delta": ` + p + `}, "attrs": ["v"]}]}]}`
		if _, err := Load(strings.NewReader(doc)); err != nil {
			t.Errorf("param %s rejected: %v", p, err)
		}
	}
	badParams := []string{
		`{"type": "nope"}`,
		`{"type": "linear", "from": "xxx", "to": "2020-01-02T00:00:00Z"}`,
		`{"type": "linear", "from": "2020-01-01T00:00:00Z", "to": "yyy"}`,
		`{"type": "pattern"}`,
		`{"type": "pattern", "pattern": {"type": "nope"}}`,
		`{"type": "pattern", "pattern": {"type": "abrupt", "at": "zzz"}}`,
		`{"type": "pattern", "pattern": {"type": "incremental", "from": "zzz"}}`,
		`{"type": "pattern", "pattern": {"type": "incremental", "from": "2020-01-01T00:00:00Z", "to": "zzz"}}`,
		`{"type": "pattern", "pattern": {"type": "intermediate", "from": "zzz"}}`,
		`{"type": "pattern", "pattern": {"type": "intermediate", "from": "2020-01-01T00:00:00Z", "to": "zzz"}}`,
	}
	for _, p := range badParams {
		doc := `{"seed": 1, "pipelines": [{"polluters": [{
			"name": "p", "error": {"type": "offset", "delta": ` + p + `}, "attrs": ["v"]}]}]}`
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("bad param %s accepted", p)
		}
	}
}

func TestRouteByAttributeConfig(t *testing.T) {
	doc := `{
	  "seed": 15,
	  "route": "by:cat",
	  "pipelines": [
	    {"polluters": [{"name": "a", "error": {"type": "offset", "delta": 1000}, "attrs": ["v"]}]},
	    {"polluters": [{"name": "b", "error": {"type": "offset", "delta": -1000}, "attrs": ["v"]}]}
	  ]
	}`
	_, polluted := runConfig(t, doc, 20)
	// All tuples share cat="a", so they land in one sub-stream: all get
	// the same offset direction.
	up, down := 0, 0
	for _, tp := range polluted {
		if v := tp.MustGet("v").MustFloat(); v >= 1000 {
			up++
		} else if v <= -900 {
			down++
		}
	}
	if up != 0 && down != 0 {
		t.Fatalf("key routing split a single key: up=%d down=%d", up, down)
	}
	if up+down != 20 {
		t.Fatalf("tuples missing: %d + %d", up, down)
	}
}
