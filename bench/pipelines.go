package main

import (
	"fmt"
	"strings"
	"time"

	"icewafl/internal/config"
	"icewafl/internal/core"
	"icewafl/internal/stream"
)

// The three pollution configurations of the benchmark, as the JSON
// documents a user would write. %d is the run's seed.

// mixedConfig is the general tuple-wise pipeline of file_mixed: value
// errors on numeric and categorical attributes, a temporal error behind
// a composite condition (which is why the run needs the reorder
// window), and a stateful error under a burst condition.
const mixedConfig = `{
  "seed": %d,
  "pipelines": [{"name": "mixed", "polluters": [
    {"name": "noise TEMP", "attrs": ["TEMP"],
     "error": {"type": "gaussian_noise", "stddev": 2},
     "condition": {"type": "random", "p": 0.2}},
    {"name": "scale PRES", "attrs": ["PRES"],
     "error": {"type": "scale_by_factor", "factor": 0.1},
     "condition": {"type": "random", "p": 0.05}},
    {"name": "null NO2", "attrs": ["NO2"],
     "error": {"type": "missing_value"},
     "condition": {"type": "random", "p": 0.1}},
    {"name": "wrong wd", "attrs": ["wd"],
     "error": {"type": "incorrect_category", "categories": ["N", "E", "S", "W"]},
     "condition": {"type": "random", "p": 0.05}},
    {"name": "late",
     "error": {"type": "delayed_tuple", "delay": "3h"},
     "condition": {"type": "and", "children": [
       {"type": "time_of_day", "from_hour": 8, "to_hour": 18},
       {"type": "random", "p": 0.02}]}},
    {"name": "stuck CO", "attrs": ["CO"],
     "error": {"type": "frozen_value"},
     "condition": {"type": "markov", "p_enter": 0.01, "p_exit": 0.2}}
  ]}]
}`

// numericConfig is file_columnar's pipeline: only numeric error
// families under random, value and interval conditions, all of which
// the columnar engine compiles to batch kernels. The value condition
// reads an attribute whose distribution does not depend on the seed, so
// the log's size (part of wire_bytes_per_tuple) barely moves with it.
const numericConfig = `{
  "seed": %d,
  "pipelines": [{"name": "numeric", "polluters": [
    {"name": "noise TEMP", "attrs": ["TEMP"],
     "error": {"type": "gaussian_noise", "stddev": 2},
     "condition": {"type": "random", "p": 0.2}},
    {"name": "scale PRES", "attrs": ["PRES"],
     "error": {"type": "scale_by_factor", "factor": 0.1},
     "condition": {"type": "compare", "attr": "hour", "op": ">=", "value": 18}},
    {"name": "offset O3", "attrs": ["O3"],
     "error": {"type": "offset", "delta": 15},
     "condition": {"type": "time_interval", "from": "2013-06-01T00:00:00Z", "to": "2014-06-01T00:00:00Z"}},
    {"name": "round PM2.5", "attrs": ["PM2.5"],
     "error": {"type": "round_precision", "digits": 0},
     "condition": {"type": "random", "p": 0.3}},
    {"name": "outlier CO", "attrs": ["CO"],
     "error": {"type": "outlier", "magnitude": 5},
     "condition": {"type": "random", "p": 0.01}}
  ]}]
}`

// loadConfig is cmd/icewafload's session pipeline, at reorder 1 (the
// window a checkpointable durable session needs).
const loadConfig = `{
  "seed": %d,
  "serve": {"reorder": 1},
  "pipelines": [{"name": "load", "polluters": [
    {"name": "scale V", "attrs": ["V"],
     "error": {"type": "scale_by_factor", "factor": 100},
     "condition": {"type": "random", "p": 0.5}},
    {"name": "null V", "attrs": ["V"],
     "error": {"type": "missing_value"},
     "condition": {"type": "random", "p": 0.1}}
  ]}]
}`

// buildProcess is the program's configuration step as both CLIs perform
// it — parse, compile, validate against the schema — and its duration
// (the config layer).
func buildProcess(cfgJSON string, schema *stream.Schema) (*config.Document, *core.Process, time.Duration, error) {
	start := time.Now()
	doc, err := config.Parse(strings.NewReader(cfgJSON))
	if err != nil {
		return nil, nil, 0, err
	}
	proc, err := config.Build(doc)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(proc.Pipelines) != 1 {
		return nil, nil, 0, fmt.Errorf("benchmark configs have one pipeline, got %d", len(proc.Pipelines))
	}
	if err := proc.ValidateAttrs(schema); err != nil {
		return nil, nil, 0, err
	}
	proc.KeepClean = false
	return doc, proc, time.Since(start), nil
}
