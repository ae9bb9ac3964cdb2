package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"icewafl/internal/config"
	"icewafl/internal/netstream"
	"icewafl/internal/obs"
	"icewafl/internal/schemafile"
)

// sessionSpec is the opaque per-session payload of POST /v1/sessions:
// a schema document, a pollution configuration (whose optional serve
// block sets the session's engine knobs) and an inline CSV input. The
// input rides in the request because a session is a self-contained,
// reproducible pipeline run — the daemon's filesystem is not part of
// the contract.
type sessionSpec struct {
	Schema json.RawMessage `json:"schema"`
	Config json.RawMessage `json:"config"`
	CSV    string          `json:"csv"`
}

// sessionBuilder compiles one session's spec into a pipeline Config,
// through the same pipelineConfig as the single pipeline.
func sessionBuilder(reg *obs.Registry) func(raw json.RawMessage) (netstream.Config, error) {
	return func(raw json.RawMessage) (netstream.Config, error) {
		var spec sessionSpec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return netstream.Config{}, fmt.Errorf("session spec: %w", err)
		}
		if len(spec.Schema) == 0 || len(spec.Config) == 0 || spec.CSV == "" {
			return netstream.Config{}, fmt.Errorf("session spec needs schema, config and csv")
		}
		schema, err := schemafile.Parse(bytes.NewReader(spec.Schema))
		if err != nil {
			return netstream.Config{}, fmt.Errorf("session schema: %w", err)
		}
		doc, err := config.Parse(bytes.NewReader(spec.Config))
		if err != nil {
			return netstream.Config{}, fmt.Errorf("session config: %w", err)
		}
		ss, err := doc.Serve.Normalize()
		if err != nil {
			return netstream.Config{}, err
		}
		if len(ss.Tenants) > 0 {
			return netstream.Config{}, fmt.Errorf("session config: serve.tenants is the daemon's own -config setting, not a session's")
		}
		csv := spec.CSV
		return pipelineConfig(schema, doc, ss, func() (io.Reader, error) { return strings.NewReader(csv), nil }, reg)
	}
}
