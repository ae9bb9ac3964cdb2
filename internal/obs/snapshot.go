package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Span is one sampled stage timing of one tuple. Spans of the same
// tuple across stages share the tuple ID, so a trace groups naturally
// per tuple; because the sampler is a pure function of the ID, a
// re-run of a seeded workload traces exactly the same tuples.
type Span struct {
	TupleID uint64 `json:"tuple_id"`
	Stage   string `json:"stage"`
	DurNs   int64  `json:"dur_ns"`
}

// Snapshot is a point-in-time copy of every metric in a Registry, the
// unit of export for both the JSON and the Prometheus encodings.
type Snapshot struct {
	// Counters holds the well-known counters (always complete, zeros
	// included, so seeded runs snapshot deterministically).
	Counters map[string]uint64 `json:"counters"`
	// Gauges holds the registered gauge functions' values.
	Gauges map[string]uint64 `json:"gauges,omitempty"`
	// PollutedBy counts pollution-log entries per polluter ID.
	PollutedBy map[string]uint64 `json:"polluted_by,omitempty"`
	// DQEvaluated / DQUnexpected count rows the streaming DQ monitor
	// inspected / flagged, per expectation.
	DQEvaluated  map[string]uint64 `json:"dq_evaluated,omitempty"`
	DQUnexpected map[string]uint64 `json:"dq_unexpected,omitempty"`
	// ShardTuples counts tuples per shard of a sharded run.
	ShardTuples []uint64 `json:"shard_tuples,omitempty"`
	// TenantFrames / TenantBytes count frames and payload bytes
	// delivered to each tenant's subscribers; TenantQuotaRejections
	// counts quota errors issued to the tenant (session service).
	TenantFrames          map[string]uint64 `json:"tenant_frames,omitempty"`
	TenantBytes           map[string]uint64 `json:"tenant_bytes,omitempty"`
	TenantQuotaRejections map[string]uint64 `json:"tenant_quota_rejections,omitempty"`
	// TenantWALBytes gauges each tenant's durable WAL bytes on disk
	// (the session service's per-tenant retention budgets).
	TenantWALBytes map[string]uint64 `json:"tenant_wal_bytes,omitempty"`
	// Histograms holds the per-stage latency histograms (sampled).
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	// Spans is the sampled pollution trace (JSON export only).
	Spans []Span `json:"spans,omitempty"`
}

// MarshalJSON-friendly writers -----------------------------------------

// WriteJSON renders the snapshot as indented JSON with a trailing
// newline (diff-friendly, golden-testable).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Prometheus text exposition -------------------------------------------

const (
	pollutedMetric    = "icewafl_polluted_tuples_total"
	dqEvalMetric      = "icewafl_dq_evaluated_total"
	dqUnexpMetric     = "icewafl_dq_unexpected_total"
	shardMetric       = "icewafl_shard_tuples_total"
	latencyMetric     = "icewafl_stage_latency_ns"
	tenantFrameMetric = "icewafl_tenant_frames_total"
	tenantByteMetric  = "icewafl_tenant_bytes_total"
	tenantQuotaMetric = "icewafl_tenant_quota_rejections_total"
	tenantWALMetric   = "icewafl_tenant_wal_bytes"
)

// escapeLabel escapes a Prometheus label value (backslash, quote,
// newline).
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format. Spans are a JSON-only export (the exposition format has no
// place for traces). Families are emitted in deterministic order.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name])
	}
	if len(s.PollutedBy) > 0 {
		fmt.Fprintf(bw, "# TYPE %s counter\n", pollutedMetric)
		for _, name := range sortedKeys(s.PollutedBy) {
			fmt.Fprintf(bw, "%s{polluter=\"%s\"} %d\n", pollutedMetric, escapeLabel(name), s.PollutedBy[name])
		}
	}
	for _, fam := range []struct {
		metric string
		counts map[string]uint64
	}{{dqEvalMetric, s.DQEvaluated}, {dqUnexpMetric, s.DQUnexpected}} {
		if len(fam.counts) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# TYPE %s counter\n", fam.metric)
		for _, name := range sortedKeys(fam.counts) {
			fmt.Fprintf(bw, "%s{expectation=\"%s\"} %d\n", fam.metric, escapeLabel(name), fam.counts[name])
		}
	}
	for _, fam := range []struct {
		metric string
		counts map[string]uint64
	}{{tenantFrameMetric, s.TenantFrames}, {tenantByteMetric, s.TenantBytes}, {tenantQuotaMetric, s.TenantQuotaRejections}} {
		if len(fam.counts) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# TYPE %s counter\n", fam.metric)
		for _, name := range sortedKeys(fam.counts) {
			fmt.Fprintf(bw, "%s{tenant=\"%s\"} %d\n", fam.metric, escapeLabel(name), fam.counts[name])
		}
	}
	if len(s.TenantWALBytes) > 0 {
		fmt.Fprintf(bw, "# TYPE %s gauge\n", tenantWALMetric)
		for _, name := range sortedKeys(s.TenantWALBytes) {
			fmt.Fprintf(bw, "%s{tenant=\"%s\"} %d\n", tenantWALMetric, escapeLabel(name), s.TenantWALBytes[name])
		}
	}
	if len(s.ShardTuples) > 0 {
		fmt.Fprintf(bw, "# TYPE %s counter\n", shardMetric)
		for i, n := range s.ShardTuples {
			fmt.Fprintf(bw, "%s{shard=\"%d\"} %d\n", shardMetric, i, n)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(bw, "# TYPE %s histogram\n", latencyMetric)
		for _, stage := range sortedKeys(s.Histograms) {
			h := s.Histograms[stage]
			esc := escapeLabel(stage)
			cum := uint64(0)
			for _, b := range h.Buckets {
				cum += b.N
				fmt.Fprintf(bw, "%s_bucket{stage=\"%s\",le=\"%d\"} %d\n", latencyMetric, esc, b.Le, cum)
			}
			fmt.Fprintf(bw, "%s_bucket{stage=\"%s\",le=\"+Inf\"} %d\n", latencyMetric, esc, h.Count)
			fmt.Fprintf(bw, "%s_sum{stage=\"%s\"} %d\n", latencyMetric, esc, h.SumNs)
			fmt.Fprintf(bw, "%s_count{stage=\"%s\"} %d\n", latencyMetric, esc, h.Count)
		}
	}
	return bw.Flush()
}
