package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
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

// unescapeLabel reverses escapeLabel.
func unescapeLabel(v string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(v) {
			return "", fmt.Errorf("obs: dangling escape in label %q", v)
		}
		switch v[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("obs: bad escape \\%c in label %q", v[i], v)
		}
	}
	return b.String(), nil
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

// histAccum accumulates one stage's histogram lines during parsing.
type histAccum struct {
	sum     uint64
	count   uint64
	hasCnt  bool
	buckets []Bucket // cumulative, as parsed
}

// ParsePrometheus parses text exposition produced by WritePrometheus
// back into a Snapshot (spans cannot round-trip — they are JSON-only).
// Unknown metric families are rejected, keeping the parser honest
// enough for fuzzing.
func ParsePrometheus(r io.Reader) (*Snapshot, error) {
	s := &Snapshot{Counters: map[string]uint64{}}
	types := map[string]string{}
	hists := map[string]*histAccum{}
	shards := map[int]uint64{}
	maxShard := -1

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return nil, err
		}
		switch {
		case name == pollutedMetric:
			p, ok := labels["polluter"]
			if !ok {
				return nil, fmt.Errorf("obs: %s sample without polluter label", pollutedMetric)
			}
			if s.PollutedBy == nil {
				s.PollutedBy = map[string]uint64{}
			}
			s.PollutedBy[p] = value
		case name == dqEvalMetric || name == dqUnexpMetric:
			ex, ok := labels["expectation"]
			if !ok {
				return nil, fmt.Errorf("obs: %s sample without expectation label", name)
			}
			if name == dqEvalMetric {
				if s.DQEvaluated == nil {
					s.DQEvaluated = map[string]uint64{}
				}
				s.DQEvaluated[ex] = value
			} else {
				if s.DQUnexpected == nil {
					s.DQUnexpected = map[string]uint64{}
				}
				s.DQUnexpected[ex] = value
			}
		case name == tenantFrameMetric || name == tenantByteMetric || name == tenantQuotaMetric:
			tn, ok := labels["tenant"]
			if !ok {
				return nil, fmt.Errorf("obs: %s sample without tenant label", name)
			}
			var m *map[string]uint64
			switch name {
			case tenantFrameMetric:
				m = &s.TenantFrames
			case tenantByteMetric:
				m = &s.TenantBytes
			default:
				m = &s.TenantQuotaRejections
			}
			if *m == nil {
				*m = map[string]uint64{}
			}
			(*m)[tn] = value
		case name == tenantWALMetric:
			// Must precede the generic icewafl_ prefix case: this family is
			// labeled per tenant, and the generic case drops labels.
			tn, ok := labels["tenant"]
			if !ok {
				return nil, fmt.Errorf("obs: %s sample without tenant label", name)
			}
			if s.TenantWALBytes == nil {
				s.TenantWALBytes = map[string]uint64{}
			}
			s.TenantWALBytes[tn] = value
		case name == shardMetric:
			sh, ok := labels["shard"]
			if !ok {
				return nil, fmt.Errorf("obs: %s sample without shard label", shardMetric)
			}
			idx, err := strconv.Atoi(sh)
			if err != nil || idx < 0 || idx > 1<<20 {
				return nil, fmt.Errorf("obs: bad shard index %q", sh)
			}
			shards[idx] = value
			if idx > maxShard {
				maxShard = idx
			}
		case name == latencyMetric+"_bucket" || name == latencyMetric+"_sum" || name == latencyMetric+"_count":
			stage, ok := labels["stage"]
			if !ok {
				return nil, fmt.Errorf("obs: %s sample without stage label", latencyMetric)
			}
			h := hists[stage]
			if h == nil {
				h = &histAccum{}
				hists[stage] = h
			}
			switch {
			case strings.HasSuffix(name, "_sum"):
				h.sum = value
			case strings.HasSuffix(name, "_count"):
				h.count, h.hasCnt = value, true
			default:
				le, ok := labels["le"]
				if !ok {
					return nil, fmt.Errorf("obs: histogram bucket without le label")
				}
				if le == "+Inf" {
					continue // reconstructed from _count
				}
				bound, err := strconv.ParseUint(le, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("obs: bad bucket bound %q", le)
				}
				h.buckets = append(h.buckets, Bucket{Le: bound, N: value})
			}
		case strings.HasPrefix(name, "icewafl_"):
			switch types[name] {
			case "gauge":
				if s.Gauges == nil {
					s.Gauges = map[string]uint64{}
				}
				s.Gauges[name] = value
			case "counter":
				s.Counters[name] = value
			default:
				return nil, fmt.Errorf("obs: sample %q without TYPE declaration", name)
			}
		default:
			return nil, fmt.Errorf("obs: unknown metric %q", name)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scan exposition: %w", err)
	}

	if maxShard >= 0 {
		s.ShardTuples = make([]uint64, maxShard+1)
		for idx, v := range shards {
			s.ShardTuples[idx] = v
		}
	}
	for stage, h := range hists {
		if !h.hasCnt {
			return nil, fmt.Errorf("obs: histogram %q has buckets but no _count", stage)
		}
		snap := HistSnapshot{Count: h.count, SumNs: h.sum}
		sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].Le < h.buckets[j].Le })
		prev := uint64(0)
		for _, b := range h.buckets {
			if b.N < prev {
				return nil, fmt.Errorf("obs: histogram %q buckets not cumulative", stage)
			}
			if n := b.N - prev; n > 0 {
				snap.Buckets = append(snap.Buckets, Bucket{Le: b.Le, N: n})
			}
			prev = b.N
		}
		if s.Histograms == nil {
			s.Histograms = map[string]HistSnapshot{}
		}
		s.Histograms[stage] = snap
	}
	return s, nil
}

// parseSampleLine parses `name{l1="v1",l2="v2"} 123` (labels optional).
func parseSampleLine(line string) (name string, labels map[string]string, value uint64, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return "", nil, 0, fmt.Errorf("obs: malformed sample %q", line)
	} else {
		name = rest[:i]
		rest = rest[i:]
	}
	if name == "" {
		return "", nil, 0, fmt.Errorf("obs: malformed sample %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		end := findLabelsEnd(rest)
		if end < 0 {
			return "", nil, 0, fmt.Errorf("obs: unterminated labels in %q", line)
		}
		labels, err = parseLabels(rest[1:end])
		if err != nil {
			return "", nil, 0, err
		}
		rest = rest[end+1:]
	}
	valText := strings.TrimSpace(rest)
	if valText == "" || strings.ContainsAny(valText, " \t") {
		return "", nil, 0, fmt.Errorf("obs: malformed sample value in %q", line)
	}
	value, err = strconv.ParseUint(valText, 10, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("obs: bad sample value %q", valText)
	}
	return name, labels, value, nil
}

// findLabelsEnd locates the closing brace of a label block, honouring
// quoted values with escapes. rest starts with '{'.
func findLabelsEnd(rest string) int {
	inQuote := false
	for i := 1; i < len(rest); i++ {
		c := rest[i]
		if inQuote {
			if c == '\\' {
				i++
			} else if c == '"' {
				inQuote = false
			}
			continue
		}
		switch c {
		case '"':
			inQuote = true
		case '}':
			return i
		}
	}
	return -1
}

// parseLabels parses `l1="v1",l2="v2"`.
func parseLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("obs: malformed labels %q", body)
		}
		key := strings.TrimSpace(body[i : i+eq])
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("obs: unquoted label value in %q", body)
		}
		i++
		start := i
		for i < len(body) {
			if body[i] == '\\' {
				i += 2
				continue
			}
			if body[i] == '"' {
				break
			}
			i++
		}
		if i >= len(body) {
			return nil, fmt.Errorf("obs: unterminated label value in %q", body)
		}
		val, err := unescapeLabel(body[start:i])
		if err != nil {
			return nil, err
		}
		if key == "" {
			return nil, fmt.Errorf("obs: empty label name in %q", body)
		}
		labels[key] = val
		i++ // closing quote
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return labels, nil
}
