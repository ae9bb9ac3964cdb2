package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"icewafl/internal/netstream"
	"icewafl/internal/obs"
)

// Options configures one load run against a session-mode icewafld.
type Options struct {
	// BaseURL is the daemon's HTTP address, e.g. http://127.0.0.1:7078.
	BaseURL string
	// Tenants are the tenant names sessions are spread across
	// round-robin.
	Tenants []string
	// Sessions is the total number of sessions to create.
	Sessions int
	// Subs is the number of concurrent subscribers per session.
	Subs int
	// Rows is the number of CSV input rows per session.
	Rows int
	// Timeout bounds the whole run.
	Timeout time.Duration
	// AttachOnly skips session creation and subscribes to the sessions
	// the daemon already runs (restart verification: a recovered daemon
	// must serve the same streams it served before the kill).
	AttachOnly bool
	// KeepSessions skips the final DELETE phase so the sessions — and,
	// on a durable daemon, their state directories — survive the run.
	KeepSessions bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if len(o.Tenants) == 0 {
		o.Tenants = []string{"alpha", "beta"}
	}
	if o.Sessions <= 0 {
		o.Sessions = 4
	}
	if o.Subs <= 0 {
		o.Subs = 8
	}
	if o.Rows <= 0 {
		o.Rows = 200
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
}

// TenantStat is one tenant's served totals, read back from the
// daemon's /metrics snapshot.
type TenantStat struct {
	Frames          uint64
	Bytes           uint64
	QuotaRejections uint64
}

// Result is the aggregate outcome of a load run.
type Result struct {
	// Created lists the session IDs that were accepted.
	Created []string
	// CreateRejected counts sessions the control plane refused with a
	// typed quota error (429).
	CreateRejected int
	// SubsStarted / SubQuotaRejected count subscriber attempts and
	// subscriber-level typed quota rejections.
	SubsStarted      int
	SubQuotaRejected int
	// Frames / Bytes total tuple frames and wire bytes read by all
	// subscribers.
	Frames uint64
	Bytes  uint64
	// GapErrors counts replay-gap rejections, a 410 on subscribe or a
	// gap error frame (must be zero: every subscriber starts from seq 0
	// against a fully retained ring).
	GapErrors int
	// Errors collects unexpected subscriber or control-plane failures.
	Errors []string
	// Digests maps the sha256 of each subscriber's dirty stream to the
	// number of subscribers that saw it. Byte-identical delivery means
	// exactly one key.
	Digests map[string]int
	// P50 / P99 are the end-to-end delivery latencies (publish to
	// subscriber pickup) from the daemon's obs histograms.
	P50, P99 time.Duration
	// DeliverCount is the number of deliveries the histogram observed.
	DeliverCount uint64
	// Tenants holds the per-tenant /metrics families.
	Tenants map[string]TenantStat
	// Elapsed is the wall time of the streaming phase.
	Elapsed time.Duration
}

// subOutcome is one subscriber's tally.
type subOutcome struct {
	frames uint64
	bytes  uint64
	digest string
	gap    bool
	quota  bool
	err    error
}

// Run drives a session-mode daemon: creates Sessions sessions spread
// round-robin across Tenants, attaches Subs subscribers to each
// session's dirty channel, waits for every stream to terminate, scrapes
// /metrics for delivery latency and per-tenant throughput, and deletes
// the sessions.
func Run(opts Options) (*Result, error) {
	opts.defaults()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	defer cancel()
	client := &http.Client{}
	res := &Result{Digests: make(map[string]int), Tenants: make(map[string]TenantStat)}
	spec := sessionSpecJSON(opts.Rows)

	// Phase 1: create sessions over the control plane.
	type created struct {
		tenant, name string
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		sem  = make(chan struct{}, 16)
		live []created
	)
	if opts.AttachOnly {
		statuses, err := listSessions(ctx, client, opts.BaseURL)
		if err != nil {
			return nil, fmt.Errorf("list sessions: %w", err)
		}
		for _, st := range statuses {
			live = append(live, created{st.Tenant, st.Name})
			res.Created = append(res.Created, st.Tenant+"/"+st.Name)
		}
		sort.Strings(res.Created)
		logf("attached to %d existing sessions", len(live))
	} else {
		for i := 0; i < opts.Sessions; i++ {
			tenant := opts.Tenants[i%len(opts.Tenants)]
			name := fmt.Sprintf("s%04d", i)
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				status, body, err := postJSON(ctx, client, opts.BaseURL+"/v1/sessions", netstream.SessionRequest{
					Tenant: tenant, Name: name, Spec: spec,
				})
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err != nil:
					res.Errors = append(res.Errors, fmt.Sprintf("create %s/%s: %v", tenant, name, err))
				case status == http.StatusCreated:
					live = append(live, created{tenant, name})
					res.Created = append(res.Created, tenant+"/"+name)
				case status == http.StatusTooManyRequests:
					res.CreateRejected++
				default:
					res.Errors = append(res.Errors, fmt.Sprintf("create %s/%s: HTTP %d: %s", tenant, name, status, body))
				}
			}()
		}
		wg.Wait()
		sort.Strings(res.Created)
		logf("created %d/%d sessions (%d quota-rejected) across %d tenants",
			len(res.Created), opts.Sessions, res.CreateRejected, len(opts.Tenants))
	}

	// Phase 2: fan out subscribers and drain every stream.
	start := time.Now()
	outcomes := make([]subOutcome, len(live)*opts.Subs)
	for i, c := range live {
		for j := 0; j < opts.Subs; j++ {
			wg.Add(1)
			go func(slot int, c created) {
				defer wg.Done()
				outcomes[slot] = streamDirty(ctx, client, opts.BaseURL, c.tenant+"/"+c.name+"/dirty")
			}(i*opts.Subs+j, c)
		}
	}
	res.SubsStarted = len(outcomes)
	wg.Wait()
	res.Elapsed = time.Since(start)
	for _, o := range outcomes {
		res.Frames += o.frames
		res.Bytes += o.bytes
		if o.gap {
			res.GapErrors++
		}
		if o.quota {
			res.SubQuotaRejected++
		}
		if o.err != nil {
			res.Errors = append(res.Errors, o.err.Error())
		}
		if o.digest != "" {
			res.Digests[o.digest]++
		}
	}
	logf("%d subscribers drained: %d frames, %d bytes in %v", res.SubsStarted, res.Frames, res.Bytes, res.Elapsed.Round(time.Millisecond))

	// Phase 3: scrape the daemon's obs snapshot for delivery latency and
	// per-tenant families.
	if snap, err := scrapeMetrics(ctx, client, opts.BaseURL); err != nil {
		res.Errors = append(res.Errors, fmt.Sprintf("metrics: %v", err))
	} else {
		if h, ok := snap.Histograms["deliver"]; ok {
			// QuantileOK distinguishes an empty histogram (no deliveries —
			// reported as n/a by the caller via DeliverCount == 0) from a
			// genuinely sub-nanosecond-bucket one.
			res.DeliverCount = h.Count
			if p50, ok := h.QuantileOK(0.50); ok {
				res.P50 = time.Duration(p50)
			}
			if p99, ok := h.QuantileOK(0.99); ok {
				res.P99 = time.Duration(p99)
			}
		}
		for tenant, frames := range snap.TenantFrames {
			st := res.Tenants[tenant]
			st.Frames = frames
			res.Tenants[tenant] = st
		}
		for tenant, b := range snap.TenantBytes {
			st := res.Tenants[tenant]
			st.Bytes = b
			res.Tenants[tenant] = st
		}
		for tenant, q := range snap.TenantQuotaRejections {
			st := res.Tenants[tenant]
			st.QuotaRejections = q
			res.Tenants[tenant] = st
		}
	}

	// Phase 4: delete every session we created (skipped with
	// KeepSessions, e.g. before a kill-and-restart verification pass).
	if opts.KeepSessions {
		return res, nil
	}
	for _, c := range live {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
			opts.BaseURL+"/v1/sessions/"+url.PathEscape(c.tenant)+"/"+url.PathEscape(c.name), nil)
		if err != nil {
			res.Errors = append(res.Errors, err.Error())
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("delete %s/%s: %v", c.tenant, c.name, err))
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			res.Errors = append(res.Errors, fmt.Sprintf("delete %s/%s: HTTP %d", c.tenant, c.name, resp.StatusCode))
		}
	}
	return res, nil
}

// listSessions fetches the daemon's live session list.
func listSessions(ctx context.Context, client *http.Client, baseURL string) ([]netstream.SessionStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/sessions", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/sessions: HTTP %d", resp.StatusCode)
	}
	var out struct {
		Sessions []netstream.SessionStatus `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Sessions, nil
}

// postJSON posts v and returns the status code and body.
func postJSON(ctx context.Context, client *http.Client, url string, v any) (int, string, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp.StatusCode, out.String(), nil
}

// streamDirty subscribes to one session's dirty channel over NDJSON and
// drains it to the terminal frame, digesting every tuple.
func streamDirty(ctx context.Context, client *http.Client, baseURL, channel string) subOutcome {
	var o subOutcome
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		baseURL+"/stream?channel="+url.QueryEscape(channel)+"&from_seq=0", nil)
	if err != nil {
		o.err = err
		return o
	}
	resp, err := client.Do(req)
	if err != nil {
		o.err = fmt.Errorf("subscribe %s: %w", channel, err)
		return o
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		o.quota = true
		return o
	case http.StatusGone:
		o.gap = true
		return o
	default:
		o.err = fmt.Errorf("subscribe %s: HTTP %d", channel, resp.StatusCode)
		return o
	}
	h := sha256.New()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		o.bytes += uint64(len(line))
		f, err := netstream.DecodeFrame(line)
		if err != nil {
			o.err = fmt.Errorf("%s: %w", channel, err)
			return o
		}
		switch f.Type {
		case netstream.FrameHello:
			if _, err := netstream.SchemaFromDocument(f.Schema); err != nil {
				o.err = err
				return o
			}
		case netstream.FrameTuple:
			if err := digestTuple(h, f.Tuple); err != nil {
				o.err = err
				return o
			}
			o.frames++
		case netstream.FrameEOF:
			o.digest = hex.EncodeToString(h.Sum(nil))
			return o
		case netstream.FrameError:
			switch {
			case f.Gap != nil:
				o.gap = true
			case f.Quota != nil:
				o.quota = true
			default:
				o.err = fmt.Errorf("%s: server error: %s", channel, f.Error)
			}
			return o
		}
	}
	if err := sc.Err(); err != nil {
		o.err = fmt.Errorf("%s: %w", channel, err)
	} else {
		o.err = fmt.Errorf("%s: stream ended without a terminal frame", channel)
	}
	return o
}

// scrapeMetrics fetches and decodes the daemon's obs snapshot.
func scrapeMetrics(ctx context.Context, client *http.Client, baseURL string) (*obs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	snap := new(obs.Snapshot)
	return snap, json.NewDecoder(resp.Body).Decode(snap)
}
