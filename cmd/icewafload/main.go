// Command icewafload is the load harness for icewafld's session mode:
// it drives many concurrent pipeline sessions across multiple tenants
// through the REST control plane, fans thousands of subscribers out
// over the namespaced channels, and reports end-to-end delivery
// latency (p50/p99 from the daemon's obs histograms) plus per-tenant
// throughput and quota-rejection counts, all read from the obs
// snapshot that GET /metrics?format=json returns.
//
// Usage:
//
//	icewafld -sessions -http :7078 &
//	icewafload -url http://127.0.0.1:7078 -n 100 -subs 20 [-tenants alpha,beta] [-rows 200]
//
// Every session runs the same deterministic spec, so the harness also
// verifies correctness under load: zero replay-gap errors, quota
// rejections only where quotas are configured, and every subscriber of
// every session byte-identical to a direct in-process run of the same
// pipeline.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("icewafload: ")
	baseURL := flag.String("url", "", "base HTTP URL of the session-mode daemon (required), e.g. http://127.0.0.1:7078")
	sessions := flag.Int("n", 8, "total sessions to create")
	subs := flag.Int("subs", 16, "concurrent subscribers per session")
	tenants := flag.String("tenants", "alpha,beta", "comma-separated tenant names, sessions spread round-robin")
	rows := flag.Int("rows", 200, "CSV input rows per session")
	timeout := flag.Duration("timeout", 2*time.Minute, "bound on the whole run")
	keep := flag.Bool("keep", false, "keep the sessions after the run (skip the DELETE phase; pairs with -attach after a daemon restart)")
	attach := flag.Bool("attach", false, "attach to the daemon's existing sessions instead of creating new ones (restart verification)")
	flag.Parse()
	if *baseURL == "" {
		fmt.Fprintln(os.Stderr, "icewafload: -url is required")
		flag.Usage()
		os.Exit(2)
	}

	var names []string
	for _, t := range strings.Split(*tenants, ",") {
		if t = strings.TrimSpace(t); t != "" {
			names = append(names, t)
		}
	}
	res, err := Run(Options{
		BaseURL:      strings.TrimRight(*baseURL, "/"),
		Tenants:      names,
		Sessions:     *sessions,
		Subs:         *subs,
		Rows:         *rows,
		Timeout:      *timeout,
		AttachOnly:   *attach,
		KeepSessions: *keep,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	want, wantFrames, err := directDigest(*rows)
	if err != nil {
		log.Fatalf("direct run: %v", err)
	}
	identical := len(res.Digests) == 1 && res.Digests[want] > 0

	log.Printf("sessions: %d created, %d quota-rejected", len(res.Created), res.CreateRejected)
	log.Printf("subscribers: %d started, %d quota-rejected, %d gap errors", res.SubsStarted, res.SubQuotaRejected, res.GapErrors)
	log.Printf("delivered: %d frames, %d bytes in %v", res.Frames, res.Bytes, res.Elapsed.Round(time.Millisecond))
	if res.DeliverCount == 0 {
		// An empty histogram has no quantiles; reporting 0ns would be
		// indistinguishable from an implausibly fast daemon.
		log.Printf("delivery latency (obs histogram, 0 observations): p50=n/a p99=n/a")
	} else {
		log.Printf("delivery latency (obs histogram, %d observations): p50=%v p99=%v", res.DeliverCount, res.P50, res.P99)
	}
	tenantsSorted := make([]string, 0, len(res.Tenants))
	for t := range res.Tenants {
		tenantsSorted = append(tenantsSorted, t)
	}
	sort.Strings(tenantsSorted)
	secs := res.Elapsed.Seconds()
	for _, t := range tenantsSorted {
		st := res.Tenants[t]
		rate := float64(st.Bytes)
		if secs > 0 {
			rate /= secs
		}
		log.Printf("tenant %s: frames=%d bytes=%d (%.1f KiB/s) quota_rejections=%d", t, st.Frames, st.Bytes, rate/1024, st.QuotaRejections)
	}
	if identical {
		log.Printf("byte-identity: all %d clean subscribers match the direct run (%d frames, digest %.12s…)", res.Digests[want], wantFrames, want)
	} else {
		log.Printf("byte-identity FAILED: want digest %.12s… (%d frames), got %d distinct digests", want, wantFrames, len(res.Digests))
	}

	fail := !identical || res.GapErrors > 0 || len(res.Errors) > 0
	for _, e := range res.Errors {
		log.Printf("error: %s", e)
	}
	if fail {
		os.Exit(1)
	}
}
