package netstream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrQuota reports that a tenant exceeded one of its configured quotas
// (max sessions, max subscribers, bytes/sec).
var ErrQuota = errors.New("netstream: tenant quota exceeded")

// QuotaError is the typed form of ErrQuota: which tenant hit which
// ceiling. Retrying the identical request against the same
// configuration cannot succeed. The wire form is Frame.Quota
// (TCP/stream subscriptions) or the JSON error body of a 429 (control
// plane).
type QuotaError struct {
	// Tenant is the tenant the quota applies to.
	Tenant string
	// Resource names the exhausted resource: "sessions", "subscribers",
	// "bytes_per_sec" or "wal_bytes".
	Resource string
	// Limit is the configured ceiling; Used the consumption at rejection
	// time (for bytes_per_sec, Limit is the rate and Used the write the
	// bucket could never cover).
	Limit uint64
	Used  uint64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("netstream: tenant %q over %s quota (limit %d, used %d)", e.Tenant, e.Resource, e.Limit, e.Used)
}

// Unwrap makes errors.Is(err, ErrQuota) hold.
func (e *QuotaError) Unwrap() error { return ErrQuota }

// Info renders the machine-readable wire payload.
func (e *QuotaError) Info() *QuotaInfo {
	return &QuotaInfo{Tenant: e.Tenant, Resource: e.Resource, Limit: e.Limit, Used: e.Used}
}

// QuotaFromInfo rebuilds the typed error from its wire payload.
func QuotaFromInfo(q *QuotaInfo) *QuotaError {
	return &QuotaError{Tenant: q.Tenant, Resource: q.Resource, Limit: q.Limit, Used: q.Used}
}

// TenantQuota is one tenant's configured ceilings. Zero fields are
// unlimited.
type TenantQuota struct {
	// MaxSessions caps concurrently running sessions.
	MaxSessions int
	// MaxSubscribers caps concurrently open subscriptions across the
	// tenant's sessions.
	MaxSubscribers int
	// BytesPerSec rate-limits frame delivery to the tenant's subscribers
	// via a token bucket layered on the backpressure policy: a throttled
	// subscriber simply reads slower, so the policy (block/drop/
	// disconnect) decides what that does to the pipeline.
	BytesPerSec int64
	// Burst is the token-bucket depth in bytes (default: one second of
	// BytesPerSec). A single frame larger than the burst can never be
	// delivered and is rejected with a typed QuotaError.
	Burst int64
	// MaxWALBytes caps the tenant's total durable WAL bytes on disk
	// across all of its sessions (session service with a state dir): the
	// retention sweep drops the tenant's oldest closed segments once the
	// shared total exceeds the cap, and a session create is rejected with
	// a typed QuotaError while the tenant is already at or over budget.
	MaxWALBytes int64
}

// tokenBucket is a monotonic-clock token bucket shared by one tenant's
// subscriber send loops.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst int64) *tokenBucket {
	if burst <= 0 {
		burst = rate
	}
	return &tokenBucket{
		rate:   float64(rate),
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

// reserve takes n tokens, going negative if needed, and returns how
// long the caller must wait for the balance to return to zero. ok is
// false when n exceeds the bucket depth entirely (the request can never
// be served).
func (b *tokenBucket) reserve(n int) (wait time.Duration, ok bool) {
	if float64(n) > b.burst {
		return 0, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0, true
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second)), true
}

// tenantState is the live accounting of one tenant inside a Service.
type tenantState struct {
	name  string
	quota TenantQuota
	// bucket is nil when BytesPerSec is unlimited.
	bucket *tokenBucket
	// walBudget is the shared durable-WAL byte ledger for the tenant's
	// sessions (always non-nil; a zero MaxWALBytes means unlimited but
	// the ledger still tracks usage for the /metrics gauge).
	walBudget *WALBudget

	mu       sync.Mutex
	sessions int
	subs     int
}

func newTenantState(name string, q TenantQuota) *tenantState {
	ts := &tenantState{name: name, quota: q}
	if q.BytesPerSec > 0 {
		ts.bucket = newTokenBucket(q.BytesPerSec, q.Burst)
	}
	ts.walBudget = NewWALBudget(q.MaxWALBytes)
	return ts
}

// checkWALBudget rejects a durable session create while the tenant is
// already at or over its WAL-bytes budget. Existing sessions keep
// running — the retention sweep reclaims space cooperatively — but new
// durable state cannot be provisioned until usage drops below the cap.
func (ts *tenantState) checkWALBudget() error {
	limit := ts.quota.MaxWALBytes
	if limit <= 0 {
		return nil
	}
	if used := ts.walBudget.Used(); used >= limit {
		return &QuotaError{Tenant: ts.name, Resource: "wal_bytes", Limit: uint64(limit), Used: uint64(used)}
	}
	return nil
}

// acquireSession claims one session slot, or fails with a QuotaError.
func (ts *tenantState) acquireSession() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.quota.MaxSessions > 0 && ts.sessions >= ts.quota.MaxSessions {
		return &QuotaError{Tenant: ts.name, Resource: "sessions", Limit: uint64(ts.quota.MaxSessions), Used: uint64(ts.sessions)}
	}
	ts.sessions++
	return nil
}

func (ts *tenantState) releaseSession() {
	ts.mu.Lock()
	if ts.sessions > 0 {
		ts.sessions--
	}
	ts.mu.Unlock()
}

// acquireSub claims one subscriber slot, or fails with a QuotaError.
func (ts *tenantState) acquireSub() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.quota.MaxSubscribers > 0 && ts.subs >= ts.quota.MaxSubscribers {
		return &QuotaError{Tenant: ts.name, Resource: "subscribers", Limit: uint64(ts.quota.MaxSubscribers), Used: uint64(ts.subs)}
	}
	ts.subs++
	return nil
}

func (ts *tenantState) releaseSub() {
	ts.mu.Lock()
	if ts.subs > 0 {
		ts.subs--
	}
	ts.mu.Unlock()
}

// throttle waits for the rate limiter to cover n bytes (no-op when the
// tenant is unlimited), calling beforeSleep (when set) ahead of an
// actual sleep. An oversized write fails with a QuotaError.
func (ts *tenantState) throttle(ctx context.Context, n int, beforeSleep func() error) error {
	if ts.bucket == nil {
		return nil
	}
	d, ok := ts.bucket.reserve(n)
	if !ok {
		return &QuotaError{Tenant: ts.name, Resource: "bytes_per_sec", Limit: uint64(ts.quota.BytesPerSec), Used: uint64(n)}
	}
	if d <= 0 {
		return nil
	}
	if beforeSleep != nil {
		if err := beforeSleep(); err != nil {
			return err
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
