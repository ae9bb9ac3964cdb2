package netstream

// Supervision: a pipeline session runs as a restartable unit. A failed
// (or panicked) session is restarted with exponential backoff until the
// restart budget — N restarts per sliding window — is exhausted, at
// which point the session is quarantined: no further restarts, the
// terminal error is surfaced on /healthz, and the durable log stays
// resumable for the next daemon start. Combined with the hub's recovery
// suppression (BeginRecovery), a restarted session continues the WAL
// sequence with no duplicates and no gaps.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQuarantined marks the terminal error of a session that exhausted
// its restart budget; callers match it with errors.Is.
var ErrQuarantined = errors.New("netstream: session quarantined")

// Supervisor restarts a failing session within a budget.
type Supervisor struct {
	budget  int
	window  time.Duration
	backoff time.Duration
	logf    func(format string, args ...any)

	restarts    atomic.Uint64
	quarantined atomic.Bool

	mu     sync.Mutex
	recent []time.Time
}

// NewSupervisor builds a supervisor. budget is the number of restarts
// tolerated per window before quarantine (default 3), window the
// sliding budget window (default 1 minute), backoff the base restart
// delay, doubled per consecutive failure (default 100ms). logf is
// nil-safe.
func NewSupervisor(budget int, window, backoff time.Duration, logf func(string, ...any)) *Supervisor {
	if budget <= 0 {
		budget = 3
	}
	if window <= 0 {
		window = time.Minute
	}
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	return &Supervisor{budget: budget, window: window, backoff: backoff, logf: logf}
}

// Restarts returns how many times the supervisor restarted the session.
func (sv *Supervisor) Restarts() uint64 { return sv.restarts.Load() }

// Quarantined reports whether the restart budget was exhausted.
func (sv *Supervisor) Quarantined() bool { return sv.quarantined.Load() }

func (sv *Supervisor) log(format string, args ...any) {
	if sv.logf != nil {
		sv.logf(format, args...)
	}
}

// runSession executes one attempt, converting a panic into an error so
// a crashing pipeline component cannot take the daemon down.
func runSession(ctx context.Context, session func(context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("netstream: session panic: %v\n%s", r, debug.Stack())
		}
	}()
	return session(ctx)
}

// Run drives session until it succeeds, the context is cancelled, or
// the restart budget is exhausted (quarantine). The returned error is
// nil on success, the session's error on cancellation, and a
// quarantine-wrapped error once the budget runs out.
func (sv *Supervisor) Run(ctx context.Context, session func(context.Context) error) error {
	consecutive := 0
	for {
		err := runSession(ctx, session)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			return err
		}
		now := time.Now()
		sv.mu.Lock()
		keep := sv.recent[:0]
		for _, t := range sv.recent {
			if now.Sub(t) <= sv.window {
				keep = append(keep, t)
			}
		}
		sv.recent = keep
		over := len(sv.recent) >= sv.budget
		if !over {
			sv.recent = append(sv.recent, now)
		}
		sv.mu.Unlock()
		if over {
			sv.quarantined.Store(true)
			sv.log("session quarantined after %d restarts in %v: %v", sv.budget, sv.window, err)
			return fmt.Errorf("%w after %d restarts in %v: %v", ErrQuarantined, sv.budget, sv.window, err)
		}
		sv.restarts.Add(1)
		delay := sv.backoff << consecutive
		if maxDelay := 30 * sv.backoff; delay > maxDelay {
			delay = maxDelay
		}
		consecutive++
		sv.log("session failed (%v); restart %d in %v", err, sv.restarts.Load(), delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return err
		}
	}
}
