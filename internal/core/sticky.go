package core

import (
	"fmt"
	"time"

	"icewafl/internal/stream"
)

// Sticky holds a triggered condition active for a fixed duration of event
// time: once Trigger fires at τ, Sticky keeps evaluating to true until
// τ + Hold. It implements error episodes such as the scale errors of
// §3.2.1, which persist "for four-hour intervals" once activated.
//
// Sticky is stateful; instantiate a fresh one per pollution run, like the
// other stateful components.
type Sticky struct {
	Trigger Condition
	Hold    time.Duration

	run stickyState
}

// NewSticky wraps trigger with a hold window.
func NewSticky(trigger Condition, hold time.Duration) *Sticky {
	return &Sticky{Trigger: trigger, Hold: hold}
}

// Eval implements Condition.
func (c *Sticky) Eval(t stream.Tuple, tau time.Time) bool {
	if c.run.Active && tau.Before(c.run.Until) {
		return true
	}
	c.run.Active = false
	if c.Trigger.Eval(t, tau) {
		c.run = stickyState{Active: true, Until: tau.Add(c.Hold)}
		return true
	}
	return false
}

// ResetRunState implements Resettable: it clears the hold state.
func (c *Sticky) ResetRunState() { c.run = stickyState{} }

// Describe implements Condition.
func (c *Sticky) Describe() string {
	return fmt.Sprintf("sticky(%s, hold %s)", c.Trigger.Describe(), c.Hold)
}
