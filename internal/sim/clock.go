// Package sim provides the deterministic simulation substrate: a
// Scheduler, which runs an ordered task queue and deadline sources on a
// virtual clock, and seeded randomness helpers.
//
// The monitor's windows and timeouts, the dataplane's rule expirations
// and the simulated network run on a Scheduler. Virtual time moves only
// when the scheduler runs (Run, RunUntil, RunFor), so simulations, tests
// and benchmarks are reproducible and a timeout fires without sleeping.
// A live engine moves its schedulers to each event's timestamp rather
// than reading the wall clock; the wire, exporter and telemetry code
// outside the engine reads time.Now.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// VirtualClock is a manually advanced clock, safe for concurrent use. The
// zero value is not usable; create one with NewVirtualClock.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// Epoch is the conventional start time for virtual clocks in this
// repository. Using a fixed epoch keeps traces and test expectations
// byte-for-byte stable.
var Epoch = time.Date(2016, time.November, 9, 0, 0, 0, 0, time.UTC)

// NewVirtualClock returns a VirtualClock starting at Epoch.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: Epoch}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. It panics if d is negative:
// virtual time, like real time, never runs backwards.
func (c *VirtualClock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: cannot advance clock by negative duration %v", d))
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Set moves the clock to exactly t. It panics if t is before the current
// time.
func (c *VirtualClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Before(c.now) {
		panic(fmt.Sprintf("sim: cannot set clock backwards from %v to %v", c.now, t))
	}
	c.now = t
}
