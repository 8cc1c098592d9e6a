package core

import (
	"time"

	"switchmon/internal/obs/statesize"
	"switchmon/internal/property"
)

// Engine is the surface a monitoring process drives an engine through:
// apply a property set, feed the event stream, settle, and read
// the verdict accounting. *Monitor and *ShardedMonitor both satisfy it
// directly, so a daemon picks its engine with one assignment and every
// line after that — the feed loop, the /properties admin endpoint,
// /healthz, /state, the exit report — is written once against this type.
// All methods are safe to call from the admin goroutine while another
// goroutine feeds.
type Engine interface {
	// Apply makes a set the engine's whole set at an epoch, in one step,
	// on a live engine too; AddProperty is Apply at the engine's epoch
	// with one property added. Properties lists the installed names and
	// Epoch is the last Apply's epoch, 0 for the startup set.
	Apply(epoch uint64, props []*property.Property) error
	AddProperty(p *property.Property) error
	Properties() []string
	Epoch() uint64
	// Feed is the per-event step: advance the engine's clock to e.Time
	// when event time has moved forward (firing due timers), then apply
	// e. A stream that lags (another switch behind this one) leaves the
	// clock alone.
	Feed(e Event)
	// AdvanceTo settles everything fed so far, then advances the clock
	// to t, firing the timers due by then; a t that is not ahead of the
	// clock only settles. It blocks until the engine is there.
	AdvanceTo(t time.Time)
	// MarkFeedLoss records n events lost upstream of the engine at
	// stream time at, marking every installed property unsound.
	MarkFeedLoss(at time.Time, n uint64, detail string)
	// Stats snapshots the activity counters, Ledger is the per-property
	// soundness record behind /healthz, and StateReport the state-cost
	// accounting behind /state.
	Stats() Stats
	Ledger() *Ledger
	StateReport() statesize.Report
}

var (
	_ Engine = (*Monitor)(nil)
	_ Engine = (*ShardedMonitor)(nil)
)
