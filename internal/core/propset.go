package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"switchmon/internal/obs/statesize"
	"switchmon/internal/property"
)

// propHost is the half of the property lifecycle that differs between
// engines: where the engine stands in its stream, and how a compiled
// property reaches (or leaves) the monitor or monitors that run it.
type propHost interface {
	// admits reports the error lifecycle operations fail with, if the
	// engine no longer takes any (a closed ShardedMonitor).
	admits() error
	// position reports the engine's event count — the sequence number
	// install records and loss marks carry — whether the engine is live
	// (it has taken in an event), and the clock a live install is stamped
	// with as its soundness watermark.
	position() (seq uint64, live bool, now time.Time)
	// place makes cp resident at slot on every monitor of the engine and
	// evict purges the slot from every monitor, each at one point in the
	// engine's event order.
	place(slot int, cp *compiledProp)
	evict(slot int)
}

// propSet is the property lifecycle, written once and embedded by both
// engines: the slot table, the duplicate-name and capacity checks, the
// one compile, the epoch rule, the ledger's install and remove records,
// and the loss marks and reports that are defined over "every installed
// property". A ShardedMonitor's shards are Monitors that borrow the
// router's ledger, state tracker and quarantine mask and leave the rest
// of their own propSet unused — the router runs the lifecycle for them.
type propSet struct {
	// mu is the engine's admin lock. It serialises the lifecycle
	// operations, Properties and MarkLoss against the goroutine that feeds
	// the engine — Monitor.Feed and AdvanceTo, every router-side entry
	// point of a ShardedMonitor. Monitor.HandleEvent and Flush, the
	// single-threaded entry points the dataplane, the shard workers and
	// the benchmarks drive, never take it.
	mu   sync.Mutex
	host propHost
	// names maps slot to installed property name; "" is a tombstone left
	// by a removal, reused by the next install. limit caps the table.
	names []string
	limit int
	// epoch is the property-set lifecycle epoch: 0 for the startup set,
	// bumped by every install and remove on a live engine. Atomic so
	// Stats, /healthz and /state read it without the lock.
	epoch atomic.Uint64
	// ledger is the engine's soundness record (never nil) and state its
	// state-cost accounting store (nil when accounting is disabled; every
	// accounting method is nil-receiver safe).
	ledger *Ledger
	state  *statesize.Tracker
	// quar is the engine-wide quarantine mask, shared by pointer with
	// every shard: set by whichever monitor recovers the panic, read by
	// the router (to stop routing) and by the other shards (to purge
	// their own instances).
	quar *atomic.Uint64
}

// setup builds the engine-wide pieces for an engine of the given shard
// count and property capacity.
func (ps *propSet) setup(host propHost, cfg Config, shards, limit int) {
	ps.host, ps.limit = host, limit
	ps.ledger = newLedger()
	ps.ledger.instrument(cfg.Metrics, cfg.MetricsLabels)
	ps.quar = new(atomic.Uint64)
	// Tenant quotas are enforced through the tracker's tenant cells, so
	// configuring quotas forces accounting on even when benchmarking asked
	// for it off. Per-property accounting series carry the engine-level
	// labels only (like propMetrics), never a shard label.
	if !cfg.DisableStateAccounting || len(cfg.TenantQuotas) > 0 {
		ps.state = statesize.NewTracker(statesize.Config{
			Shards:    shards,
			TopK:      cfg.StateTopK,
			SampleN:   cfg.StateSample,
			Watermark: cfg.StateWatermark,
			Metrics:   cfg.Metrics,
			Labels:    cfg.MetricsLabels,
		})
	}
}

// updateMask sets and clears bits of an atomic mask, reporting whether
// the mask changed. (go.mod says go 1.22, which has no Uint64.Or/And.)
func updateMask(m *atomic.Uint64, set, clear uint64) bool {
	for {
		old := m.Load()
		next := old&^clear | set
		if next == old {
			return false
		}
		if m.CompareAndSwap(old, next) {
			return true
		}
	}
}

// Ledger returns the engine's soundness ledger. Safe to read (Snapshot,
// Sound) from any goroutine without a barrier — it is what /healthz
// polls live.
func (ps *propSet) Ledger() *Ledger { return ps.ledger }

// Epoch reports the property-set lifecycle epoch (see
// Stats.LifecycleEpoch). Safe from any goroutine.
func (ps *propSet) Epoch() uint64 { return ps.epoch.Load() }

// Quarantined reports the engine-wide bitmask of quarantined property
// slots. Safe from any goroutine.
func (ps *propSet) Quarantined() uint64 { return ps.quar.Load() }

// StateReport snapshots the engine's state-cost accounting (per
// property, per shard, with heavy-hitter keys) and cross-references each
// property against quarantine and the soundness ledger. Deliberately
// barrier-free — it is what /state polls while the engine runs — so
// totals are per-field consistent, not a frozen transaction; exact
// agreement with ActiveInstances holds once the engine quiesces. With
// accounting disabled the report is empty.
func (ps *propSet) StateReport() statesize.Report {
	r := ps.state.Report()
	annotateReport(&r, ps.quar.Load(), ps.ledger)
	return r
}

// Properties lists the installed property names (tombstoned slots
// omitted), in slot order.
func (ps *propSet) Properties() []string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]string, 0, len(ps.names))
	for _, n := range ps.names {
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// MarkFeedLoss records that n events were lost upstream of the engine (a
// lossy link or OOB channel, an injected drop): every installed property
// is marked unsound, because any of them might have needed the lost
// events. at is the stream time of the loss; detail is free text.
func (ps *propSet) MarkFeedLoss(at time.Time, n uint64, detail string) {
	ps.MarkLoss(UnsoundInjectedLoss, at, n, detail)
}

// MarkLoss is MarkFeedLoss with an explicit reason — the collector uses
// it to record sequence-number gaps as wire loss rather than injected
// loss, keeping the two degradation paths distinguishable in /healthz.
func (ps *propSet) MarkLoss(reason UnsoundReason, at time.Time, n uint64, detail string) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	seq, _, _ := ps.host.position()
	ps.ledger.markInstalled(reason, seq, at, n, detail)
}

// AddProperty compiles and installs a property, before or after the
// engine has seen its first event. The property is sound from here: a
// live install stamps its install-point watermark into the ledger, so
// losses that predate it never mark the property. Installing a name
// that is already installed is an error (RemoveProperty it first, or
// use ReplaceProperty).
func (ps *propSet) AddProperty(p *property.Property) error { return ps.put(p, false) }

// ReplaceProperty swaps the named property for a fresh compile — remove
// (when installed) then install under one critical section, so no event
// falls between the two. On a live engine that is two epoch bumps, and
// the ledger marks the property reinstalled: verdicts are sound from
// the new install point only. A definition that does not compile leaves
// the installed property untouched.
func (ps *propSet) ReplaceProperty(p *property.Property) error { return ps.put(p, true) }

// RemoveProperty uninstalls the named property: routing to it closes,
// its live instances are purged and pending timers cancelled on every
// monitor, its accounting is refunded, and its quarantine bit (if any)
// is cleared so a later install into the reused slot starts clean. The
// property's unsound marks survive removal — degradation history is
// part of the record.
func (ps *propSet) RemoveProperty(name string) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := ps.host.admits(); err != nil {
		return err
	}
	slot := ps.slotOf(name)
	if slot < 0 {
		return fmt.Errorf("core: property %q not installed", name)
	}
	ps.remove(slot)
	return nil
}

// slotOf finds the slot holding the named property, or -1.
func (ps *propSet) slotOf(name string) int {
	for i, n := range ps.names {
		if n == name {
			return i
		}
	}
	return -1
}

// put is install and replace. Everything that can fail — the engine
// refusing, a duplicate name, the compile, the capacity check — happens
// before the set is touched, so a failed operation leaves Properties,
// Epoch, the live instances and the ledger exactly as they were.
func (ps *propSet) put(p *property.Property, replace bool) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := ps.host.admits(); err != nil {
		return err
	}
	old := ps.slotOf(p.Name)
	if old >= 0 && !replace {
		return fmt.Errorf("core: property %q already installed", p.Name)
	}
	cp, err := compile(p)
	if err != nil {
		return err
	}
	if old < 0 && ps.slotOf("") < 0 && len(ps.names) >= ps.limit {
		return fmt.Errorf("core: engine supports at most %d properties", ps.limit)
	}
	if old >= 0 {
		ps.remove(old)
	}
	// The first tombstone (a replaced property has just left one), else a
	// fresh slot.
	slot := ps.slotOf("")
	if slot < 0 {
		slot = len(ps.names)
		ps.names = append(ps.names, "")
	}
	ps.state.InstallTenant(slot, p.Name, p.Tenant)
	ps.host.place(slot, cp)
	ps.names[slot] = p.Name
	seq, live, now := ps.host.position()
	var at time.Time
	if live {
		// A live install gets the engine's clock as its soundness
		// watermark; startup installs keep the zero time, so they are
		// accountable for the whole run.
		at = now
		ps.epoch.Add(1)
	}
	ps.ledger.RecordInstall(p.Name, p.Tenant, ps.epoch.Load(), seq, at)
	return nil
}

// remove tombstones the slot, purges it from every monitor and retires
// it from the shared accounting exactly once, after every monitor has
// stopped touching it. The engine-wide quarantine bit is cleared before
// the eviction, so no shard re-adopts it onto the slot about to be
// freed, and again after — a shard may still publish a quarantine for
// the property while draining the events queued ahead of the eviction.
func (ps *propSet) remove(slot int) {
	name, bit := ps.names[slot], uint64(1)<<uint(slot)
	ps.names[slot] = ""
	updateMask(ps.quar, 0, bit)
	ps.host.evict(slot)
	updateMask(ps.quar, 0, bit)
	ps.state.Uninstall(slot)
	if _, live, _ := ps.host.position(); live {
		ps.epoch.Add(1)
	}
	ps.ledger.RecordRemove(name)
}
