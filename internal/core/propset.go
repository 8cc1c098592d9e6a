package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"switchmon/internal/obs/statesize"
	"switchmon/internal/property"
)

// propHost is the half of the property lifecycle that differs between
// engines: where the engine stands in its stream, and which monitors run
// its properties.
type propHost interface {
	// admits reports the error Apply fails with, if the engine no longer
	// takes one (a closed ShardedMonitor).
	admits() error
	// position reports the engine's event count — the sequence number
	// install records and loss marks carry — whether the engine is live
	// (it has taken in an event), and the clock a live install is stamped
	// with as its soundness watermark.
	position() (seq uint64, live bool, now time.Time)
	// stop runs evict on every monitor of the engine at one point in its
	// event order (one fence, on a started ShardedMonitor) and returns the
	// monitors, for the caller to change further while it holds mu.
	stop(evict func(*Monitor)) []*Monitor
	// routed tells the engine its monitors now run another set (a
	// ShardedMonitor rebuilds its routing from it).
	routed()
}

// propSet is the property lifecycle, written once and embedded by both
// engines: the slot table, the one set apply (its duplicate-name and
// capacity checks and compile, then one change of every monitor), the
// epoch, the ledger's install and remove records, and the loss marks and
// reports that are defined over "every installed property". A
// ShardedMonitor's shards are Monitors that borrow the router's ledger,
// state tracker and quarantine mask and leave the rest of their own
// propSet unused — the router runs the lifecycle for them.
type propSet struct {
	// mu is the engine's admin lock. It serialises Apply, Properties and
	// MarkLoss against the goroutine that feeds the engine — Monitor.Feed
	// and AdvanceTo, every router-side entry point of a ShardedMonitor —
	// so every event is judged by one whole set. Monitor.HandleEvent and
	// Flush, the single-threaded entry points the dataplane, the shard
	// workers and the benchmarks drive, never take it.
	mu   sync.Mutex
	host propHost
	// slots maps slot to installed property; nil is a tombstone left by a
	// removal, reused by the next install. limit caps the table.
	slots []*property.Property
	limit int
	// epoch is the epoch of the set the engine runs: the last Apply's, 0
	// for the startup set. Atomic so Stats, /healthz and /state read it
	// without the lock.
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

// Epoch reports the epoch of the set the engine runs (see
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
	out := []string{}
	for _, p := range ps.installed() {
		out = append(out, p.Name)
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

// Apply makes props the engine's whole set, at epoch: a running property
// props lacks is removed (its instances, timers and accounting purged on
// every monitor; its unsound marks survive), one it adds or holds with
// another tenant or definition is installed, and one it holds alike
// (same name, tenant and property.Format text) keeps running. Everything
// that can fail — a closed engine, a name given twice, a compile, the
// capacity — is checked first, so a refused Apply changes nothing; the
// change is one step, with nothing fed between its parts. The ledger
// records each install at epoch, sound from its install point; a name
// installed before is marked reinstalled.
func (ps *propSet) Apply(epoch uint64, props []*property.Property) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.apply(epoch, props)
}

// AddProperty is Apply at the engine's epoch with p added to its set. The
// installed properties keep running, neither recompiled nor reformatted.
// It is not part of Engine, where a set enters by one Apply; it serves
// the benchmarks, the examples and internal/backend's approaches, which
// hand one property at a time to an engine of their own.
func (ps *propSet) AddProperty(p *property.Property) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.apply(ps.epoch.Load(), append(ps.installed(), p))
}

// installed lists the installed properties in slot order. Caller holds
// mu.
func (ps *propSet) installed() []*property.Property {
	return slices.DeleteFunc(slices.Clone(ps.slots), func(p *property.Property) bool { return p == nil })
}

// CheckSet reports whether a collector's engine, a ShardedMonitor, takes
// props as its whole set: Apply's checks, for a tier that edits a set
// without running one.
func CheckSet(props []*property.Property) error {
	_, err := compileSet(props, maxShardedProperties, func(*property.Property) bool { return false })
	return err
}

// compileSet is Apply's check: props name each property once and hold at
// most limit, and each one running does not report compiles. It returns
// the compiles, nil where running reported true.
func compileSet(props []*property.Property, limit int, running func(*property.Property) bool) ([]*compiledProp, error) {
	if len(props) > limit {
		return nil, fmt.Errorf("core: engine supports at most %d properties", limit)
	}
	cps := make([]*compiledProp, len(props))
	seen := make(map[string]bool, len(props))
	for i, p := range props {
		if seen[p.Name] {
			return nil, fmt.Errorf("core: property %q is in the set twice", p.Name)
		}
		seen[p.Name] = true
		if running(p) {
			continue
		}
		cp, err := compile(p)
		if err != nil {
			return nil, err
		}
		cps[i] = cp
	}
	return cps, nil
}

// apply is Apply with mu held. Removals come first, so an install reuses
// the slot a removal (its own name's, when it is a change) has just
// tombstoned; a slot keeps its place in the engine-wide masks.
func (ps *propSet) apply(epoch uint64, props []*property.Property) error {
	if err := ps.host.admits(); err != nil {
		return err
	}
	running := map[string]*property.Property{}
	for _, p := range ps.installed() {
		running[p.Name] = p
	}
	kept := map[string]bool{}
	cps, err := compileSet(props, ps.limit, func(p *property.Property) bool {
		old := running[p.Name]
		kept[p.Name] = old == p || old != nil && old.Tenant == p.Tenant && property.Format(old) == property.Format(p)
		return kept[p.Name]
	})
	if err != nil {
		return err
	}
	var out []int
	for slot, p := range ps.slots {
		if p != nil && !kept[p.Name] {
			out = append(out, slot)
		}
	}
	// One stop evicts from every monitor what the set lacks or changes.
	mons := ps.host.stop(func(m *Monitor) {
		for _, slot := range out {
			m.evict(slot)
		}
	})
	for _, slot := range out {
		// A shard may publish a quarantine for the property while draining
		// the events queued ahead of the fence; the slot is reused clean.
		updateMask(ps.quar, 0, uint64(1)<<uint(slot))
		ps.state.Uninstall(slot)
		ps.ledger.RecordRemove(ps.slots[slot].Name)
		ps.slots[slot] = nil
	}
	seq, live, now := ps.host.position()
	var at time.Time
	if live {
		// A live install gets the engine's clock as its soundness
		// watermark; startup installs keep the zero time, so they are
		// accountable for the whole run.
		at = now
	}
	slot := 0
	for _, cp := range cps {
		if cp == nil {
			continue
		}
		for slot < len(ps.slots) && ps.slots[slot] != nil {
			slot++
		}
		if slot == len(ps.slots) {
			ps.slots = append(ps.slots, nil)
		}
		p := cp.prop
		ps.state.InstallTenant(slot, p.Name, p.Tenant)
		for _, m := range mons {
			m.place(slot, cp)
		}
		ps.slots[slot] = p
		ps.ledger.RecordInstall(p.Name, p.Tenant, epoch, seq, at)
	}
	ps.host.routed()
	ps.epoch.Store(epoch)
	return nil
}
