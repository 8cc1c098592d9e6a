package core

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"switchmon/internal/obs"
)

// UnsoundReason classifies why a property's verdicts stopped being
// trustworthy. The paper's premise is that the monitor sees everything
// the switch does; once that stops being true — a property quarantined
// after a panic, loss injected into the feed or on the wire, events or
// instances refused by a tenant quota, an instance evicted by the state
// cap — the engine must say so rather than keep reporting verdicts as if
// nothing happened. Each reason names one way the "sees everything"
// assumption broke. (A full shard queue is not one of them: it blocks
// the router and loses nothing.)
type UnsoundReason uint8

// Reasons a property can be marked unsound.
const (
	// UnsoundQuarantine: the property's step panicked; the property was
	// quarantined and sees no further events anywhere.
	UnsoundQuarantine UnsoundReason = iota
	// UnsoundInjectedLoss: the event feed itself reported losing events
	// (fault injection, a lossy OOB channel) via MarkFeedLoss.
	UnsoundInjectedLoss
	// UnsoundSplitOverflow: split-mode queue overflow dropped events
	// before they reached monitor state.
	UnsoundSplitOverflow
	// UnsoundWireLoss: events were lost between a switch-side exporter
	// and the central collector — shed from the exporter's bounded send
	// queue, unacknowledged at a disconnect, or dropped on the link
	// itself. Detected as sequence-number gaps by the collector and as
	// local queue accounting by the exporter.
	UnsoundWireLoss
	// UnsoundReinstalled: the property was removed and later installed
	// again under the same name. Verdicts are sound from the newest
	// install point, but the stream between remove and reinstall is a
	// documented gap — absence of a violation across it proves nothing.
	UnsoundReinstalled
	// UnsoundQuota: events or instances belonging to the property's
	// tenant were rejected by a per-tenant quota (instance cap or shard
	// queue share). The loss is confined to that tenant's properties.
	UnsoundQuota
	// UnsoundEvicted: the MaxInstances cap evicted one of the property's
	// live instances, and with it any verdict the instance still owed. The
	// mark's Events counts evicted instances, not lost events.
	UnsoundEvicted
)

// String names the reason.
func (r UnsoundReason) String() string {
	switch r {
	case UnsoundQuarantine:
		return "quarantine"
	case UnsoundInjectedLoss:
		return "injected-loss"
	case UnsoundSplitOverflow:
		return "split-overflow"
	case UnsoundWireLoss:
		return "wire-loss"
	case UnsoundReinstalled:
		return "reinstalled"
	case UnsoundQuota:
		return "quota"
	case UnsoundEvicted:
		return "evicted"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the reason as its name, so ledger snapshots are
// readable on /healthz and in NDJSON output.
func (r UnsoundReason) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.String())
}

// UnsoundMark is one property's degradation record: the first moment its
// verdicts stopped being complete, and how much has been lost since. A
// marked property can still report violations — they are real — but the
// absence of a violation no longer means the property held.
type UnsoundMark struct {
	Property string        `json:"property"`
	Reason   UnsoundReason `json:"reason"`
	// SinceSeq is the engine's applied-event sequence number at the first
	// mark (shard-local under sharding, router-submitted for feed loss).
	SinceSeq uint64 `json:"since_seq"`
	// SinceTime is the virtual time of the first mark.
	SinceTime time.Time `json:"since_time"`
	// Events counts events known lost to this property since the mark.
	// Zero for quarantine, where the loss is open-ended.
	Events uint64 `json:"events"`
	Detail string `json:"detail,omitempty"`
}

// Ledger is the per-property soundness record shared by an engine and
// its observers. The engine marks it on the degradation paths (quota,
// quarantine, overflow, eviction, reported feed loss) — never on the
// clean hot path — and observers (Stats, /healthz, the exit report)
// snapshot it from any goroutine. A property keeps its first mark's reason and
// since-point; later marks only accumulate the loss count.
type Ledger struct {
	mu        sync.Mutex
	marks     map[string]*UnsoundMark
	quarProps map[string]bool
	installs  map[string]*InstallRecord
	// The per-reason loss totals (atomic: their series read them).
	loss     atomic.Uint64
	overflow atomic.Uint64
	wire     atomic.Uint64
	quota    atomic.Uint64

	// unsoundG mirrors len(marks) (nil-safe no-op when uninstrumented).
	unsoundG *obs.Gauge
}

// InstallRecord is one property's install-point watermark: when (and in
// which lifecycle epoch) the property was last installed. A property is
// sound *from here*, not from process start — losses that predate the
// watermark never mark it. Generation counts installs under this name;
// a generation above one means the name was removed and reinstalled.
type InstallRecord struct {
	Property string `json:"property"`
	Tenant   string `json:"tenant,omitempty"`
	// Epoch is the engine's lifecycle epoch at install (0 for the
	// startup property set, then one per Install/Remove/Replace).
	Epoch uint64 `json:"epoch"`
	// Seq is the engine's applied-event sequence number at install.
	Seq uint64 `json:"since_seq"`
	// At is the virtual install time; zero for startup installs, which
	// are sound from the beginning of the stream.
	At         time.Time `json:"installed_at"`
	Generation int       `json:"generation"`
	removed    bool
}

func newLedger() *Ledger {
	return &Ledger{
		marks:     map[string]*UnsoundMark{},
		quarProps: map[string]bool{},
		installs:  map[string]*InstallRecord{},
	}
}

// NewLedger creates a standalone soundness ledger. Engines build their
// own internally; the exported constructor exists for components that
// track degradation without owning an engine — the switch-side exporter
// records its wire losses here so a switchmon -export process can report
// them exactly like in-process shedding.
func NewLedger() *Ledger { return newLedger() }

// instrument registers the ledger's series. Registration happens once at
// engine construction; the counters read the ledger's own counts.
func (l *Ledger) instrument(reg *obs.Registry, labels []obs.Label) {
	if reg == nil {
		return
	}
	l.unsoundG = reg.Gauge("switchmon_monitor_unsound_properties",
		"Properties whose verdicts are degraded (shed, quarantined, or lossy feed).", labels...)
	reg.CounterFunc("switchmon_ledger_quarantined_properties_total",
		"Properties quarantined after a panic in their step.", l.quarantined, labels...)
	reg.CounterFunc("switchmon_ledger_injected_loss_events_total",
		"Feed events reported lost upstream of the monitor.", l.loss.Load, labels...)
	reg.CounterFunc("switchmon_ledger_overflow_events_total",
		"Events dropped by split-mode queue overflow.", l.overflow.Load, labels...)
	reg.CounterFunc("switchmon_ledger_wire_loss_events_total",
		"Events lost between exporter and collector (gaps, shed batches, unacked disconnects).", l.wire.Load, labels...)
	reg.CounterFunc("switchmon_ledger_quota_events_total",
		"Events and instances rejected by per-tenant quotas.", l.quota.Load, labels...)
}

// Mark records that prop became (or stays) unsound for reason. The first
// mark pins the since-point; subsequent marks add n to the loss count.
// A loss whose time predates the property's install-point watermark is
// dropped: the property was not installed when those events flowed, so
// its verdicts owe nothing for them. Safe from any goroutine.
func (l *Ledger) Mark(prop string, reason UnsoundReason, seq uint64, at time.Time, n uint64, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec := l.installs[prop]; rec == nil || !rec.predates(at) {
		l.markLocked(prop, reason, seq, at, n, detail)
	}
}

// markInstalled records a loss no property can be excused from — feed
// loss, wire loss, a split-mode overflow: every installed property is
// marked as by Mark (the install watermark still excuses a property
// installed after the loss), then the reason's aggregate counts the n
// events once, however many properties they could have affected.
func (l *Ledger) markInstalled(reason UnsoundReason, seq uint64, at time.Time, n uint64, detail string) {
	l.mu.Lock()
	for prop, rec := range l.installs {
		if !rec.removed && !rec.predates(at) {
			l.markLocked(prop, reason, seq, at, n, detail)
		}
	}
	l.mu.Unlock()
	l.recordLost(reason, n)
}

// predates reports whether a loss at the given time came before the
// record's install-point watermark.
func (rec *InstallRecord) predates(at time.Time) bool {
	return !rec.At.IsZero() && at.Before(rec.At)
}

func (l *Ledger) markLocked(prop string, reason UnsoundReason, seq uint64, at time.Time, n uint64, detail string) {
	m := l.marks[prop]
	if m == nil {
		m = &UnsoundMark{Property: prop, Reason: reason, SinceSeq: seq, SinceTime: at, Detail: detail}
		l.marks[prop] = m
		l.unsoundG.Set(int64(len(l.marks)))
	}
	m.Events += n
	if reason == UnsoundQuarantine {
		l.quarProps[prop] = true
	}
}

// RecordInstall stamps prop's install-point watermark: sound from (at,
// seq) in lifecycle epoch. A zero at means "sound from the beginning of
// the stream" (the startup property set). Installing a name that was
// installed before reports reinstalled=true and — because the stream
// between remove and reinstall is a verdict gap — records an
// UnsoundReinstalled mark (first-mark-wins: an earlier mark survives
// with its original reason). Safe from any goroutine.
func (l *Ledger) RecordInstall(prop, tenant string, epoch, seq uint64, at time.Time) (reinstalled bool) {
	l.mu.Lock()
	rec := l.installs[prop]
	if rec == nil {
		rec = &InstallRecord{Property: prop}
		l.installs[prop] = rec
	} else {
		reinstalled = true
	}
	rec.Tenant = tenant
	rec.Epoch = epoch
	rec.Seq = seq
	rec.At = at
	rec.Generation++
	rec.removed = false
	if reinstalled {
		l.markLocked(prop, UnsoundReinstalled, seq, at, 0,
			"removed and reinstalled; verdicts sound from the newest install point")
	}
	l.mu.Unlock()
	return reinstalled
}

// RecordRemove retires prop's install record from InstallSnapshot while
// keeping its generation (so a later install of the same name counts as
// a reinstall) and any unsound marks (degradation history survives the
// property). Safe from any goroutine.
func (l *Ledger) RecordRemove(prop string) {
	l.mu.Lock()
	if rec := l.installs[prop]; rec != nil {
		rec.removed = true
	}
	l.mu.Unlock()
}

// InstallEpoch reports the lifecycle epoch prop was last installed in,
// and whether it is currently installed.
func (l *Ledger) InstallEpoch(prop string) (epoch uint64, installed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.installs[prop]
	if rec == nil || rec.removed {
		return 0, false
	}
	return rec.Epoch, true
}

// InstallSnapshot returns the live properties' install records sorted by
// name. Removed properties are omitted; the result is a copy.
func (l *Ledger) InstallSnapshot() []InstallRecord {
	l.mu.Lock()
	out := make([]InstallRecord, 0, len(l.installs))
	for _, rec := range l.installs {
		if !rec.removed {
			out = append(out, *rec)
		}
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Property < out[j].Property })
	return out
}

// recordLost adds n lost events to the reason's aggregate counters —
// once per loss occurrence, regardless of how many properties the lost
// events could have affected (Mark handles per-property attribution).
func (l *Ledger) recordLost(reason UnsoundReason, n uint64) {
	switch reason {
	case UnsoundInjectedLoss:
		l.loss.Add(n)
	case UnsoundSplitOverflow:
		l.overflow.Add(n)
	case UnsoundWireLoss:
		l.wire.Add(n)
	case UnsoundQuota:
		l.quota.Add(n)
	}
}

// RecordLost adds n lost events to the reason's aggregate counter
// without touching per-property marks — the exported half of the mark
// protocol for components (the exporter) that attribute loss themselves
// via Mark and still want the aggregate series to move.
func (l *Ledger) RecordLost(reason UnsoundReason, n uint64) { l.recordLost(reason, n) }

// Sound reports whether every installed property's verdicts are still
// complete — no marks of any kind.
func (l *Ledger) Sound() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.marks) == 0
}

// Snapshot returns the marks sorted by property name. Safe from any
// goroutine; the result is a copy.
func (l *Ledger) Snapshot() []UnsoundMark {
	l.mu.Lock()
	out := make([]UnsoundMark, 0, len(l.marks))
	for _, m := range l.marks {
		out = append(out, *m)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Property < out[j].Property })
	return out
}

// quarantined reports the count of quarantined properties, surfaced
// through Stats.
func (l *Ledger) quarantined() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.quarProps))
}
