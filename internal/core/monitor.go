package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/obs/statesize"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/packet"
	"switchmon/internal/sim"
)

// Mode is the side-effect control knob (Feature 9): does monitor state
// update inline with forwarding, or split from it?
type Mode uint8

// Processing modes.
const (
	// Inline applies every event to monitor state before HandleEvent
	// returns — forwarding pays the update latency, state never lags.
	Inline Mode = iota
	// Split queues events; state is updated when Flush is called. The
	// forwarding path is nearly free, but monitor state lags behind the
	// traffic, which can produce monitor errors — exactly the trade-off
	// the paper says switch designs should expose.
	Split
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Inline:
		return "inline"
	case Split:
		return "split"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config configures a Monitor.
type Config struct {
	Mode       Mode
	Provenance ProvLevel
	// OnViolation receives each violation report; nil means violations
	// are only counted. It runs where the engine applies events, as do
	// timer-driven reports: on the feeding goroutine with the engine's
	// admin lock held under Monitor.Feed and a one-shard ShardedMonitor
	// (in verdict order), on a shard's goroutine, one call at a time, with
	// two or more shards. On every engine a callback that calls back into
	// the engine — Feed, Stats, a lifecycle operation — can deadlock. The
	// report's Bindings and History are the same slices the Violations
	// ring holds: the callback may keep them but must not write to them.
	OnViolation func(*Violation)
	// DisableIndex forces full scans of the instance store instead of
	// keyed lookups. It exists for differential testing (indexed and
	// scanning engines must agree) and to quantify what indexing buys.
	DisableIndex bool
	// SplitFlushLimit caps the pending queue in Split mode; 0 means
	// unbounded. When an event arrives with the queue at the cap, the
	// oldest SplitFlushLimit/2 events (minimum 1) are dropped in a single
	// batch before the new event is queued — modeling a switch whose
	// slow-path update queue overflows under pressure. Every dropped
	// event counts individually in Stats.DroppedEvents: one overflow of a
	// limit-8 queue adds 4 to the counter, not 1.
	SplitFlushLimit int
	// MaxInstances caps the live instance population; 0 means unbounded.
	// When a new instance would exceed the cap, the oldest live instance
	// is evicted (and counted) — the memory-bounding answer to the
	// Sec. 3.3 scalability concern. Eviction trades completeness for
	// bounded state: an evicted instance's violation, if any, is lost, so
	// its property is marked UnsoundEvicted in the Ledger.
	MaxInstances int
	// Metrics, when non-nil, wires the engine into the telemetry
	// registry: per-property counters, a sampled apply-latency histogram,
	// and occupancy/queue gauges. Handles are resolved at construction
	// and install time; the event hot path records through atomic
	// instruments and stays allocation-free. Nil disables telemetry at
	// the cost of one pointer check per event.
	Metrics *obs.Registry
	// MetricsLabels are attached to every engine-level series this
	// monitor registers (e.g. shard="3" under a ShardedMonitor).
	// Per-property counters deliberately omit them so engines sharing a
	// registry aggregate into one series per property.
	MetricsLabels []obs.Label
	// Violations, when non-nil, receives a trace record (with as much
	// provenance as Provenance allows) for every violation — the ring
	// buffer behind a live /violations endpoint. Recording takes the
	// ring's mutex, but only on the rare violation path, and renders
	// nothing: the record shares the report's bindings and history, and
	// the ring turns bindings into strings only when it is read.
	Violations *obs.Ring
	// StateTopK sets the capacity of the per-property heavy-hitter
	// sketch behind StateReport ("which keys hold the most monitor
	// state"); 0 disables the sketch. Accounting itself (live counts,
	// bytes, timers) runs regardless.
	StateTopK int
	// StateSample samples one filing in N into the heavy-hitter sketch,
	// chosen by the filing key's identity-hash class so a given flow is
	// always in or always out; 0 or 1 observes every filing.
	StateSample uint64
	// StateWatermark is the per-property live-instance count above which
	// the state_pressure metric raises — an early warning that fires
	// before any shed or quarantine does; 0 disables watermarking.
	StateWatermark int64
	// DisableStateAccounting turns off state-cost accounting entirely
	// (StateReport returns an empty report). It exists to measure what
	// accounting costs — the E16 benchmark's baseline — mirroring
	// DisableIndex.
	DisableStateAccounting bool
	// Tracer, when non-nil, completes sampled event spans: the engine
	// stamps shard_dispatch when it picks an event up and verdict when
	// every property has stepped, then finishes the span into the
	// tracer's ring and latency histograms. Events without a span (the
	// unsampled majority) pay one pointer test.
	Tracer *tracer.Tracer
	// TenantQuotas caps resource use per tenant (property.Property.Tenant).
	// A tenant at its instance cap has new instances rejected — recorded
	// as that tenant's quota marks in the ledger, never the neighbors' —
	// and a tenant over its queue share (two or more shards) stops receiving
	// routed events until its backlog drains. Properties with no tenant,
	// or a tenant absent from this map, are unquotaed.
	TenantQuotas map[string]TenantQuota
}

// TenantQuota bounds one tenant's resource consumption.
type TenantQuota struct {
	// MaxInstances caps the tenant's live instances across all its
	// properties engine-wide; 0 = unlimited.
	MaxInstances int64
	// MaxQueued caps the tenant's queued per-shard messages at the
	// sharded engine's router; 0 = unlimited. Inline engines ignore it,
	// as does a one-shard ShardedMonitor, which queues nothing.
	MaxQueued int64
}

// ParseTenantQuotas parses the flag grammar both daemons use for
// Config.TenantQuotas: comma-separated tenant=maxInstances[:maxQueued].
// A zero field means no cap on that axis. Space around a tenant name or
// a number is dropped; a tenant named twice is an error.
func ParseTenantQuotas(spec string) (map[string]TenantQuota, error) {
	quotas := make(map[string]TenantQuota)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, vals, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant quota %q: want tenant=maxInstances[:maxQueued]", part)
		}
		if _, dup := quotas[name]; dup {
			return nil, fmt.Errorf("tenant quota %q: tenant %q named twice", part, name)
		}
		var q TenantQuota
		instStr, queuedStr, hasQueued := strings.Cut(vals, ":")
		instStr, queuedStr = strings.TrimSpace(instStr), strings.TrimSpace(queuedStr)
		var err error
		if q.MaxInstances, err = strconv.ParseInt(instStr, 10, 64); err != nil {
			return nil, fmt.Errorf("tenant quota %q: bad maxInstances %q", part, instStr)
		}
		if hasQueued {
			if q.MaxQueued, err = strconv.ParseInt(queuedStr, 10, 64); err != nil {
				return nil, fmt.Errorf("tenant quota %q: bad maxQueued %q", part, queuedStr)
			}
		}
		if q.MaxInstances < 0 || q.MaxQueued < 0 {
			return nil, fmt.Errorf("tenant quota %q: quotas must be non-negative", part)
		}
		quotas[name] = q
	}
	return quotas, nil
}

// Stats counts monitor activity. Retrieve a snapshot with Monitor.Stats.
type Stats struct {
	// Events is the number of events applied to monitor state.
	Events uint64
	// Created counts instances created at stage zero.
	Created uint64
	// Advanced counts stage advances (excluding creation).
	Advanced uint64
	// Violations counts completed patterns.
	Violations uint64
	// Discharged counts instances removed by obligation guards or by a
	// negative observation seeing its awaited event.
	Discharged uint64
	// Expired counts instances removed by a positive-stage window lapsing.
	Expired uint64
	// Deduped counts events that matched into an already-live identical
	// instance.
	Deduped uint64
	// Refreshed counts window-deadline refreshes caused by dedup hits.
	Refreshed uint64
	// Suppressed counts instances dropped (at entry or while waiting)
	// because a sticky guard permanently discharged their identity.
	Suppressed uint64
	// Evicted counts instances removed by the MaxInstances cap.
	Evicted uint64
	// DroppedEvents counts split-mode queue overflow drops, one count per
	// dropped event (not per overflow batch).
	DroppedEvents uint64
	// ShedEvents reads 0: no engine path sheds queued events — a full
	// shard queue blocks the router — and events shed by a tenant's queue
	// share are booked under the ledger's quota reason instead.
	ShedEvents uint64
	// QuarantinedProperties counts properties quarantined after a panic
	// in their step function.
	QuarantinedProperties uint64
	// LifecycleEpoch is the epoch of the set the engine runs: the last
	// Apply's (the document's), 0 for the startup set.
	LifecycleEpoch uint64
}

// evictRef is one entry in the MaxInstances FIFO. Rows are recycled, so
// the queue pins the incarnation the reference was filed under: a
// recycled row carries a later one and fails the check, which keeps a
// stale reference from evicting the new instance.
type evictRef struct {
	row uint32
	inc uint32
}

// Monitor is the property-monitoring engine. It is single-threaded by
// design: the dataplane simulator drives it from one goroutine, matching
// how a switch pipeline stage would execute. ShardedMonitor scales it
// across cores by running N of these over disjoint identity partitions.
type Monitor struct {
	// propSet is the property lifecycle and the engine-wide ledger, state
	// tracker and quarantine mask. A ShardedMonitor's shards share the
	// router's three and never run their own lifecycle.
	propSet
	sched *sim.Scheduler
	cfg   Config
	props []*compiledProp
	// buckets holds, per propIdx, one bucket per stage; st is the row
	// slab the buckets index and dl the stages' deadline queues.
	buckets [][]bucket
	st      store
	dl      deadlineSet
	seq     uint64
	pending []Event
	// pendingN mirrors len(pending) atomically so PendingEvents (and
	// the queue-depth series) can be read while a worker goroutine
	// drives the monitor.
	pendingN atomic.Int64
	stats    statsCell
	// eventNs is the sampled apply-latency histogram (nil without a
	// registry, keeping the clock off the event path); pmx holds this
	// shard's per-property counter cells, indexed by propIdx.
	eventNs *obs.Histogram
	pmx     []*propCell
	// timeIn counts applied events down to the next timed one, timeGap is
	// the gap that event closes and timeRng draws the one after (applyTimed).
	timeIn, timeGap, timeRng uint64
	// evictQueue holds instances in creation order for MaxInstances
	// eviction; entries may be stale (already removed or recycled).
	evictQueue []evictRef
	// live counts filed instances (atomic: scrapes read it).
	live atomic.Int64
	// instScratch and keyScratch are per-monitor scratch buffers for
	// matchStage's candidate collection; taken and restored around use so
	// re-entrant HandleEvent calls from an OnViolation callback fall back
	// to allocating instead of corrupting the in-use buffer.
	instScratch []uint32
	keyScratch  []uint64
	// envRow is the row seedSuppressions synthesizes identities in.
	envRow row
	// shardIdx is this monitor's cell in the state tracker and the shard
	// number its quarantine marks name (0 for an inline engine); sx holds
	// the per-property hot-path accounting handles, indexed by propIdx
	// (nil entries when accounting is disabled).
	shardIdx int
	sx       []*statesize.Handle
	// tcell and tcap are the per-property tenant quota hooks, indexed by
	// propIdx: the tenant's shared accounting cell (nil for untenanted
	// properties or when accounting is off) and its live-instance cap
	// (0 = uncapped). The hot path pays one nil check per filing.
	tcell []*statesize.TenantCell
	tcap  []int64
	// quarantined is the bitmask of properties this monitor no longer
	// steps (panicked and purged here): the engine-wide mask as of this
	// monitor's last look at it, kept as a plain word so the step loop
	// pays no atomic load. Only the first 64 slots are mask-addressable.
	quarantined uint64
	// stepProbe, when non-nil, runs at the start of every property step
	// with (propIdx, applied-event seq). It is the fault-injection hook:
	// a probe that panics simulates a bug in that property's step and is
	// recovered (and attributed) exactly like one.
	stepProbe func(prop int, seq uint64)
	// trig is the rendered summary of applied event trigSeq, shared by
	// every violation and provenance record that event produces; trigBuf
	// is the buffer it is rendered in.
	trig    string
	trigSeq uint64
	trigBuf []byte
}

// maxInlineProperties bounds a Monitor's property table: a row names its
// property in 16 bits.
const maxInlineProperties = 1 << 16

// NewMonitor creates a monitor driven by the given scheduler's clock.
func NewMonitor(sched *sim.Scheduler, cfg Config) *Monitor {
	return newMonitor(sched, cfg, nil, 0)
}

// newMonitor is NewMonitor for either role: a nil engine makes a
// standalone inline engine with its own ledger, tracker and quarantine
// mask; otherwise the monitor is shard shardIdx of the ShardedMonitor
// that owns engine, and shares those three.
func newMonitor(sched *sim.Scheduler, cfg Config, engine *propSet, shardIdx int) *Monitor {
	m := &Monitor{sched: sched, cfg: cfg, shardIdx: shardIdx,
		timeIn: 1, timeGap: 1, timeRng: timeSeed + uint64(shardIdx)}
	m.dl.m = m
	sched.AddSource(&m.dl)
	if cfg.Metrics != nil {
		m.instrument(cfg.Metrics, cfg.MetricsLabels)
	}
	if engine == nil {
		m.propSet.setup(m, cfg, 1, maxInlineProperties)
	} else {
		m.ledger, m.state, m.quar = engine.ledger, engine.state, engine.quar
	}
	return m
}

// SetStepProbe installs a fault-injection probe called at the start of
// every property step. Install before feeding events.
func (m *Monitor) SetStepProbe(fn func(prop int, seq uint64)) { m.stepProbe = fn }

// admits implements propHost: an inline engine never refuses.
func (m *Monitor) admits() error { return nil }

// stop implements propHost: an inline engine is its one monitor, and mu,
// which Feed and AdvanceTo take, is its stop.
func (m *Monitor) stop(evict func(*Monitor)) []*Monitor {
	evict(m)
	return []*Monitor{m}
}

// routed implements propHost: an inline engine routes nothing.
func (m *Monitor) routed() {}

// position implements propHost: the applied-event count, live once an
// event has been applied or queued, and the scheduler's clock.
func (m *Monitor) position() (seq uint64, live bool, now time.Time) {
	return m.seq, m.seq > 0 || len(m.pending) > 0, m.sched.Now()
}

// place makes cp resident at slot — a tombstone left by evict, or the
// next fresh slot — wiring its buckets, deadline queues, counter cell
// (its shard's of cells) and accounting handles. The engine's propSet
// chose the slot, compiled cp and registered the slot with the state
// tracker, and runs place on each of its monitors; it owns the ledger's
// install record too, so N shards sharing one ledger record one install.
func (m *Monitor) place(slot int, cp *compiledProp, cells []propCell) {
	if slot == len(m.props) {
		m.props = append(m.props, nil)
		m.buckets = append(m.buckets, nil)
		m.pmx = append(m.pmx, nil)
		m.sx = append(m.sx, nil)
		m.tcell = append(m.tcell, nil)
		m.tcap = append(m.tcap, 0)
	}
	p := cp.prop
	m.props[slot] = cp
	bs := make([]bucket, len(cp.stages))
	for si := 1; si < len(bs); si++ {
		if cp.stages[si].st.Window > 0 {
			bs[si].dq = new(deadlineQueue)
			m.dl.queues = append(m.dl.queues, bs[si].dq)
		}
	}
	m.buckets[slot] = bs
	if cells != nil {
		m.pmx[slot] = &cells[m.shardIdx]
	}
	if m.state != nil {
		m.sx[slot] = m.state.Handle(slot, m.shardIdx)
		if p.Tenant != "" {
			m.tcell[slot] = m.state.Tenant(p.Tenant)
			m.tcap[slot] = m.cfg.TenantQuotas[p.Tenant].MaxInstances
		}
	}
}

// evict is place's inverse, run by the engine's propSet on each of its
// monitors: it purges the slot's instances and timers, clears its local
// quarantine bit and tombstones it; every per-slot entry returns to its
// zero value, which is what place expects to find.
func (m *Monitor) evict(slot int) {
	m.purgeProp(slot)
	m.quarantined &^= uint64(1) << uint(slot)
	m.props[slot] = nil
	m.dl.drop(m.buckets[slot])
	m.buckets[slot] = nil
	m.pmx[slot] = nil
	m.sx[slot] = nil
	m.tcell[slot] = nil
	m.tcap[slot] = 0
}

// Stats returns a snapshot of the activity counters. The snapshot is
// assembled with atomic loads, so it may be taken from any goroutine —
// including while a split-mode worker owns the monitor and is applying
// events — without a lock and without racing the hot path.
func (m *Monitor) Stats() Stats {
	var s Stats
	m.stats.addTo(&s)
	s.QuarantinedProperties = m.ledger.quarantined()
	s.LifecycleEpoch = m.epoch.Load()
	return s
}

// ActiveInstances reports the number of live instances — the quantity
// that determines Varanus's pipeline depth (Sec. 3.3) and this engine's
// memory footprint. Like Stats, it is safe to call from any goroutine.
func (m *Monitor) ActiveInstances() int { return int(m.live.Load()) }

// PendingEvents reports the split-mode queue length. Like Stats, it is
// safe to call from any goroutine.
func (m *Monitor) PendingEvents() int { return int(m.pendingN.Load()) }

// HandleEvent feeds one event to the monitor. In Inline mode the event is
// applied immediately; in Split mode it is queued for Flush.
func (m *Monitor) HandleEvent(e Event) {
	if m.cfg.Mode == Split {
		if m.cfg.SplitFlushLimit > 0 && len(m.pending) >= m.cfg.SplitFlushLimit {
			// Overflow: drop the oldest SplitFlushLimit/2 events (minimum
			// one, so a cap of 1 still sheds) in a single batch, as a slow
			// path under pressure would. Each dropped event counts once.
			drop := m.cfg.SplitFlushLimit / 2
			if drop < 1 {
				drop = 1
			}
			if drop > len(m.pending) {
				drop = len(m.pending)
			}
			m.stats.droppedEvents.Add(uint64(drop))
			// The dropped events never reach monitor state, so every
			// property's verdicts are incomplete from here on: record the
			// loss in the soundness ledger (overflow is off the steady-state
			// path, so the ledger cost is paid only when already degraded).
			m.ledger.markInstalled(UnsoundSplitOverflow, m.seq, e.Time, uint64(drop), "split-mode queue overflow")
			m.pending = append(m.pending[:0], m.pending[drop:]...)
		}
		m.pending = append(m.pending, e)
		m.pendingN.Store(int64(len(m.pending)))
		return
	}
	m.apply(&e, allProps, allProps)
}

// Feed implements Engine: the inline driver's RunUntil-then-handle step.
// Called from inside a scheduler task (a trace replay, a dataplane
// observer) the clock is already at e.Time and only the handle runs.
func (m *Monitor) Feed(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.Time.After(m.sched.Now()) {
		m.sched.RunUntil(e.Time)
	}
	m.HandleEvent(e)
}

// AdvanceTo implements Engine: apply the split-mode queue, then run the
// scheduler up to t.
func (m *Monitor) AdvanceTo(t time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Flush()
	m.sched.RunUntil(t)
}

// Flush applies all queued events (Split mode). It reports how many were
// applied.
func (m *Monitor) Flush() int {
	n := len(m.pending)
	for i := range m.pending {
		m.apply(&m.pending[i], allProps, allProps)
	}
	m.pending = m.pending[:0]
	if n > 0 {
		m.pendingN.Store(0)
	}
	return n
}

// allProps is the routing mask of an event no router restricted.
const allProps = ^uint64(0)

// timeGapMean is the mean number of applied events per timed one; timeSeed
// (plus shardIdx) seeds the gap sequence, the same on every run.
const timeGapMean, timeSeed = 64, 0x9e3779b97f4a7c15

// apply runs one event through the properties its routing masks select:
// matchMask bits allow suppression seeding and stage >= 1 matching,
// createMask bits allow stage-zero creation. An inline engine passes
// allProps for both; a ShardedMonitor's router clears the bits its static
// analysis proves could not act at this shard. The event accounting
// happens exactly once, however many properties fail; latency is sampled.
func (m *Monitor) apply(e *Event, matchMask, createMask uint64) {
	if tr := m.cfg.Tracer; tr != nil && e.Trace != nil {
		e.Trace.Stamp(tracer.StageShardDispatch)
	}
	m.stats.events.Add(1)
	m.seq++
	if m.eventNs == nil {
		m.stepProps(0, e, m.seq, matchMask, createMask)
	} else if m.timeIn--; m.timeIn == 0 {
		m.applyTimed(e, matchMask, createMask)
	} else {
		m.stepProps(0, e, m.seq, matchMask, createMask)
	}
	if tr := m.cfg.Tracer; tr != nil && e.Trace != nil {
		e.Trace.Stamp(tracer.StageVerdict)
		tr.Finish(e.Trace)
	}
}

// applyTimed steps the event that closes a gap between wall-clock reads
// and records its latency with the gap as weight: the histogram's sum
// estimates total apply time and its count trails the event counter by less
// than a gap. Gaps are uniform on 1..2*timeGapMean-1 (xorshift64), never a
// fixed stride — an arrival/egress alternation or a six-slot round would
// time one event kind for ever — and drawn before the step, since a
// violation callback may re-enter apply.
func (m *Monitor) applyTimed(e *Event, matchMask, createMask uint64) {
	weight := m.timeGap
	m.timeRng ^= m.timeRng << 13
	m.timeRng ^= m.timeRng >> 7
	m.timeRng ^= m.timeRng << 17
	m.timeGap = 1 + m.timeRng%(2*timeGapMean-1)
	m.timeIn = m.timeGap
	start := time.Now()
	m.stepProps(0, e, m.seq, matchMask, createMask)
	m.eventNs.ObserveN(uint64(time.Since(start)), weight)
}

// stepProps is the engine's one per-property loop: it steps slots
// [from, len) under supervision. A panic in property pi's step —
// including one raised by a fault probe or by a user violation callback
// — quarantines pi and the loop resumes at pi+1, so the remaining
// properties are stepped as if nothing happened. Routing and quarantine
// masks are one word: slots past it (an inline engine takes more than 64
// properties) are stepped unconditionally.
func (m *Monitor) stepProps(from int, e *Event, seq, matchMask, createMask uint64) {
	pi := from
	defer func() {
		if cause := recover(); cause != nil {
			m.quarantine(pi, cause)
			m.stepProps(pi+1, e, seq, matchMask, createMask)
		}
	}()
	// The table is read once, as a range would read it: an install from
	// inside a step (a violation callback's) cannot move it under the loop.
	for props := m.props; pi < len(props); pi++ {
		cp := props[pi]
		if cp == nil {
			continue // tombstone: slot freed by a removal
		}
		match, create := true, true
		if pi < maxShardedProperties {
			bit := uint64(1) << uint(pi)
			match, create = matchMask&bit != 0, createMask&bit != 0
			if m.quarantined&bit != 0 || !(match || create) {
				continue
			}
		}
		if m.stepProbe != nil {
			m.stepProbe(pi, seq)
		}
		m.stepProp(pi, cp, e, seq, match, create)
	}
}

// stepProp runs one event through one property: suppression seeding and
// stage >= 1 matching when match is set, stage-zero creation when create
// is set. It is the unit of blast radius for supervision — a panic in
// here quarantines only pi.
func (m *Monitor) stepProp(pi int, cp *compiledProp, e *Event, seq uint64, match, create bool) {
	m.pmx[pi].inc(propEvents)
	bs := m.buckets[pi]
	if match {
		m.seedSuppressions(cp, bs, e)
		// Walk pending stages from the deepest back to 1 so an instance
		// advanced by this event is not advanced again, then consider
		// creating a fresh instance at stage 0 — unless a violation
		// callback removed the property on the way.
		for si := len(cp.stages) - 1; si >= 1; si-- {
			b := &bs[si]
			if b.n == 0 {
				continue
			}
			m.matchStage(pi, &cp.stages[si], b, e, seq)
		}
	}
	if create && m.props[pi] == cp {
		if stagePatternMatches(&cp.stages[0], e, env{}) {
			m.createInstance(pi, cp, e, seq)
		}
	}
}

// quarantine is the supervisor's one action, taken by whichever monitor
// recovers a panic attributed to property pi: publish pi in the
// engine-wide mask (the router stops routing to it, the other shards
// adopt it at their next unit of work), purge it here, and — first
// publisher only, so concurrent recoveries on several shards converge on
// one mark — record it in the ledger. A panic in a slot the mask cannot
// address is re-raised: nothing could stop the property being stepped
// again, and masking the panic would hide the bug.
func (m *Monitor) quarantine(pi int, cause any) {
	if pi >= maxShardedProperties {
		panic(cause)
	}
	bit := uint64(1) << uint(pi)
	first := updateMask(m.quar, bit, 0)
	// The name comes from this monitor's own table: a router may be
	// changing its name table for an unrelated lifecycle operation.
	name := m.props[pi].prop.Name
	m.quarantineLocal(bit)
	if first {
		m.ledger.Mark(name, UnsoundQuarantine, m.seq, m.sched.Now(), 0,
			fmt.Sprintf("panic on shard %d: %v", m.shardIdx, cause))
	}
}

// adoptQuarantines purges the properties another shard of the engine has
// quarantined since this monitor last looked.
func (m *Monitor) adoptQuarantines() {
	if q := m.quar.Load() &^ m.quarantined; q != 0 {
		m.quarantineLocal(q)
	}
}

// quarantineLocal stops stepping the masked properties and purges their
// live instances from this monitor, canceling their timers. Purging
// (rather than freezing) matters after a panic: the interrupted step may
// have left a property's instances half-advanced, and a cancelled
// deadline is the guarantee that no scheduler callback resurrects them.
func (m *Monitor) quarantineLocal(bits uint64) {
	m.quarantined |= bits
	for pi, cp := range m.props {
		if cp != nil && bits&(uint64(1)<<uint(pi)) != 0 {
			m.purgeProp(pi)
		}
	}
}

// purgeProp removes every live instance of property pi, canceling its
// deadlines and refunding its accounting — the shared teardown of
// quarantine and removal. A step that panicked, or one whose violation
// callback is removing pi, may also hold rows of the property in flight
// (unfiled, not yet released); those are swept back to the free chain so
// the slab stays fully accounted for. Only then is the slab walked.
func (m *Monitor) purgeProp(pi int) {
	bs := m.buckets[pi]
	for si := range bs {
		b := &bs[si]
		for b.head != 0 {
			id := b.head
			r := m.st.at(id)
			m.remove(id, r)
			m.release(id, r)
		}
	}
	if int64(int(m.st.n)-m.st.nfree) == m.live.Load() {
		return // no row in flight: every row is filed or free
	}
	for id := uint32(1); id <= m.st.n; id++ {
		if r := m.st.at(id); r.state == rowInFlight && int(r.prop) == pi {
			m.release(id, r)
		}
	}
}

// matchStage advances, discharges, or leaves alone the instances waiting
// at one stage for one event. The candidate set is the union of the index
// groups' key chains — walked with a sequence-number dedup rather than
// materialized into a set — or the whole bucket when the stage has no
// index schema (or indexing is disabled).
func (m *Monitor) matchStage(pi int, cs *compiledStage, b *bucket, e *Event, seq uint64) {
	st := cs.st
	s := &m.st
	// Pass 1: pattern matches. For positive stages a match advances; for
	// negative stages the awaited event arrived in time, so the instance
	// is discharged without violation. Matches are collected first (into a
	// scratch buffer) and acted on after, since acting refiles the rows
	// being walked.
	acted := m.instScratch[:0]
	m.instScratch = nil
	keys := m.keyScratch[:0]
	m.keyScratch = nil
	walks := 1 // the whole bucket
	scan := m.cfg.DisableIndex || (len(cs.indexGroups) == 0 && !cs.pidIndex)
	if !scan {
		keys = eventIndexKeys(cs, e, keys)
		walks = len(keys)
	}
	for i := 0; i < walks; i++ {
		w := walk{all: scan}
		if !scan {
			w.key = keys[i]
		}
		for id := b.first(w); id != 0; {
			r := s.at(id)
			// lastCandSeq: already considered under another key.
			if r.lastCandSeq != seq {
				r.lastCandSeq = seq
				if r.lastEventSeq != seq && stagePatternMatches(cs, e, env{r, s}) {
					acted = append(acted, id)
				}
			}
			id = r.after(w)
		}
	}
	m.keyScratch = keys[:0]
	cp := m.props[pi]
	for _, id := range acted {
		if m.props[pi] != cp {
			m.instScratch = acted[:0]
			return // a violation callback removed the property and its rows
		}
		r := s.at(id)
		r.lastEventSeq = seq
		if st.Negative {
			m.discharge(pi, id, r)
			continue
		}
		if st.MinCount > 1 {
			// Counting stage (quantitative extension): accumulate until
			// the threshold is reached, then advance.
			if st.CountDistinct != 0 {
				v, ok := e.Field(st.CountDistinct)
				if !ok {
					continue
				}
				seen := s.seen.at(id)
				if (*seen)[v] {
					continue
				}
				if *seen == nil {
					*seen = map[packet.Value]bool{}
				}
				(*seen)[v] = true
			}
			r.count++
			if int(r.count) < st.MinCount {
				continue
			}
		}
		m.advance(id, r, e, seq)
	}
	// Pass 2: obligation guards (Feature 4). Each guard has its own index
	// keys; guards without equality-on-variable predicates fall back to a
	// bucket scan. A guard whose gate fails cannot match any row, so it
	// costs no hash and no walk. The acted buffer is done, so it doubles as
	// the discharge buffer.
	discharged := acted[:0]
	for gi := range cs.guardIdx {
		g := &cs.guardIdx[gi]
		if !classMatches(g.class, e) || !predsHold(g.gate, e, env{}) {
			continue
		}
		w := walk{all: true}
		if !m.cfg.DisableIndex && len(g.eq) > 0 {
			key, ok := eventKey(g.keyBase, g.eq, e)
			if !ok {
				continue
			}
			w = walk{key: key}
		}
		for id := b.first(w); id != 0; {
			r := s.at(id)
			if r.lastEventSeq != seq && guardMatches(g, e, env{r, s}) {
				r.lastEventSeq = seq
				discharged = append(discharged, id)
			}
			id = r.after(w)
		}
	}
	for _, id := range discharged {
		m.discharge(pi, id, s.at(id))
	}
	m.instScratch = discharged[:0]
}

// discharge removes an instance whose obligation was met: a guard
// matched, or a negative observation saw its awaited event.
func (m *Monitor) discharge(pi int, id uint32, r *row) {
	m.remove(id, r)
	m.stats.discharged.Add(1)
	m.pmx[pi].inc(propDischarged)
	m.release(id, r)
}

// createInstance starts a new instance from a stage-0 match in a fresh or
// recycled row.
func (m *Monitor) createInstance(pi int, cp *compiledProp, e *Event, seq uint64) {
	id, r, recycled := m.st.alloc()
	if recycled {
		m.state.PoolGet(m.shardIdx)
	}
	r.prop = uint16(pi)
	r.stage = 0
	r.lastEventSeq = seq
	r.lastCandSeq = seq
	r.w = [rowWords]uint64{}
	m.stats.created.Add(1)
	m.advance(id, r, e, seq)
}

// release returns a terminally dead instance (violated, discharged,
// expired, evicted, suppressed, or deduped away) to the slab's free
// chain. The caller must have unfiled it first; remove cancels the
// deadline, so nothing scheduled can touch a recycled row, and alloc
// starts a new incarnation, which is what invalidates stale evictRefs.
func (m *Monitor) release(id uint32, r *row) {
	m.st.release(id, r)
	m.state.PoolPut(m.shardIdx)
}

// advance applies the bindings of e, applied event seq, and moves the
// instance forward, reporting a violation if the pattern is complete.
func (m *Monitor) advance(id uint32, r *row, e *Event, seq uint64) {
	cp := m.props[r.prop]
	cs := &cp.stages[r.stage]
	m.pmx[r.prop].inc(propMatches)
	if r.stage > 0 {
		m.remove(id, r) // leaves deadlines canceled and indexes clean
		m.stats.advanced.Add(1)
	}
	for _, bd := range cs.binds {
		v, ok := e.Field(bd.field)
		if !ok {
			// stagePatternMatches checked availability; this is a bug
			// guard, not a runtime path.
			panic("core: bind field " + bd.field.String() + " unavailable after match")
		}
		m.st.setValue(r, bd.slot, v)
	}
	if cs.ownPacketWord >= 0 {
		r.w[cs.ownPacketWord] = uint64(e.PacketID)
	}
	if m.cfg.Provenance == ProvFull {
		h := m.st.hist.at(id)
		*h = append(*h, ProvRecord{
			Stage: int(r.stage),
			Label: cs.st.Label,
			Time:  e.Time,
			Event: m.trigger(e, seq),
		})
	}
	if m.nextStage(id, r, cp) {
		if m.violate(id, r, cp, e.Time, e, seq) {
			m.release(id, r)
		}
		return
	}
	m.enter(id, r, cp)
}

// trigger returns the summary of e, applied event seq, rendering it on
// the first call for that event: every instance the event advances or
// completes shares the one string.
func (m *Monitor) trigger(e *Event, seq uint64) string {
	if m.trigSeq != seq {
		m.trigBuf = e.appendSummary(m.trigBuf[:0])
		m.trig, m.trigSeq = string(m.trigBuf), seq
	}
	return m.trig
}

// nextStage moves an unfiled row to its next stage, resetting the
// counting state, and reports whether that completed the pattern.
func (m *Monitor) nextStage(id uint32, r *row, cp *compiledProp) (complete bool) {
	r.stage++
	r.count = 0
	if int(id) < len(m.st.seen) {
		m.st.seen[id] = nil
	}
	return int(r.stage) == len(cp.stages)
}

// advanceByTimeout is the Feature 7 path: a negative observation's
// deadline fired with no discharging event, which *advances* the instance.
func (m *Monitor) advanceByTimeout(id uint32, r *row) {
	cp := m.props[r.prop]
	cs := &cp.stages[r.stage]
	m.remove(id, r)
	m.stats.advanced.Add(1)
	m.pmx[r.prop].inc(propTimeouts)
	now := m.sched.Now()
	if m.cfg.Provenance == ProvFull {
		h := m.st.hist.at(id)
		*h = append(*h, ProvRecord{
			Stage: int(r.stage),
			Label: cs.st.Label,
			Time:  now,
			Event: "timeout",
		})
	}
	if m.nextStage(id, r, cp) {
		if m.violate(id, r, cp, now, nil, 0) {
			m.release(id, r)
		}
		return
	}
	m.enter(id, r, cp)
}

// enter files the instance under its pending stage, handling dedup /
// refresh and arming deadlines. Instances turned away (suppressed or
// deduplicated) are dead and return to the free chain.
func (m *Monitor) enter(id uint32, r *row, cp *compiledProp) {
	cs := &cp.stages[r.stage]
	b := &m.buckets[r.prop][r.stage]
	en := env{r, &m.st}
	sig := cp.signature(int(r.stage), en)
	if b.suppressed[sig] {
		m.stats.suppressed.Add(1)
		m.release(id, r)
		return
	}
	if exID := b.findSig(&m.st, sig, r, cs.idWords); exID != 0 {
		// An identical instance is already waiting. For a windowed
		// positive stage the new observation refreshes the deadline
		// (Feature 3); for a negative stage the original deadline is
		// preserved (Feature 7's non-refresh rule). Counting stages also
		// keep their original deadline: their window is a measurement
		// interval anchored at stage entry, not a sliding idle timeout —
		// refreshing it would turn "N events within T" into "N events
		// with gaps under T".
		m.stats.deduped.Add(1)
		if !cs.st.Negative && cs.st.MinCount <= 1 {
			exist := m.st.at(exID)
			if d, ok := m.windowOf(cs, exist); ok {
				if exist.flags&rowArmed != 0 {
					m.disarm(exID, exist, b)
				}
				m.arm(exID, exist, cs, b, d)
				m.stats.refreshed.Add(1)
			}
		}
		m.release(id, r)
		return
	}
	// Per-tenant instance cap: a tenant at its cap has the new instance
	// rejected and its own properties marked unsound (quota) — neighbors
	// never pay. Untenanted properties carry a nil cell: one pointer test.
	if c := m.tcell[r.prop]; c != nil {
		if cap := m.tcap[r.prop]; cap > 0 && c.Instances() >= cap {
			c.Shed(1)
			m.ledger.Mark(cp.prop.Name, UnsoundQuota, m.seq, m.sched.Now(), 1, "tenant instance cap reached")
			m.ledger.recordLost(UnsoundQuota, 1)
			m.release(id, r)
			return
		}
		c.FileInstance()
	}
	if m.cfg.MaxInstances > 0 {
		if m.live.Load() >= int64(m.cfg.MaxInstances) {
			m.evictOldest()
		}
		// The FIFO is only maintained under a cap; an unbounded monitor
		// must not accumulate queue entries forever.
		m.evictQueue = append(m.evictQueue, evictRef{row: id, inc: r.inc})
	}
	var kb [rowKeys]uint64
	b.file(&m.st, id, sig, instanceIndexKeys(cs, en, kb[:0]))
	m.live.Add(1)
	if h := m.sx[r.prop]; h != nil {
		var fk uint64
		if h.Sketching() {
			fk = flowKey(en, cs.nbound)
		}
		h.File(fk, m.filedBytes(id, r, cs))
	}
	if d, ok := m.windowOf(cs, r); ok {
		m.arm(id, r, cs, b, d)
		m.sx[r.prop].ArmTimer()
	}
}

// expire removes an instance whose positive-stage window lapsed: the
// monitored obligation no longer applies (Feature 3).
func (m *Monitor) expire(id uint32, r *row) {
	pi := r.prop
	m.remove(id, r)
	m.stats.expired.Add(1)
	m.pmx[pi].inc(propExpired)
	m.pmx[pi].inc(propTimeouts)
	m.release(id, r)
}

// remove unfiles the instance and cancels its deadline. The instance may
// live on (a stage advance re-enters it); terminal callers release it to
// the free chain separately.
func (m *Monitor) remove(id uint32, r *row) {
	b := &m.buckets[r.prop][r.stage]
	if r.flags&rowArmed != 0 {
		m.disarm(id, r, b)
		m.sx[r.prop].DisarmTimer()
	}
	if r.state != rowFiled {
		return
	}
	bytes := m.filedBytes(id, r, &m.props[r.prop].stages[r.stage])
	b.unfile(&m.st, id)
	m.live.Add(-1)
	m.sx[r.prop].Unfile(bytes)
	if c := m.tcell[r.prop]; c != nil {
		c.UnfileInstance()
	}
}

// seedSuppressions applies sticky guards (permanent discharge): any event
// matching one marks the synthesized instance identity as suppressed and
// removes a live instance with that identity. A guard whose gate fails
// reads no pin.
func (m *Monitor) seedSuppressions(cp *compiledProp, bs []bucket, e *Event) {
	for si := range cp.stages {
		cs := &cp.stages[si]
		for gi := range cs.stickyGuards {
			sg := &cs.stickyGuards[gi]
			if !classMatches(sg.class, e) || !predsHold(sg.gate, e, env{}) {
				continue
			}
			m.suppress(cp, si, sg, &bs[si], e)
		}
	}
}

// suppress synthesizes, in the scratch row, the identity a sticky guard's
// event pins, and retires it from stage si for good.
func (m *Monitor) suppress(cp *compiledProp, si int, sg *stickyGuard, b *bucket, e *Event) {
	q := &m.envRow
	en := env{q, &m.st}
	defer m.st.clearStrings(q)
	for _, pin := range sg.pins {
		val, present := e.Field(pin.field)
		if !present {
			return
		}
		m.st.setValue(q, pin.slot, val)
	}
	if !predsHold(sg.rest, e, en) {
		return
	}
	sig := cp.signature(si, en)
	if b.suppressed == nil {
		b.suppressed = map[uint64]bool{}
	}
	b.suppressed[sig] = true
	if id := b.findSig(&m.st, sig, q, cp.stages[si].idWords); id != 0 {
		r := m.st.at(id)
		m.remove(id, r)
		m.stats.suppressed.Add(1)
		m.release(id, r)
	}
}

// evictOldest removes the longest-lived filed instance (MaxInstances)
// and marks its property unsound: whatever verdict the instance still
// owed will never come.
func (m *Monitor) evictOldest() {
	for len(m.evictQueue) > 0 {
		ref := m.evictQueue[0]
		m.evictQueue = m.evictQueue[1:]
		r := m.st.at(ref.row)
		if r.inc != ref.inc || r.state != rowFiled {
			continue // stale entry: already advanced, removed, or recycled
		}
		m.ledger.Mark(m.props[r.prop].prop.Name, UnsoundEvicted, m.seq, m.sched.Now(), 1, "instance evicted by the MaxInstances cap")
		m.remove(ref.row, r)
		m.stats.evicted.Add(1)
		m.release(ref.row, r)
		return
	}
}

// violate emits a report: counters always, then a trace record into the
// configured ring and the user callback, each carrying as much
// provenance as the configured level allows. The ring record and the
// callback's report share one bindings slice and one history; nothing is
// rendered here but the trigger. The trigger is e, applied event seq, or
// for a nil e the final stage's timeout. It reports whether the row, in
// flight, is still the caller's to release: a callback that removed the
// property has released it with the rest (purgeProp), and a re-entrant
// event may have reused it.
func (m *Monitor) violate(id uint32, r *row, cp *compiledProp, at time.Time, e *Event, seq uint64) (owned bool) {
	m.stats.violations.Add(1)
	m.pmx[r.prop].inc(propViolations)
	if m.cfg.OnViolation == nil && m.cfg.Violations == nil {
		return true
	}
	trigger := cp.timeoutTrigger
	if e != nil {
		trigger = m.trigger(e, seq)
	}
	v := &Violation{
		Property: cp.prop.Name,
		Time:     at,
		Trigger:  trigger,
	}
	if m.cfg.Provenance >= ProvLimited {
		// A completed pattern has passed every stage, so every variable
		// is bound.
		v.Bindings = make([]obs.Binding, len(cp.byName))
		for i, slot := range cp.byName {
			v.Bindings[i] = obs.Binding{Var: string(cp.vars[slot]), Value: m.st.value(r, slot)}
		}
	}
	if m.cfg.Provenance == ProvFull {
		v.History = append([]ProvRecord(nil), (*m.st.hist.at(id))...)
	}
	if m.cfg.Violations != nil {
		m.cfg.Violations.Record(v.TraceRecord())
	}
	if m.cfg.OnViolation != nil {
		inc := r.inc
		m.cfg.OnViolation(v)
		return r.inc == inc && r.state == rowInFlight
	}
	return true
}
