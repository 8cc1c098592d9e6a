package core

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/obs/statesize"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/sim"
)

// shardBatchSize is how many routed events accumulate per shard before
// the batch is handed to the shard's goroutine. Larger batches amortize
// channel synchronization; Barrier and Drain flush partial batches.
const shardBatchSize = 64

// shardQueueLen is the per-shard queue bound, in batches. A full queue
// blocks the router (see flushShard).
const shardQueueLen = 64

// maxShardedProperties bounds the property count of a ShardedMonitor:
// routing masks are single 64-bit words.
const maxShardedProperties = 64

// ErrClosed is returned by Submit and SubmitBatch after Close. Before
// the robustness work a post-Close Submit panicked on a closed channel;
// now it refuses cleanly.
var ErrClosed = errors.New("core: ShardedMonitor is closed")

// ShedPolicy decides what a switch-side exporter's full send queue
// (exporter.Config.Shed) does to the batch being sealed. Blocking
// preserves exact semantics at the cost of stalling the dataplane;
// dropping bounds its latency and records the loss in the soundness
// Ledger instead of hiding it. The sharded engine's shard queues have no
// policy: a full one always blocks the router.
type ShedPolicy uint8

// Shed policies.
const (
	// ShedBlock stalls the publisher until the queue drains (the default,
	// and the policy that never loses events).
	ShedBlock ShedPolicy = iota
	// ShedDropNewest sheds the batch being sealed.
	ShedDropNewest
)

// String names the policy.
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedDropNewest:
		return "drop-newest"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", uint8(p))
	}
}

// shardMsg is one event routed to one shard, with per-property bits
// saying what the shard may do with it: matchMask bits permit advancing,
// discharging, and suppression seeding at stages >= 1; createMask bits
// permit stage-zero instance creation. The split matters because an
// event's stage-zero identity hash and its later-stage route hashes can
// land on different shards — only the creation shard may instantiate, or
// the same flow would be born twice.
//
// Two delivery forms share the struct: a copied event lives in ev
// (ref nil); a borrowed event (SubmitBatch with a release callback)
// is referenced as &ref.events[idx] with ev left zero — no per-shard
// copy. Resolve with shardMsg.event.
type shardMsg struct {
	ev         Event
	ref        *batchRef
	idx        int32
	matchMask  uint64
	createMask uint64
	// tq, when non-nil, is the tenant queue this message is charged
	// against: the router incremented its pending count at route time and
	// the worker decrements it once, after applying the message. A pointer
	// (not a mask) so the charge survives property-slot reuse by a later
	// Apply.
	tq *tenantQueue
}

// event resolves the message's event: the inline copy, or the borrowed
// slab entry.
func (m *shardMsg) event() *Event {
	if m.ref != nil {
		return &m.ref.events[m.idx]
	}
	return &m.ev
}

// batchRef tracks one borrowed event slab through shard dispatch. refs
// counts outstanding holds — one per delivered shardMsg, plus the
// router's own hold while routing — and release fires exactly once,
// when the count hits zero: only after the last shard has applied its
// references may the arena behind events be recycled.
// Workers only read the borrowed events (concurrent shards may share
// one event; span stamps are write-once CAS), so no lock is needed
// beyond the atomic count.
type batchRef struct {
	events  []Event
	release func()
	refs    atomic.Int32
}

// batchRefPool recycles batchRef headers so a borrowed submit costs no
// allocation beyond the caller's own arena machinery.
var batchRefPool = sync.Pool{New: func() any { return new(batchRef) }}

// unref drops one hold; the last hold runs the release callback and
// recycles the header.
func (r *batchRef) unref() {
	if r.refs.Add(-1) != 0 {
		return
	}
	rel := r.release
	r.events, r.release = nil, nil
	batchRefPool.Put(r)
	if rel != nil {
		rel()
	}
}

// shardCtl is one unit of work on a shard's queue: an event batch, an
// optional virtual-clock advance, an optional barrier acknowledgment,
// and an optional stop order (Close's shutdown token, which replaced
// closing the channel so a late Submit can fail softly instead of
// panicking).
type shardCtl struct {
	batch    []shardMsg
	runUntil time.Time
	ack      *sync.WaitGroup
	stop     bool
	// apply, when non-nil, runs against the shard's Monitor after the
	// batch (if any), on whichever goroutine runs the shard — the lifecycle
	// fence: because the queue is FIFO, events routed before the fence see
	// the old property set and events routed after see the new one.
	apply func(*Monitor)
}

// tenantQueue is the router-side queue-share account for one quota'd
// tenant: pending counts the tenant's shard-queue messages in flight
// (routed but not yet applied). When pending reaches max the
// router stops delivering the tenant's properties — shedding only that
// tenant's events, marked UnsoundQuota in the ledger — so one tenant's
// pathological property cannot starve the shared shard queues.
type tenantQueue struct {
	name    string
	max     int64
	pending atomic.Int64
	cell    *statesize.TenantCell
}

// shard is one partition: a single-threaded Monitor on its own
// deterministic scheduler. With N >= 2 it is fed in FIFO order by its own
// goroutine through ch, and pending is the router-side batch under
// construction (router-owned); a one-shard engine uses neither.
type shard struct {
	mon     *Monitor
	ch      chan shardCtl
	pending []shardMsg
	// depth is the shard's queue-depth gauge (batches waiting on ch),
	// refreshed at every flush; nil without telemetry.
	depth *obs.Gauge
}

// ShardedMonitor scales the single-threaded Monitor across cores: a router
// over N Monitors, each owning a disjoint identity-hash partition of the
// instance population, that owns only what routing takes — the queues, the
// fences and back-pressure. The shard count alone picks the execution model.
//
// One shard is run to completion: Feed, Submit and SubmitBatch apply each
// event on the caller's goroutine, under the router lock, straight off the
// caller's slice, before they return — no worker, no queue, no per-event
// copy, no route hash. Tick and AdvanceTo run the clock directly, a fence is
// a direct call, Barrier is the lock, Close has nothing to wait for, and
// verdicts come in the inline Monitor's order. The feeder is the
// back-pressure: nothing is queued, so nothing is ever shed.
//
// Two or more shards is router plus queues, one goroutine per shard. The
// router (Submit) computes, per property, which shards an event can
// possibly affect — using the compile-time shardPlan — and delivers it
// only there. Properties whose addressing paths do not pin a stable
// stage-zero identity (wandering identities, packet-identity stages, scan
// stages or guards) are monitored entirely on the catch-all shard 0,
// preserving exact single-engine semantics at the cost of parallelism.
// Shard goroutines start lazily on the first Submit or barrier, so
// constructing a ShardedMonitor and installing properties on it spawns
// nothing.
//
// The router side (Submit, SubmitBatch, Barrier, AdvanceTo, Drain, Close,
// Apply and the aggregate accessors) is serialized by the embedded
// propSet's lock, so Close is safe to call concurrently with Submit
// (Submit returns ErrClosed afterwards); for deterministic event ordering
// the router should still be driven from one goroutine.
//
// Supervision is the Monitor's: a panic inside a property's step or timer
// is recovered by the shard that hit it, the property is quarantined
// engine-wide through the shared mask (the router stops routing to it and
// every other shard purges it at its next unit of work), the quarantine
// is recorded in the soundness Ledger, and the shard keeps going — every
// other property keeps monitoring.
//
// Config caveats: Mode and SplitFlushLimit are ignored — shards always
// apply events inline, the per-shard queues being the split; a full queue
// blocks the router, so nothing routed is ever lost.
// MaxInstances applies per shard, not globally. DisableIndex disables
// the routing analysis too (all properties become catch-all), since
// routing is derived from the same index paths. With N >= 2, violation
// callbacks are serialized by an internal mutex but arrive in
// nondeterministic cross-shard order; order-sensitive consumers should
// compare multisets (Config.OnViolation has the callback contract).
type ShardedMonitor struct {
	// propSet is the property lifecycle, the engine-wide ledger, state
	// tracker and quarantine mask (each shared with every shard's Monitor)
	// and, as its mu, the router lock.
	propSet
	cfg    Config
	shards []*shard
	// plans holds each slot's routing plan (zero for a tombstone).
	plans     [maxShardedProperties]shardPlan
	submitted uint64
	// matchScratch/createScratch are the per-event, per-shard routing
	// mask accumulators (router-owned, zeroed after each event).
	matchScratch  []uint64
	createScratch []uint64
	// freeBatches recycles processed batch slices from workers back to
	// the router without a lock on the fast path.
	freeBatches chan []shardMsg
	// smx holds the router-side telemetry handles (nil when Config.
	// Metrics is nil); hasCatchall notes whether any installed property
	// fell back to shard 0, the numerator of the catch-all ratio.
	smx         *shardedMetrics
	hasCatchall bool
	violMu      sync.Mutex
	// lastTick is the high-water virtual time the router has told the
	// shards about (Tick/AdvanceTo), used as the install-point watermark
	// for live installs. Router-owned.
	lastTick time.Time
	// quotaByName maps a tenant name to its queue-share accounting; built
	// once at construction from Config.TenantQuotas (MaxQueued > 0).
	// tenantOf[pi] is the routing-time lookup: the quota'd tenant owning
	// property slot pi, nil for unquotaed slots. quotaBits is the union of
	// owned slots' bits, a fast-path gate. All router-owned except the
	// queues' atomic pending counters.
	quotaByName map[string]*tenantQueue
	tenantOf    [maxShardedProperties]*tenantQueue
	quotaBits   uint64
	// barrierWG is the reusable ack group of the fence. A field rather
	// than a local: a local WaitGroup escapes through the shardCtl channel
	// send and costs one heap allocation per barrier. Guarded by mu.
	barrierWG sync.WaitGroup

	startOnce sync.Once
	started   bool
	closed    bool
	wg        sync.WaitGroup
}

// NewShardedMonitor creates a sharded monitor with the given number of
// shards (clamped to at least 1). See the type comment for the Config
// fields that change meaning under sharding.
func NewShardedMonitor(shards int, cfg Config) *ShardedMonitor {
	if shards < 1 {
		shards = 1
	}
	sm := &ShardedMonitor{
		cfg:           cfg,
		matchScratch:  make([]uint64, shards),
		createScratch: make([]uint64, shards),
		// Sized so recycling is lossless: the total batch-buffer
		// population is bounded by shardQueueLen queued + router-pending +
		// in-worker per shard, so a worker's Put always finds room and the
		// steady state allocates no new buffers.
		freeBatches: make(chan []shardMsg, shards*(shardQueueLen+2)),
	}
	sm.propSet.setup(sm, cfg, shards, maxShardedProperties)
	if cfg.Metrics != nil {
		sm.smx = newShardedMetrics(cfg.Metrics, cfg.MetricsLabels)
	}
	if len(cfg.TenantQuotas) > 0 {
		sm.quotaByName = make(map[string]*tenantQueue, len(cfg.TenantQuotas))
		for name, q := range cfg.TenantQuotas {
			if q.MaxQueued > 0 {
				sm.quotaByName[name] = &tenantQueue{name: name, max: q.MaxQueued, cell: sm.state.Tenant(name)}
			}
		}
	}
	shardCfg := cfg
	shardCfg.Mode = Inline
	shardCfg.SplitFlushLimit = 0
	// A span fans out to several shards and only its last copy's verdict
	// completes it, so the worker — not each shard's apply — owns it.
	shardCfg.Tracer = nil
	if cfg.OnViolation != nil && shards > 1 {
		// Workers report concurrently; one shard reports under the router
		// lock, already serialized.
		user := cfg.OnViolation
		shardCfg.OnViolation = func(v *Violation) {
			sm.violMu.Lock()
			defer sm.violMu.Unlock()
			user(v)
		}
	}
	for i := 0; i < shards; i++ {
		s := &shard{ch: make(chan shardCtl, shardQueueLen)}
		cfgI := shardCfg
		if cfg.Metrics != nil {
			// Engine-level series get a shard label; the per-property
			// counters omit it (see propCounts), so all shards read into
			// one aggregated series per property.
			lbl := obs.L("shard", strconv.Itoa(i))
			cfgI.MetricsLabels = append(append([]obs.Label(nil), cfg.MetricsLabels...), lbl)
			s.depth = cfg.Metrics.Gauge("switchmon_shard_queue_depth",
				"Batches queued on the shard's channel at the last flush.",
				cfgI.MetricsLabels...)
		}
		s.mon = newMonitor(sim.NewScheduler(), cfgI, &sm.propSet, i)
		sm.shards = append(sm.shards, s)
	}
	return sm
}

// Shards reports the shard count.
func (sm *ShardedMonitor) Shards() int { return len(sm.shards) }

// admits implements propHost: a closed engine takes no Apply.
func (sm *ShardedMonitor) admits() error {
	if sm.closed {
		return ErrClosed
	}
	return nil
}

// position implements propHost: the router's submission count, live once
// an event has been submitted, and the clock high-water mark the router
// has told the shards about.
func (sm *ShardedMonitor) position() (seq uint64, live bool, now time.Time) {
	return sm.submitted, sm.submitted > 0, sm.lastTick
}

// stop implements propHost: evict rides one fence, run by every shard on
// its own worker once it has applied all that was routed before. The
// fence leaves each worker parked on its queue, and mu keeps the queues
// empty, so the caller changes the shards from here, and the next event
// routed to a shard, sent on its channel, sees the change. Before the
// workers start there is no fence, so a fresh engine spawns nothing.
func (sm *ShardedMonitor) stop(evict func(*Monitor)) []*Monitor {
	mons := make([]*Monitor, len(sm.shards))
	for i, s := range sm.shards {
		mons[i] = s.mon
	}
	if sm.started {
		sm.fence(shardCtl{apply: evict})
		return mons
	}
	for _, m := range mons {
		evict(m)
	}
	return mons
}

// routed implements propHost: it rebuilds the routing plans, the
// catch-all note and the tenant queue-share tables from the set the
// shards now run; a tombstone routes nothing.
func (sm *ShardedMonitor) routed() {
	sm.hasCatchall, sm.quotaBits = false, 0
	for slot, cp := range sm.shards[0].mon.props {
		sm.plans[slot], sm.tenantOf[slot] = shardPlan{}, nil
		if cp == nil {
			continue
		}
		// Routing is derived from the index paths; without them every
		// property is catch-all.
		if !sm.cfg.DisableIndex {
			sm.plans[slot] = cp.plan
		}
		if !sm.plans[slot].shardable {
			sm.hasCatchall = true
		}
		if tq := sm.quotaByName[cp.prop.Tenant]; tq != nil {
			sm.tenantOf[slot] = tq
			sm.quotaBits |= uint64(1) << uint(slot)
		}
	}
}

// post flushes every shard's pending batch and queues ctl behind it; with
// one shard, whose goroutine is the caller's, ctl executes here instead.
func (sm *ShardedMonitor) post(ctl shardCtl) {
	if len(sm.shards) == 1 {
		sm.exec(sm.shards[0], ctl)
		return
	}
	for _, s := range sm.shards {
		sm.flushShard(s)
		s.ch <- ctl
	}
}

// fence is the engine's one barrier: ctl rides every shard's FIFO queue
// and the call returns when every shard has executed it, so everything
// routed before the fence has been applied and everything routed after
// sees its effects. An empty ctl is Barrier, a clock advance AdvanceTo, an
// apply a lifecycle operation. Caller holds mu with the engine not closed.
func (sm *ShardedMonitor) fence(ctl shardCtl) {
	sm.start()
	ctl.ack = &sm.barrierWG
	sm.barrierWG.Add(len(sm.shards))
	sm.post(ctl)
	sm.barrierWG.Wait()
}

// Shardable reports whether the i-th installed property got a stable
// shard key from the static analysis (false means catch-all shard 0).
func (sm *ShardedMonitor) Shardable(i int) bool { return sm.plans[i].shardable }

// SetShardProbe installs a fault-injection probe on one shard's monitor,
// called at the start of every property step with (propIdx, shard-local
// event seq). A panicking probe exercises the supervision path exactly
// like a bug in the property's step would. Must be called before the
// first Submit.
func (sm *ShardedMonitor) SetShardProbe(shard int, fn func(prop int, seq uint64)) error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.started {
		return fmt.Errorf("core: SetShardProbe after first Submit")
	}
	if shard < 0 || shard >= len(sm.shards) {
		return fmt.Errorf("core: SetShardProbe shard %d out of range [0,%d)", shard, len(sm.shards))
	}
	sm.shards[shard].mon.SetStepProbe(fn)
	return nil
}

// start launches the shard goroutines (idempotent); one shard has none.
func (sm *ShardedMonitor) start() {
	sm.startOnce.Do(func() {
		sm.started = true
		if len(sm.shards) == 1 {
			return
		}
		sm.wg.Add(len(sm.shards))
		for _, s := range sm.shards {
			go sm.worker(s)
		}
	})
}

// worker drains one shard's queue in FIFO order. It owns the shard's
// Monitor exclusively. The Monitor supervises itself — its step loop and
// its timer entry each recover a property's panic and quarantine the
// property — so the goroutine never dies and needs no recovery of its own.
func (sm *ShardedMonitor) worker(s *shard) {
	defer sm.wg.Done()
	for {
		ctl := <-s.ch
		sm.exec(s, ctl)
		if ctl.stop {
			return
		}
	}
}

// exec executes one shardCtl on its shard: the batch, then the lifecycle
// fence, the clock advance and the acknowledgment it carries. The worker
// calls it per unit off the queue; a one-shard router calls it from post,
// batchless — its events are stepped straight off the caller's slice.
func (sm *ShardedMonitor) exec(s *shard, ctl shardCtl) {
	// Adopt quarantines published by other shards before touching state:
	// the batch may still carry mask bits for a property another shard
	// just quarantined.
	s.mon.adoptQuarantines()
	for i := range ctl.batch {
		msg := &ctl.batch[i]
		sm.step(s.mon, msg.event(), msg.matchMask, msg.createMask)
		if msg.ref != nil {
			// This shard's hold on the borrowed slab: the event must
			// not be touched past this point.
			msg.ref.unref()
		}
		if msg.tq != nil {
			// Settle the tenant's queue-share charge taken at route
			// time: the message has been applied.
			msg.tq.pending.Add(-1)
		}
	}
	if ctl.batch != nil {
		select {
		case sm.freeBatches <- ctl.batch[:0]:
		default: // pool full; let the GC have it
		}
	}
	if ctl.apply != nil {
		// Lifecycle fence: mutate this shard's property set at a point
		// totally ordered against the event stream.
		ctl.apply(s.mon)
	}
	if !ctl.runUntil.IsZero() {
		s.mon.sched.RunUntil(ctl.runUntil)
	}
	if ctl.ack != nil {
		ctl.ack.Done()
	}
}

// step runs one event to completion on one shard: stamp the span, run the
// clock up to the event, apply it under the routing masks, and finish the
// span if this was its last delivery.
func (sm *ShardedMonitor) step(mon *Monitor, ev *Event, matchMask, createMask uint64) {
	if sp := ev.Trace; sp != nil && sm.cfg.Tracer != nil {
		sp.Stamp(tracer.StageShardDispatch)
	}
	// Run the clock up to the event's time before applying it — the inline
	// driver's RunUntil-then-handle discipline. Without this, an instance
	// armed right after a quiet stretch anchors its window deadline at the
	// stale clock and the next tick expires it before its evidence can
	// arrive. Lagging streams (another switch behind this one) regress in
	// event time and leave the clock untouched.
	if ev.Time.After(mon.sched.Now()) {
		mon.sched.RunUntil(ev.Time)
	}
	mon.apply(ev, matchMask, createMask)
	if sp := ev.Trace; sp != nil && sm.cfg.Tracer != nil && sp.Release() {
		sp.Stamp(tracer.StageVerdict)
		sm.cfg.Tracer.Finish(sp)
	}
}

// Feed implements Engine: a Tick when event time moves past the last
// clock advance, then a Submit. An event fed after Close is dropped.
func (sm *ShardedMonitor) Feed(e Event) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.closed {
		return
	}
	if e.Time.After(sm.lastTick) {
		sm.tickLocked(e.Time)
	}
	sm.submitLocked(&e)
}

// Submit routes one event to the shards it can affect and enqueues it; a
// one-shard engine applies it before returning. Events that no property
// can act on are dropped at the router, as are routes to quarantined
// properties. After Close, Submit reports ErrClosed instead of enqueueing.
func (sm *ShardedMonitor) Submit(e Event) error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.closed {
		return ErrClosed
	}
	sm.submitLocked(&e)
	return nil
}

// submitLocked takes one event in by the path the shard count selects.
// Caller holds mu and has checked closed.
func (sm *ShardedMonitor) submitLocked(e *Event) {
	if len(sm.shards) == 1 {
		sm.inlineLocked([]Event{*e})
		return
	}
	sm.routeLocked(e, nil, 0)
}

// inlineLocked is the one-shard route (see the type comment): events are
// stepped straight off the caller's slice and every one is delivered —
// nothing is hashed, copied, queued or shed — the Monitor's step loop
// skipping tombstoned and quarantined slots as it does inline. Caller
// holds mu and has checked closed.
func (sm *ShardedMonitor) inlineLocked(evs []Event) {
	sm.start()
	n := uint64(len(evs))
	sm.submitted += n
	mon := sm.shards[0].mon
	for i := range evs {
		sm.step(mon, &evs[i], allProps, allProps)
	}
	if sm.smx != nil {
		sm.smx.events.Add(n)
		sm.smx.deliveries.Add(n)
		if sm.hasCatchall {
			sm.smx.catchall.Add(n)
		}
	}
}

// flushPendingLocked hands every shard's partially-filled pending batch
// to its worker. SubmitBatch calls it before releasing the router lock
// so a batch's events are always en route to a worker when the call
// returns: the only other flushes are the shardBatchSize overflow and
// the clock advances, and a stream whose timestamps stall (many events
// sharing one instant) never advances the clock — a wire batch would
// otherwise park here until drain. Single-event Submit deliberately
// keeps the old buffer-until-Tick behavior: its callers pair each
// Submit with a Tick (which flushes), and tests that park workers rely
// on the router absorbing a stream without sealing batches.
func (sm *ShardedMonitor) flushPendingLocked() {
	for _, s := range sm.shards {
		sm.flushShard(s)
	}
}

// routeLocked computes the per-shard routing masks for one event and
// enqueues it: by value when ref is nil, as a (ref, idx) borrow
// otherwise — the borrowed form takes one additional hold on ref per
// delivering shard. Caller holds mu and has checked closed.
func (sm *ShardedMonitor) routeLocked(e *Event, ref *batchRef, idx int32) {
	sm.start()
	sm.submitted++
	n := uint64(len(sm.shards))
	quar := sm.quar.Load()
	mm, cm := sm.matchScratch, sm.createScratch
	quotaShed := false
	for pi, p := range sm.slots {
		bit := uint64(1) << uint(pi)
		if quar&bit != 0 {
			continue // quarantined: the property sees no further events
		}
		if p == nil {
			continue // tombstone: slot freed by a removal
		}
		if sm.quotaBits&bit != 0 {
			if tq := sm.tenantOf[pi]; tq.pending.Load() >= tq.max {
				// The tenant's queue share is exhausted: shed this
				// delivery for this tenant's property only — other
				// tenants' verdicts stay exact — and account for it.
				tq.cell.Shed(1)
				sm.ledger.Mark(p.Name, UnsoundQuota, sm.submitted, e.Time, 1,
					"tenant queue share exhausted")
				quotaShed = true
				continue
			}
		}
		pl := &sm.plans[pi]
		if !pl.shardable {
			mm[0] |= bit
			cm[0] |= bit
			continue
		}
		for ri := range pl.routes {
			if h, ok := routeHash(e, pl.routes[ri].fields); ok {
				mm[h%n] |= bit
			}
		}
		if h, ok := routeHash(e, pl.createFields); ok {
			cm[h%n] |= bit
		}
	}
	if quotaShed {
		sm.ledger.recordLost(UnsoundQuota, 1)
	}
	if sp := e.Trace; sp != nil && sm.cfg.Tracer != nil {
		// Reference the span once per shard that will see a copy of the
		// event, before any copy is enqueued: a worker may drain and
		// Release its copy while this loop is still appending others, and
		// only the last Release may stamp the verdict. An unroutable
		// event gets no verdict; finish its span now so it still reaches
		// the ring.
		nDeliver := int32(0)
		for si := range sm.shards {
			if mm[si]|cm[si] != 0 {
				nDeliver++
			}
		}
		if nDeliver == 0 {
			sm.cfg.Tracer.Finish(sp)
		} else {
			sp.AddRefs(nDeliver)
		}
	}
	delivered := 0
	for si := range sm.shards {
		if mm[si] == 0 && cm[si] == 0 {
			continue
		}
		s := sm.shards[si]
		msg := shardMsg{matchMask: mm[si], createMask: cm[si]}
		if qb := (mm[si] | cm[si]) & sm.quotaBits; qb != 0 {
			// Charge the delivery to one tenant's queue share: the owner
			// of the lowest quota'd property bit present. One charge per
			// message keeps the accounting exact under slot reuse.
			tq := sm.tenantOf[bits.TrailingZeros64(qb)]
			tq.pending.Add(1)
			msg.tq = tq
		}
		if ref != nil {
			ref.refs.Add(1)
			msg.ref, msg.idx = ref, idx
		} else {
			msg.ev = *e
		}
		s.pending = append(s.pending, msg)
		mm[si], cm[si] = 0, 0
		delivered++
		if len(s.pending) >= shardBatchSize {
			sm.flushShard(s)
		}
	}
	if sm.smx != nil {
		sm.smx.events.Inc()
		sm.smx.deliveries.Add(uint64(delivered))
		if sm.hasCatchall {
			sm.smx.catchall.Inc()
		}
		if delivered == 0 {
			sm.smx.unroutable.Inc()
		}
	}
}

// SubmitBatch routes a slice of events (batched Submit). It stops at the
// first error (only ErrClosed today).
//
// A non-nil release turns the call into a borrow: evs stays owned by
// the caller's arena, shards route index references into it instead of
// copying each event, and release is invoked exactly once — after the
// last shard holding a reference has applied it, or
// immediately when nothing needs the batch. Until release fires the
// slice and everything it points to must stay untouched; after it
// fires the arena may be recycled (the engine retains only value
// copies of what it read — see DESIGN.md §5g). With a nil release,
// events are copied into the shard queues and evs is the caller's
// again on return. A one-shard engine applies every event, borrowed or
// not, before returning, so the borrow ends inside the call: release runs
// on the caller's goroutine, under the router lock, before the return.
func (sm *ShardedMonitor) SubmitBatch(evs []Event, release func()) error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.closed {
		if release != nil {
			release()
		}
		return ErrClosed
	}
	if len(sm.shards) == 1 {
		sm.inlineLocked(evs)
		if release != nil {
			release()
		}
		return nil
	}
	if release == nil {
		for i := range evs {
			sm.routeLocked(&evs[i], nil, 0)
		}
		sm.flushPendingLocked()
		return nil
	}
	ref := batchRefPool.Get().(*batchRef)
	ref.events = evs
	ref.release = release
	ref.refs.Store(1) // the router's own hold, dropped below
	for i := range evs {
		sm.routeLocked(&evs[i], ref, int32(i))
	}
	sm.flushPendingLocked()
	ref.unref()
	return nil
}

// flushShard hands the shard's pending batch to its goroutine and grabs a
// recycled batch buffer for the next one. A full queue blocks the router
// until the worker drains: back-pressure, never loss.
func (sm *ShardedMonitor) flushShard(s *shard) {
	if len(s.pending) == 0 {
		return
	}
	if sm.smx != nil {
		sm.smx.batchSize.Observe(uint64(len(s.pending)))
	}
	s.ch <- shardCtl{batch: s.pending}
	// len on a channel is a safe (if momentary) read; good enough for a
	// backpressure gauge refreshed once per batch.
	s.depth.Set(int64(len(s.ch)))
	s.pending = sm.freshBatch()
}

// freshBatch takes a batch buffer the workers recycled, or allocates one
// when none is free.
func (sm *ShardedMonitor) freshBatch() []shardMsg {
	select {
	case b := <-sm.freeBatches:
		return b
	default:
		return make([]shardMsg, 0, shardBatchSize)
	}
}

// Barrier flushes all pending batches and blocks until every shard has
// applied everything submitted before the call.
func (sm *ShardedMonitor) Barrier() {
	sm.quiesce()
	sm.mu.Unlock()
}

// quiesce takes the router lock and settles every shard behind a fence
// (a closed engine is already settled). It returns with the lock held:
// until the caller unlocks, nothing is routed and no worker is running,
// so shard state and the router's own counters can be read without
// racing a feeding goroutine.
func (sm *ShardedMonitor) quiesce() {
	sm.mu.Lock()
	if !sm.closed {
		sm.fence(shardCtl{})
	}
}

// AdvanceTo advances every shard's virtual clock to t — after applying
// everything already queued — firing due timers (windows, negative-stage
// deadlines). It blocks until all shards reach t, mirroring a
// single-engine driver calling Scheduler.RunUntil.
func (sm *ShardedMonitor) AdvanceTo(t time.Time) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.closed {
		return
	}
	if t.After(sm.lastTick) {
		sm.lastTick = t
	}
	sm.fence(shardCtl{runUntil: t})
}

// Tick is the non-blocking AdvanceTo: it queues a clock advance to t
// behind everything already submitted and returns without waiting. Event
// sources whose batches span many timestamps (the collector) use it to
// keep shard clocks tracking the stream without a barrier per batch. (At
// one shard nothing is queued: the clock runs to t before Tick returns.)
func (sm *ShardedMonitor) Tick(t time.Time) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.closed {
		return
	}
	sm.tickLocked(t)
}

// tickLocked queues the clock advance. Caller holds mu and has checked
// closed.
func (sm *ShardedMonitor) tickLocked(t time.Time) {
	sm.start()
	if t.After(sm.lastTick) {
		sm.lastTick = t
	}
	sm.post(shardCtl{runUntil: t})
}

// Drain is Barrier plus a report: it returns the total number of events
// applied across shards (>= submitted when events fan out to several
// shards, less when events were unroutable).
func (sm *ShardedMonitor) Drain() uint64 {
	sm.quiesce()
	defer sm.mu.Unlock()
	var n uint64
	for _, s := range sm.shards {
		n += s.mon.stats.events.Load()
	}
	return n
}

// Close flushes, stops all shard goroutines, and waits for them to exit.
// It is idempotent and safe to call concurrently — with itself or with
// Submit, which reports ErrClosed once the close has begun. The
// aggregate accessors remain usable after Close.
func (sm *ShardedMonitor) Close() {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.closed {
		return
	}
	sm.closed = true
	if !sm.started {
		return // no goroutines were ever spawned
	}
	sm.post(shardCtl{stop: true})
	sm.wg.Wait()
}

// Stats aggregates shard counters behind a barrier. Events is the
// router-side submission count, so a sharded and a single-threaded run
// over the same trace report identical Stats; per-shard applied counts
// are available from ShardStats. QuarantinedProperties comes from the
// shared ledger, counted once (not per shard).
func (sm *ShardedMonitor) Stats() Stats {
	sm.quiesce()
	defer sm.mu.Unlock()
	var agg Stats
	for _, s := range sm.shards {
		s.mon.stats.addTo(&agg)
	}
	agg.Events = sm.submitted
	agg.QuarantinedProperties = sm.ledger.quarantined()
	agg.LifecycleEpoch = sm.epoch.Load()
	return agg
}

// ShardStats returns each shard's raw counters behind a barrier — the
// load-balance view used by the E8 experiment.
func (sm *ShardedMonitor) ShardStats() []Stats {
	sm.quiesce()
	defer sm.mu.Unlock()
	out := make([]Stats, len(sm.shards))
	for i, s := range sm.shards {
		s.mon.stats.addTo(&out[i])
	}
	return out
}

// ActiveInstances reports the live instance population across shards,
// behind a barrier.
func (sm *ShardedMonitor) ActiveInstances() int {
	sm.quiesce()
	defer sm.mu.Unlock()
	n := 0
	for _, s := range sm.shards {
		n += s.mon.ActiveInstances()
	}
	return n
}

// SelfCheck runs every shard's invariant check behind a barrier.
func (sm *ShardedMonitor) SelfCheck() error {
	sm.quiesce()
	defer sm.mu.Unlock()
	for i, s := range sm.shards {
		if err := s.mon.SelfCheck(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
