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
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// shardBatchSize is how many routed events accumulate per shard before
// the batch is handed to the shard's goroutine. Larger batches amortize
// channel synchronization; Barrier and Drain flush partial batches.
const shardBatchSize = 64

// defaultShardQueueLen is the per-shard queue bound, in batches, when
// Config.ShardQueueLen is zero.
const defaultShardQueueLen = 64

// maxShardedProperties bounds the property count of a ShardedMonitor:
// routing masks are single 64-bit words.
const maxShardedProperties = 64

// ErrClosed is returned by Submit and SubmitBatch after Close. Before
// the robustness work a post-Close Submit panicked on a closed channel;
// now it refuses cleanly.
var ErrClosed = errors.New("core: ShardedMonitor is closed")

// ShedPolicy decides what a full shard queue does to the batch being
// flushed. Blocking preserves exact semantics at the cost of router
// stalls; the shedding policies bound router latency and record the
// loss in the soundness Ledger instead of hiding it.
type ShedPolicy uint8

// Shed policies.
const (
	// ShedBlock stalls the router until the shard drains (the default,
	// and the only policy that never loses events).
	ShedBlock ShedPolicy = iota
	// ShedDropNewest sheds the batch being flushed.
	ShedDropNewest
	// ShedDropOldest sheds the oldest queued batch to make room.
	ShedDropOldest
)

// String names the policy.
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedDropNewest:
		return "drop-newest"
	case ShedDropOldest:
		return "drop-oldest"
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
	// whoever consumes the message — the worker after applying it, or
	// shed() — must decrement it exactly once. A pointer (not a mask)
	// so the charge survives property-slot reuse across lifecycle ops.
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
// when the count hits zero: only after the last shard has applied (or
// shed) its references may the arena behind events be recycled.
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
	// apply, when non-nil, runs on the worker goroutine against the
	// shard's Monitor after the batch (if any) — the lifecycle fence:
	// because the queue is FIFO, events routed before the fence see the
	// old property set and events routed after see the new one.
	apply func(*Monitor)
}

// tenantQueue is the router-side queue-share account for one quota'd
// tenant: pending counts the tenant's shard-queue messages in flight
// (routed but not yet applied or shed). When pending reaches max the
// router stops delivering the tenant's properties — shedding only that
// tenant's events, marked UnsoundQuota in the ledger — so one tenant's
// pathological property cannot starve the shared shard queues.
type tenantQueue struct {
	name    string
	max     int64
	pending atomic.Int64
	cell    *statesize.TenantCell
}

// shard is one partition: a single-threaded Monitor with its own
// deterministic scheduler, fed in FIFO order by its own goroutine.
// pending is the router-side batch under construction (router-owned).
type shard struct {
	idx     int
	sched   *sim.Scheduler
	mon     *Monitor
	ch      chan shardCtl
	pending []shardMsg
	// depth is the shard's queue-depth gauge (batches waiting on ch),
	// refreshed at every flush; nil without telemetry.
	depth *obs.Gauge
}

// ShardedMonitor scales the single-threaded Monitor across cores: N
// shards each own a disjoint identity-hash partition of the instance
// population and run on their own goroutine over a buffered event queue.
// The router (Submit) computes, per property, which shards an event can
// possibly affect — using the compile-time shardPlan — and delivers it
// only there. Properties whose addressing paths do not pin a stable
// stage-zero identity (wandering identities, packet-identity stages,
// scan stages or guards) are monitored entirely on the catch-all shard 0,
// preserving exact single-engine semantics at the cost of parallelism.
//
// The router side (Submit, SubmitBatch, Barrier, AdvanceTo, Drain, Close,
// and the aggregate accessors) is serialized by an internal mutex, so
// Close is safe to call concurrently with Submit (Submit returns
// ErrClosed afterwards); for deterministic event ordering the router
// should still be driven from one goroutine. The shards run concurrently
// underneath. Shard goroutines start lazily on the first Submit, so
// constructing a ShardedMonitor (for capability probing, say) spawns
// nothing.
//
// Shard goroutines are supervised: a panic inside a property's step is
// recovered, the offending property is quarantined engine-wide (its
// routing bit is cleared and its live instances are purged on every
// shard), the quarantine is recorded in the soundness Ledger, and the
// shard keeps draining its queue — every other property keeps
// monitoring.
//
// Config caveats: Mode and SplitFlushLimit are ignored — shards always
// apply events inline, the per-shard queues being the split (bounded by
// ShardQueueLen with ShedPolicy deciding overflow behavior).
// MaxInstances applies per shard, not globally. DisableIndex disables
// the routing analysis too (all properties become catch-all), since
// routing is derived from the same index paths. Violation callbacks are
// serialized by an internal mutex but arrive in nondeterministic
// cross-shard order; order-sensitive consumers should compare multisets.
type ShardedMonitor struct {
	cfg    Config
	shards []*shard
	plans  []shardPlan
	// names are the installed property names by index (for ledger marks).
	names     []string
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
	// ledger is the engine-wide soundness record, shared with every
	// shard's Monitor.
	ledger *Ledger
	// state is the engine-wide state-cost accounting store, shared with
	// every shard's Monitor the same way (nil when accounting is
	// disabled). Each shard updates its own cell, so the hot path never
	// contends; StateReport reads it live, without a barrier.
	state *statesize.Tracker
	// quarMask is the engine-wide quarantine bitmask: set by whichever
	// shard recovers the panic, read by the router (to stop routing) and
	// by every worker (to purge its local instances). The only cross-
	// goroutine monitor state, hence atomic.
	quarMask atomic.Uint64
	violMu   sync.Mutex
	// epoch counts live property-set changes (install/remove after the
	// first Submit). Readable without the router lock — /healthz and
	// /state poll it while the engine runs.
	epoch atomic.Uint64
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
	// barrierWG is the reusable ack group for barrier-family operations
	// (Barrier, AdvanceTo, Drain, Stats). A field rather than a local:
	// a local WaitGroup escapes through the shardCtl channel send and
	// costs one heap allocation per barrier. Guarded by routerMu.
	barrierWG sync.WaitGroup

	// routerMu serializes the router-side entry points so Close is safe
	// against a racing Submit.
	routerMu  sync.Mutex
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
	qlen := cfg.ShardQueueLen
	if qlen <= 0 {
		qlen = defaultShardQueueLen
	}
	sm := &ShardedMonitor{
		cfg:           cfg,
		matchScratch:  make([]uint64, shards),
		createScratch: make([]uint64, shards),
		// Sized so recycling is lossless: the total batch-buffer
		// population is bounded by qlen queued + router-pending + in-
		// worker per shard, so a worker's Put always finds room and the
		// steady state allocates no new buffers.
		freeBatches: make(chan []shardMsg, shards*(qlen+2)),
		ledger:      newLedger(),
	}
	sm.ledger.instrument(cfg.Metrics, cfg.MetricsLabels)
	if cfg.Metrics != nil {
		sm.smx = newShardedMetrics(cfg.Metrics, cfg.MetricsLabels)
	}
	if !cfg.DisableStateAccounting || len(cfg.TenantQuotas) > 0 {
		// Per-property accounting series deliberately carry no shard
		// label (like propMetrics), so the tracker gets the engine-level
		// labels only. Tenant quotas need the tracker's tenant cells, so
		// they force it on.
		sm.state = statesize.NewTracker(statesize.Config{
			Shards:    shards,
			TopK:      cfg.StateTopK,
			SampleN:   cfg.StateSample,
			Watermark: cfg.StateWatermark,
			Metrics:   cfg.Metrics,
			Labels:    cfg.MetricsLabels,
		})
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
	if cfg.OnViolation != nil {
		user := cfg.OnViolation
		shardCfg.OnViolation = func(v *Violation) {
			sm.violMu.Lock()
			defer sm.violMu.Unlock()
			user(v)
		}
	}
	for i := 0; i < shards; i++ {
		sched := sim.NewScheduler()
		s := &shard{
			idx:   i,
			sched: sched,
			ch:    make(chan shardCtl, qlen),
		}
		cfgI := shardCfg
		if cfg.Metrics != nil {
			// Engine-level series get a shard label; the per-property
			// counters omit it (see propMetrics), so all shards share
			// one aggregated series per property.
			lbl := obs.L("shard", strconv.Itoa(i))
			cfgI.MetricsLabels = append(append([]obs.Label(nil), cfg.MetricsLabels...), lbl)
			s.depth = cfg.Metrics.Gauge("switchmon_shard_queue_depth",
				"Batches queued on the shard's channel at the last flush.",
				cfgI.MetricsLabels...)
		}
		s.mon = newMonitorWithLedger(sched, cfgI, sm.ledger, sm.state, i)
		sm.shards = append(sm.shards, s)
	}
	return sm
}

// Shards reports the shard count.
func (sm *ShardedMonitor) Shards() int { return len(sm.shards) }

// Ledger returns the engine-wide soundness ledger. Safe to read from any
// goroutine without a barrier — it is what /healthz polls live.
func (sm *ShardedMonitor) Ledger() *Ledger { return sm.ledger }

// StateReport snapshots the engine's state-cost accounting (per
// property, per shard, with heavy-hitter keys) and cross-references each
// property against quarantine and the soundness ledger. Deliberately
// barrier-free — it is what /state polls while shards run — so totals
// are per-field consistent, not a frozen transaction; exact agreement
// with ActiveInstances holds once the engine quiesces.
func (sm *ShardedMonitor) StateReport() statesize.Report {
	r := sm.state.Report()
	annotateReport(&r, sm.quarMask.Load(), sm.ledger)
	return r
}

// AddProperty compiles and installs a property on every shard. Kept as
// the historical name; since the lifecycle work it is InstallProperty
// and works on a live engine too.
func (sm *ShardedMonitor) AddProperty(p *property.Property) error {
	return sm.InstallProperty(p)
}

// InstallProperty compiles and installs a property on every shard,
// before or after the first Submit. A live install is epoch-fenced:
// the install order rides every shard's FIFO queue, so each in-flight
// event observes one consistent property set — either entirely before
// or entirely after the install — and routing for the new property only
// opens once every shard has acknowledged it. The install point (seq +
// virtual time) is recorded in the ledger; loss marks that predate it
// do not make the new property unsound.
func (sm *ShardedMonitor) InstallProperty(p *property.Property) error {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	if sm.closed {
		return ErrClosed
	}
	return sm.installLocked(p)
}

func (sm *ShardedMonitor) installLocked(p *property.Property) error {
	for _, n := range sm.names {
		if n == p.Name {
			return fmt.Errorf("core: property %q already installed", p.Name)
		}
	}
	cp, err := compile(p) // validate router-side before touching any shard
	if err != nil {
		return err
	}
	plan := cp.plan
	if sm.cfg.DisableIndex {
		// Routing is derived from the index paths; without them every
		// property is catch-all.
		plan = shardPlan{}
	}
	// Reserve a slot: the first tombstone, else append. Shard monitors
	// pick their slot independently (installLocal takes the first nil
	// props entry) but necessarily agree with the router: every lifecycle
	// op is applied to all shards through the same fenced sequence, so
	// router tombstones and shard tombstones coincide.
	idx := -1
	for i, n := range sm.names {
		if n == "" {
			idx = i
			break
		}
	}
	if idx < 0 {
		if len(sm.names) >= maxShardedProperties {
			return fmt.Errorf("core: ShardedMonitor supports at most %d properties", maxShardedProperties)
		}
		idx = len(sm.names)
		sm.names = append(sm.names, "")
		sm.plans = append(sm.plans, shardPlan{})
	}
	if sm.started {
		sm.fenceApply(func(m *Monitor) { _, _ = m.installLocal(p) })
	} else {
		for _, s := range sm.shards {
			if _, err := s.mon.installLocal(p); err != nil {
				return err
			}
		}
	}
	// Only now — with the property resident on every shard — open routing.
	sm.plans[idx] = plan
	sm.names[idx] = p.Name
	if !plan.shardable {
		sm.hasCatchall = true
	}
	if tq := sm.quotaByName[p.Tenant]; tq != nil {
		sm.tenantOf[idx] = tq
		sm.quotaBits |= uint64(1) << uint(idx)
	}
	at := time.Time{}
	if sm.started && sm.submitted > 0 {
		// A live install gets the router's clock high-water mark as its
		// soundness watermark; bootstrap installs keep the zero time so
		// they are accountable for the whole run.
		at = sm.lastTick
		sm.epoch.Add(1)
	}
	sm.ledger.RecordInstall(p.Name, p.Tenant, sm.epoch.Load(), sm.submitted, at)
	return nil
}

// RemoveProperty removes a property from every shard, live. Routing is
// closed first, then a fence rides every shard's FIFO queue purging the
// property's instances, pooled state, and pending timers — events
// already in flight still apply to it before the fence; nothing after
// does. The slot (and its routing bit) is reusable by a later install;
// the ledger keeps the property's marks and records the removal.
func (sm *ShardedMonitor) RemoveProperty(name string) error {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	if sm.closed {
		return ErrClosed
	}
	return sm.removeLocked(name)
}

func (sm *ShardedMonitor) removeLocked(name string) error {
	idx := -1
	for i, n := range sm.names {
		if n == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: property %q not installed", name)
	}
	bit := uint64(1) << uint(idx)
	// Close routing before anything else: no new deliveries carry the bit.
	sm.names[idx] = ""
	sm.plans[idx] = shardPlan{}
	sm.hasCatchall = false
	for i := range sm.plans {
		if sm.names[i] != "" && !sm.plans[i].shardable {
			sm.hasCatchall = true
			break
		}
	}
	if tq := sm.tenantOf[idx]; tq != nil {
		sm.tenantOf[idx] = nil
		sm.quotaBits &^= bit
	}
	// Clear the engine-wide quarantine bit before the fence so no worker
	// re-adopts it onto the (about to be freed) slot, and again after —
	// a shard may still publish a quarantine for the property while
	// draining its pre-fence queue.
	sm.clearQuarBit(bit)
	if sm.started {
		sm.fenceApply(func(m *Monitor) { m.removeLocal(idx, false) })
	} else {
		for _, s := range sm.shards {
			s.mon.removeLocal(idx, false)
		}
	}
	sm.clearQuarBit(bit)
	// Retire the shared tracker slot exactly once, after every shard has
	// stopped touching it.
	sm.state.Uninstall(idx)
	if sm.started && sm.submitted > 0 {
		sm.epoch.Add(1)
	}
	sm.ledger.RecordRemove(name)
	return nil
}

// ReplaceProperty atomically (from the event stream's point of view)
// swaps the named property for a new compilation: remove + install under
// one router critical section. The ledger marks the property reinstalled
// — verdicts are sound from the new install point only.
func (sm *ShardedMonitor) ReplaceProperty(p *property.Property) error {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	if sm.closed {
		return ErrClosed
	}
	for _, n := range sm.names {
		if n == p.Name {
			if err := sm.removeLocked(p.Name); err != nil {
				return err
			}
			break
		}
	}
	return sm.installLocked(p)
}

// Epoch reports the live property-set generation — bumped by every
// install or remove after the first Submit. Safe from any goroutine.
func (sm *ShardedMonitor) Epoch() uint64 { return sm.epoch.Load() }

// Properties lists the currently installed property names (tombstoned
// slots omitted), in slot order.
func (sm *ShardedMonitor) Properties() []string {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	out := make([]string, 0, len(sm.names))
	for _, n := range sm.names {
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// fenceApply pushes fn through every shard's FIFO queue and waits for
// all shards to execute it: events routed before the fence are applied
// before fn runs, events routed after it see its effects. Caller holds
// routerMu with the engine started.
func (sm *ShardedMonitor) fenceApply(fn func(*Monitor)) {
	sm.barrierWG.Add(len(sm.shards))
	for _, s := range sm.shards {
		sm.flushShard(s)
		s.ch <- shardCtl{apply: fn, ack: &sm.barrierWG}
	}
	sm.barrierWG.Wait()
}

// clearQuarBit clears one property's engine-wide quarantine bit (CAS
// loop; the mask is contended by recovering shards).
func (sm *ShardedMonitor) clearQuarBit(bit uint64) {
	for {
		old := sm.quarMask.Load()
		if old&bit == 0 {
			return
		}
		if sm.quarMask.CompareAndSwap(old, old&^bit) {
			return
		}
	}
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
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	if sm.started {
		return fmt.Errorf("core: SetShardProbe after first Submit")
	}
	if shard < 0 || shard >= len(sm.shards) {
		return fmt.Errorf("core: SetShardProbe shard %d out of range [0,%d)", shard, len(sm.shards))
	}
	sm.shards[shard].mon.SetStepProbe(fn)
	return nil
}

// start launches the shard goroutines (idempotent).
func (sm *ShardedMonitor) start() {
	sm.startOnce.Do(func() {
		sm.started = true
		sm.wg.Add(len(sm.shards))
		for _, s := range sm.shards {
			go sm.worker(s)
		}
	})
}

// worker drains one shard's queue: applies event batches in FIFO order,
// advances the shard's virtual clock on request, and acknowledges
// barriers. It owns the shard's Monitor exclusively. Every unit of work
// is panic-protected: a recovered panic quarantines the property it was
// attributed to and the worker keeps going — this is the "restart" in
// shard supervision, the goroutine itself never dies.
func (sm *ShardedMonitor) worker(s *shard) {
	defer sm.wg.Done()
	onPanic := func(prop int, cause any) { sm.quarantine(s, prop, cause) }
	for {
		ctl := <-s.ch
		// Adopt quarantines published by other shards before touching
		// state: the batch may still carry mask bits for a property
		// another shard just quarantined.
		if q := sm.quarMask.Load(); q&^s.mon.quarantined != 0 {
			s.mon.quarantineLocal(q &^ s.mon.quarantined)
		}
		for i := range ctl.batch {
			msg := &ctl.batch[i]
			ev := msg.event()
			if sp := ev.Trace; sp != nil && sm.cfg.Tracer != nil {
				sp.Stamp(tracer.StageShardDispatch)
			}
			// Run the shard's clock up to the event's time before applying
			// it — the inline driver's RunUntil-then-handle discipline.
			// Without this, an instance armed right after a quiet stretch
			// anchors its window deadline at the stale clock and the
			// post-batch tick expires it before its evidence can arrive.
			// Lagging streams (another switch behind this one) regress in
			// event time and leave the clock untouched.
			if ev.Time.After(s.sched.Now()) {
				sm.runShardUntil(s, ev.Time)
			}
			s.mon.applyRouted(ev, msg.matchMask, msg.createMask, onPanic)
			if sp := ev.Trace; sp != nil && sm.cfg.Tracer != nil && sp.Release() {
				sp.Stamp(tracer.StageVerdict)
				sm.cfg.Tracer.Finish(sp)
			}
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
			// totally ordered against the event stream (FIFO queue).
			ctl.apply(s.mon)
		}
		if !ctl.runUntil.IsZero() {
			sm.runShardUntil(s, ctl.runUntil)
		}
		if ctl.ack != nil {
			ctl.ack.Done()
		}
		if ctl.stop {
			return
		}
	}
}

// runShardUntil is Scheduler.RunUntil under supervision: a panic in a
// timer callback (window expiry, negative-observation advance, a user
// violation callback) is recovered and attributed via Monitor.curProp,
// the property quarantined, and the run resumed — the scheduler pops a
// task before executing it, so the panicking task is consumed and the
// remaining queue is intact. A panic with no attribution is re-raised:
// it did not come from a property step, and masking it would hide an
// engine bug.
func (sm *ShardedMonitor) runShardUntil(s *shard, t time.Time) {
	for {
		done := func() (completed bool) {
			defer func() {
				if r := recover(); r != nil {
					pi := s.mon.curProp
					if pi < 0 {
						panic(r)
					}
					sm.quarantine(s, pi, r)
					completed = false
				}
			}()
			s.mon.curProp = -1
			s.sched.RunUntil(t)
			return true
		}()
		if done {
			return
		}
	}
}

// quarantine publishes property pi's quarantine engine-wide, purges it
// from the recovering shard, and records it in the ledger (first
// publisher only — concurrent recoveries on several shards converge on
// one mark).
func (sm *ShardedMonitor) quarantine(s *shard, pi int, cause any) {
	bit := uint64(1) << uint(pi)
	first := false
	for {
		old := sm.quarMask.Load()
		if old&bit != 0 {
			break
		}
		if sm.quarMask.CompareAndSwap(old, old|bit) {
			first = true
			break
		}
	}
	s.mon.quarantineLocal(bit)
	if first {
		// Read the name from the worker-owned monitor, not sm.names —
		// the router may be mutating the name table for an unrelated
		// lifecycle op right now.
		name := ""
		if cp := s.mon.props[pi]; cp != nil {
			name = cp.prop.Name
		}
		if name != "" {
			sm.ledger.Mark(name, UnsoundQuarantine, s.mon.seq, s.sched.Now(), 0,
				fmt.Sprintf("panic on shard %d: %v", s.idx, cause))
		}
	}
}

// Feed implements Engine: a Tick when event time moves past the last
// clock advance, then a Submit. An event fed after Close is dropped.
func (sm *ShardedMonitor) Feed(e Event) {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	if sm.closed {
		return
	}
	if e.Time.After(sm.lastTick) {
		sm.tickLocked(e.Time)
	}
	sm.routeLocked(&e, nil, 0)
}

// Submit routes one event to the shards it can affect and enqueues it.
// Events that no property can act on are dropped at the router, as are
// routes to quarantined properties. After Close, Submit reports
// ErrClosed instead of enqueueing.
func (sm *ShardedMonitor) Submit(e Event) error {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	if sm.closed {
		return ErrClosed
	}
	sm.routeLocked(&e, nil, 0)
	return nil
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
// delivering shard. Caller holds routerMu and has checked closed.
func (sm *ShardedMonitor) routeLocked(e *Event, ref *batchRef, idx int32) {
	sm.start()
	sm.submitted++
	n := uint64(len(sm.shards))
	quar := sm.quarMask.Load()
	mm, cm := sm.matchScratch, sm.createScratch
	quotaShed := false
	for pi := range sm.plans {
		bit := uint64(1) << uint(pi)
		if quar&bit != 0 {
			continue // quarantined: the property sees no further events
		}
		if sm.names[pi] == "" {
			continue // tombstone: slot freed by RemoveProperty
		}
		if sm.quotaBits&bit != 0 {
			if tq := sm.tenantOf[pi]; tq.pending.Load() >= tq.max {
				// The tenant's queue share is exhausted: shed this
				// delivery for this tenant's property only — other
				// tenants' verdicts stay exact — and account for it.
				tq.cell.Shed(1)
				sm.ledger.Mark(sm.names[pi], UnsoundQuota, sm.submitted, e.Time, 1,
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
// last shard holding a reference has applied (or shed) it, or
// immediately when nothing needs the batch. Until release fires the
// slice and everything it points to must stay untouched; after it
// fires the arena may be recycled (the engine retains only value
// copies of what it read — see DESIGN.md §5g). With a nil release,
// events are copied into the shard queues and evs is the caller's
// again on return.
func (sm *ShardedMonitor) SubmitBatch(evs []Event, release func()) error {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	if sm.closed {
		if release != nil {
			release()
		}
		return ErrClosed
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
// recycled batch buffer for the next one. When the shard's queue is full
// the configured ShedPolicy decides: block until the worker drains
// (default), shed this batch, or shed the oldest queued batch — shed
// events are recorded per affected property in the soundness ledger.
func (sm *ShardedMonitor) flushShard(s *shard) {
	if len(s.pending) == 0 {
		return
	}
	if sm.smx != nil {
		sm.smx.batchSize.Observe(uint64(len(s.pending)))
	}
	ctl := shardCtl{batch: s.pending}
	switch sm.cfg.ShedPolicy {
	case ShedDropNewest:
		select {
		case s.ch <- ctl:
		default:
			// Queue full: shed the batch under construction and reuse its
			// backing array for the next one.
			sm.shed(s.pending)
			s.pending = s.pending[:0]
			s.depth.Set(int64(len(s.ch)))
			return
		}
	case ShedDropOldest:
	send:
		for {
			select {
			case s.ch <- ctl:
				break send
			default:
			}
			select {
			case old := <-s.ch:
				// Shed the oldest batch but preserve any control payload
				// it carried: fold its clock advance into ours and forward
				// its barrier ack. (Acks cannot actually be queued here —
				// Barrier holds the router lock until they are consumed —
				// but losing one silently would deadlock a future caller.)
				if old.batch != nil {
					sm.shed(old.batch)
					select {
					case sm.freeBatches <- old.batch[:0]:
					default:
					}
				}
				if old.runUntil.After(ctl.runUntil) {
					ctl.runUntil = old.runUntil
				}
				if old.apply != nil {
					// Lifecycle fences must never be shed. (Like acks they
					// cannot actually be queued here — fenceApply holds the
					// router lock — but losing one would corrupt the
					// property set.)
					if prev := ctl.apply; prev != nil {
						oldApply := old.apply
						ctl.apply = func(m *Monitor) { oldApply(m); prev(m) }
					} else {
						ctl.apply = old.apply
					}
				}
				if old.ack != nil {
					if ctl.ack == nil {
						ctl.ack = old.ack
					} else {
						old.ack.Done()
					}
				}
			default:
				// The worker drained between our probes; retry the send.
			}
		}
	default: // ShedBlock
		s.ch <- ctl
	}
	// len on a channel is a safe (if momentary) read; good enough for a
	// backpressure gauge refreshed once per batch.
	s.depth.Set(int64(len(s.ch)))
	select {
	case b := <-sm.freeBatches:
		s.pending = b
	default:
		s.pending = make([]shardMsg, 0, shardBatchSize)
	}
}

// shed records a dropped batch in the soundness ledger: the aggregate
// shed count once, plus one per-property mark counting how many of the
// batch's events each property would have seen.
func (sm *ShardedMonitor) shed(batch []shardMsg) {
	at := batch[0].event().Time // before any unref can recycle the slab
	var perProp [maxShardedProperties]uint64
	for i := range batch {
		mask := batch[i].matchMask | batch[i].createMask
		for mask != 0 {
			pi := bits.TrailingZeros64(mask)
			mask &= mask - 1
			perProp[pi]++
		}
		if sp := batch[i].event().Trace; sp != nil && sm.cfg.Tracer != nil && sp.Release() {
			// The shed copy was this span's last outstanding reference:
			// no verdict will ever come, so finish it verdict-less.
			sm.cfg.Tracer.Finish(sp)
		}
		if r := batch[i].ref; r != nil {
			// A shed delivery drops its hold too, or the arena would
			// never be released.
			r.unref()
		}
		if tq := batch[i].tq; tq != nil {
			// A shed delivery settles its tenant queue-share charge too.
			tq.pending.Add(-1)
		}
	}
	for pi, c := range perProp {
		if c == 0 || sm.names[pi] == "" {
			// Tombstoned slots can still appear in old masks during a
			// remove; the property is going away — nothing to mark.
			continue
		}
		sm.ledger.Mark(sm.names[pi], UnsoundShed, sm.submitted, at, c, "shard queue overflow shed")
	}
	sm.ledger.recordLost(UnsoundShed, uint64(len(batch)))
}

// Barrier flushes all pending batches and blocks until every shard has
// applied everything submitted before the call. After Barrier (and before
// the next Submit) the aggregate accessors read a consistent snapshot.
func (sm *ShardedMonitor) Barrier() {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	sm.barrierLocked()
}

func (sm *ShardedMonitor) barrierLocked() {
	if sm.closed {
		return
	}
	sm.start()
	sm.barrierWG.Add(len(sm.shards))
	for _, s := range sm.shards {
		sm.flushShard(s)
		s.ch <- shardCtl{ack: &sm.barrierWG}
	}
	sm.barrierWG.Wait()
}

// AdvanceTo advances every shard's virtual clock to t — after applying
// everything already queued — firing due timers (windows, negative-stage
// deadlines). It blocks until all shards reach t, mirroring a
// single-engine driver calling Scheduler.RunUntil.
func (sm *ShardedMonitor) AdvanceTo(t time.Time) {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	if sm.closed {
		return
	}
	sm.start()
	if t.After(sm.lastTick) {
		sm.lastTick = t
	}
	sm.barrierWG.Add(len(sm.shards))
	for _, s := range sm.shards {
		sm.flushShard(s)
		s.ch <- shardCtl{runUntil: t, ack: &sm.barrierWG}
	}
	sm.barrierWG.Wait()
}

// Tick is the non-blocking AdvanceTo: it queues a clock advance to t
// behind everything already submitted and returns without waiting. Event
// sources whose batches span many timestamps (the collector) use it to
// keep shard clocks tracking the stream without a barrier per batch.
func (sm *ShardedMonitor) Tick(t time.Time) {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	if sm.closed {
		return
	}
	sm.tickLocked(t)
}

// tickLocked queues the clock advance. Caller holds routerMu and has
// checked closed.
func (sm *ShardedMonitor) tickLocked(t time.Time) {
	sm.start()
	if t.After(sm.lastTick) {
		sm.lastTick = t
	}
	for _, s := range sm.shards {
		sm.flushShard(s)
		s.ch <- shardCtl{runUntil: t}
	}
}

// Drain is Barrier plus a report: it returns the total number of events
// applied across shards (>= submitted when events fan out to several
// shards, less when events were unroutable).
func (sm *ShardedMonitor) Drain() uint64 {
	sm.Barrier()
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
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	if sm.closed {
		return
	}
	sm.closed = true
	if !sm.started {
		return // no goroutines were ever spawned
	}
	for _, s := range sm.shards {
		sm.flushShard(s)
		s.ch <- shardCtl{stop: true}
	}
	sm.wg.Wait()
}

// Stats aggregates shard counters (after an implicit Barrier). Events is
// the router-side submission count, so a sharded and a single-threaded
// run over the same trace report identical Stats; per-shard applied
// counts are available from ShardStats. ShedEvents and
// QuarantinedProperties come from the shared ledger, counted once (not
// per shard).
func (sm *ShardedMonitor) Stats() Stats {
	sm.Barrier()
	var agg Stats
	for _, s := range sm.shards {
		st := s.mon.stats.snapshot()
		agg.Created += st.Created
		agg.Advanced += st.Advanced
		agg.Violations += st.Violations
		agg.Discharged += st.Discharged
		agg.Expired += st.Expired
		agg.Deduped += st.Deduped
		agg.Refreshed += st.Refreshed
		agg.Suppressed += st.Suppressed
		agg.Evicted += st.Evicted
		agg.DroppedEvents += st.DroppedEvents
	}
	agg.Events = sm.submitted
	agg.ShedEvents, agg.QuarantinedProperties = sm.ledger.robustnessTotals()
	agg.LifecycleEpoch = sm.epoch.Load()
	return agg
}

// MarkFeedLoss records that n events were lost upstream of the router:
// every installed property is marked unsound in the shared ledger.
func (sm *ShardedMonitor) MarkFeedLoss(at time.Time, n uint64, detail string) {
	sm.MarkLoss(UnsoundInjectedLoss, at, n, detail)
}

// MarkLoss is MarkFeedLoss with an explicit reason. The collector calls
// it with UnsoundWireLoss when per-datapath sequence numbers reveal a
// gap, so network-induced degradation stays distinguishable from
// locally injected loss.
func (sm *ShardedMonitor) MarkLoss(reason UnsoundReason, at time.Time, n uint64, detail string) {
	sm.routerMu.Lock()
	defer sm.routerMu.Unlock()
	for _, name := range sm.names {
		if name == "" {
			continue // tombstoned slot
		}
		sm.ledger.Mark(name, reason, sm.submitted, at, n, detail)
	}
	sm.ledger.recordLost(reason, n)
}

// ShardStats returns each shard's raw counters (after an implicit
// Barrier) — the load-balance view used by the E8 experiment.
func (sm *ShardedMonitor) ShardStats() []Stats {
	sm.Barrier()
	out := make([]Stats, len(sm.shards))
	for i, s := range sm.shards {
		out[i] = s.mon.stats.snapshot()
	}
	return out
}

// ActiveInstances reports the live instance population across shards
// (after an implicit Barrier).
func (sm *ShardedMonitor) ActiveInstances() int {
	sm.Barrier()
	n := 0
	for _, s := range sm.shards {
		n += s.mon.ActiveInstances()
	}
	return n
}

// Quarantined reports the engine-wide quarantine bitmask. Safe from any
// goroutine.
func (sm *ShardedMonitor) Quarantined() uint64 { return sm.quarMask.Load() }

// SelfCheck runs every shard's invariant check (after an implicit
// Barrier).
func (sm *ShardedMonitor) SelfCheck() error {
	sm.Barrier()
	for i, s := range sm.shards {
		if err := s.mon.SelfCheck(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// applyRouted is apply restricted by per-property routing masks: matchMask
// bits allow suppression seeding and stage >= 1 matching, createMask bits
// allow stage-zero creation. The full apply is applyRouted with all bits
// set; the router's static analysis guarantees the cleared bits could not
// have acted at this shard. Each property's step is panic-protected: a
// panic during property pi's step (including one raised by a fault probe)
// is reported to onPanic — which is expected to quarantine pi — and the
// remaining properties are stepped as if nothing happened. The event and
// latency accounting happen exactly once regardless of how many
// properties fail.
func (m *Monitor) applyRouted(e *Event, matchMask, createMask uint64, onPanic func(prop int, cause any)) {
	var start time.Time
	if m.mx != nil {
		start = time.Now()
	}
	m.stats.events.Add(1)
	m.seq++
	seq := m.seq
	from := 0
	for from < len(m.props) {
		failed, cause, ok := m.stepPropsProtected(e, seq, matchMask, createMask, from)
		if ok {
			break
		}
		onPanic(failed, cause)
		from = failed + 1
	}
	if m.mx != nil {
		m.mx.events.Inc()
		m.mx.eventNs.Observe(uint64(time.Since(start)))
	}
}

// stepPropsProtected steps properties [from, len) under a recover. On a
// panic it reports the failing property (read from curProp, which every
// step sets before doing work) and the panic value; ok means the whole
// range completed.
func (m *Monitor) stepPropsProtected(e *Event, seq uint64, matchMask, createMask uint64, from int) (failed int, cause any, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			failed = m.curProp
			cause = r
			ok = false
		}
	}()
	for pi := from; pi < len(m.props); pi++ {
		cp := m.props[pi]
		bit := uint64(1) << uint(pi)
		if cp == nil || (matchMask|createMask)&bit == 0 || m.quarantined&bit != 0 {
			continue
		}
		m.curProp = pi
		if m.stepProbe != nil {
			m.stepProbe(pi, seq)
		}
		m.stepProp(pi, cp, e, seq, matchMask&bit != 0, createMask&bit != 0)
	}
	return -1, nil, true
}
