// Package statesize is the engine's state-cost accounting: how much
// monitor state each property holds right now, and which flow keys hold
// it. The paper's Table 2 compares switch designs by exactly this cost;
// this package makes it a live, queryable quantity instead of a
// post-mortem estimate — the /state introspection endpoint, the
// state_pressure early-warning series, and the per-tenant quota work the
// ROADMAP sketches all read from here.
//
// The design constraints mirror internal/obs: the hot path (instance
// filed, instance removed, timer armed, pool recycle) pays a few
// uncontended atomic adds and allocates nothing; snapshots (Report) are
// assembled from atomic loads on the observer's goroutine, so a /state
// poll never stops the engine. Each quantity is stored once, in a cell
// per (property, shard) only that shard writes; a property's totals
// (Report, the watermark, the read-through series) are sums of its cells
// taken when read. Heavy-hitter attribution uses a per-shard
// space-saving sketch over fixed atomic slots — single-writer per shard,
// lock-free readers — fed by the same deterministic 1-in-N identity-hash
// sampling idiom the tracer uses (murmur-finalized fastrange), so the
// sampled path costs one multiply-compare per filing.
package statesize

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"switchmon/internal/obs"
)

// Config parameterizes a Tracker.
type Config struct {
	// Shards is the number of engine shards feeding the tracker
	// (clamped to at least 1). Each shard gets its own counter cell and
	// sketch, so hot-path updates never contend across shards.
	Shards int
	// TopK is the per-property, per-shard heavy-hitter sketch capacity;
	// 0 disables the sketch (accounting still runs).
	TopK int
	// SampleN samples one filing in N into the sketch, decided by the
	// filing key's identity-hash class — deterministic, so the same flow
	// is always sampled or always skipped. 0 or 1 observes every filing.
	SampleN uint64
	// Watermark is the per-property live-instance count above which the
	// property is flagged under state pressure (a soundness-ledger-
	// adjacent warning that fires before any shed or quarantine does);
	// 0 disables watermarking.
	Watermark int64
	// Metrics, when non-nil, registers the tracker's gauge/counter
	// series; per-property series carry only the property label (plus
	// Labels), so trackers sharing a registry aggregate per property.
	Metrics *obs.Registry
	// Labels are attached to every series the tracker registers.
	Labels []obs.Label
}

// counters is one (property, shard) accounting cell: the
// live/bytes/timers triple plus the cumulative filing count, atomic so a
// cell can be read while its shard is mid-event, and padded to its own
// cache line.
type counters struct {
	n [numCells]atomic.Int64
	_ [64 - numCells*8]byte
}

// The counts a cell holds, indexes into counters.n.
const (
	cellLive = iota
	cellBytes
	cellTimers
	cellFilings
	numCells
)

// prop is one property's accounting: per-shard cells, whose sums are the
// property's totals, and per-shard sketches for heavy-hitter keys.
type prop struct {
	name      string
	tenant    string
	shards    []counters
	sketch    []sketch
	pressure  atomic.Uint32 // 0 = below watermark, 1 = over
	crossings atomic.Uint64 // lifetime 0->1 transitions
	// retire drops the property's read-through series (Uninstall).
	retire []func()
}

// sum adds count i over the property's cells: its engine-wide total.
func (p *prop) sum(i int) (n int64) {
	for s := range p.shards {
		n += p.shards[s].n[i].Load()
	}
	return n
}

// Tracker is the engine-wide accounting store. One Tracker is shared by
// all shards of an engine (like the soundness Ledger); each shard
// resolves per-property Handles at install time and updates through
// them on its own goroutine. Report may be called from any goroutine at
// any time.
type Tracker struct {
	cfg  Config
	pool []atomic.Int64 // per-shard instance free-list population

	mu      sync.Mutex
	props   []*prop
	tenants map[string]*TenantCell
}

// NewTracker builds a tracker for an engine with cfg.Shards shards.
func NewTracker(cfg Config) *Tracker {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.TopK < 0 {
		cfg.TopK = 0
	}
	return &Tracker{cfg: cfg, pool: make([]atomic.Int64, cfg.Shards)}
}

// InstallTenant registers property idx under name and the property's
// tenant ("" for none), so tenant accounting and /state attribution
// survive slot reuse across the property lifecycle. Indices must be
// installed in order, matching the engine's property indices.
// Reinstalling into a slot retired by Uninstall creates a fresh entry;
// calling it on a live slot is a no-op (the idempotence every shard of a
// sharded engine relies on: each installs the same property at the same
// index, and only the first call creates the entry).
func (t *Tracker) InstallTenant(idx int, name, tenant string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.props) <= idx {
		t.props = append(t.props, nil)
	}
	if t.props[idx] != nil {
		return
	}
	p := &prop{name: name, tenant: tenant, shards: make([]counters, t.cfg.Shards)}
	if k := t.cfg.TopK; k > 0 {
		p.sketch = make([]sketch, t.cfg.Shards)
		for i := range p.sketch {
			p.sketch[i].init(k)
		}
	}
	if reg := t.cfg.Metrics; reg != nil {
		l := append(append([]obs.Label(nil), t.cfg.Labels...), obs.L("property", name))
		p.retire = []func(){
			reg.GaugeFunc("switchmon_state_live_instances", "Live (filed) monitor instances held by the property.",
				func() int64 { return p.sum(cellLive) }, l...),
			reg.GaugeFunc("switchmon_state_approx_bytes", "Approximate bytes of instance state (bindings, provenance, index keys) held by the property.",
				func() int64 { return p.sum(cellBytes) }, l...),
			reg.GaugeFunc("switchmon_state_pending_timers", "Armed deadline timers (windows, negative-observation deadlines) held by the property.",
				func() int64 { return p.sum(cellTimers) }, l...),
			reg.GaugeFunc("switchmon_state_pressure", "1 while the property's live instance count exceeds the configured watermark.",
				func() int64 { return int64(p.pressure.Load()) }, l...),
			reg.CounterFunc("switchmon_state_pressure_crossings_total", "Watermark crossings: transitions from below to above the state watermark.",
				p.crossings.Load, l...),
		}
	}
	t.props[idx] = p
}

// Handle returns the hot-path accounting handle for (property idx,
// shard). Install must have run for idx first. Handles are resolved
// once at install time, never on the event path.
func (t *Tracker) Handle(idx, shard int) *Handle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	p := t.props[idx]
	t.mu.Unlock()
	h := &Handle{p: p, local: &p.shards[shard].n, sampleN: t.cfg.SampleN, watermark: t.cfg.Watermark}
	if p.sketch != nil {
		h.sk = &p.sketch[shard]
	}
	return h
}

// Uninstall retires property idx: its series stop reading its cells
// (the gauges leave with them, so a later reinstall under the same
// series name starts from zero; the crossings counter keeps its count),
// and the slot is tombstoned for reuse by the next InstallTenant.
// Callers must have purged the property's instances first; under a
// sharded engine only the router calls this, once, after every shard has
// acked its purge. Nil-safe.
func (t *Tracker) Uninstall(idx int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx >= len(t.props) || t.props[idx] == nil {
		return
	}
	for _, retire := range t.props[idx].retire {
		retire()
	}
	t.props[idx] = nil
}

// TenantCell is one tenant's shared accounting: live instances across
// all the tenant's properties (every shard adds here: a quota is checked
// against this one word) and the cumulative count of instances or
// events its quotas rejected; the tenant series read both. All methods
// are nil-receiver safe — a nil cell is the untenanted case and costs
// callers one pointer test.
type TenantCell struct {
	name      string
	instances atomic.Int64
	shed      atomic.Uint64
}

// Instances reports the tenant's live instance population.
func (c *TenantCell) Instances() int64 {
	if c == nil {
		return 0
	}
	return c.instances.Load()
}

// ShedTotal reports how many instances/events the tenant's quotas shed.
func (c *TenantCell) ShedTotal() uint64 {
	if c == nil {
		return 0
	}
	return c.shed.Load()
}

// FileInstance records one instance filed under the tenant.
func (c *TenantCell) FileInstance() {
	if c == nil {
		return
	}
	c.instances.Add(1)
}

// UnfileInstance records one tenant instance unfiled.
func (c *TenantCell) UnfileInstance() {
	if c == nil {
		return
	}
	c.instances.Add(-1)
}

// Shed records n instances or routed events rejected by the tenant's
// quota.
func (c *TenantCell) Shed(n uint64) {
	if c == nil {
		return
	}
	c.shed.Add(n)
}

// Tenant returns the named tenant's accounting cell, creating it (and
// registering its switchmon_tenant_instances / switchmon_tenant_shed_total
// series) on first use. Cells are engine-lifetime: they survive the
// tenant's properties being removed, so the shed history reads
// continuously. Returns nil for the empty (default) tenant.
func (t *Tracker) Tenant(name string) *TenantCell {
	if t == nil || name == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tenants == nil {
		t.tenants = map[string]*TenantCell{}
	}
	if c := t.tenants[name]; c != nil {
		return c
	}
	c := &TenantCell{name: name}
	if reg := t.cfg.Metrics; reg != nil {
		l := append(append([]obs.Label(nil), t.cfg.Labels...), obs.L("tenant", name))
		reg.GaugeFunc("switchmon_tenant_instances",
			"Live monitor instances held by the tenant's properties.", c.instances.Load, l...)
		reg.CounterFunc("switchmon_tenant_shed_total",
			"Instances and routed events rejected by the tenant's quotas.", c.shed.Load, l...)
	}
	t.tenants[name] = c
	return c
}

// PoolGet records an instance leaving the shard's free list (recycled
// into use). Nil-safe.
func (t *Tracker) PoolGet(shard int) {
	if t != nil {
		t.pool[shard].Add(-1)
	}
}

// PoolPut records a terminally dead instance returning to the shard's
// free list. Nil-safe.
func (t *Tracker) PoolPut(shard int) {
	if t != nil {
		t.pool[shard].Add(1)
	}
}

// Handle is the per-(property, shard) hot-path handle: direct pointers
// to the cells its updates touch, resolved once. All methods are
// nil-receiver safe (a nil handle is the accounting-disabled case) and
// allocation-free.
type Handle struct {
	p         *prop
	local     *[numCells]atomic.Int64
	sk        *sketch
	sampleN   uint64
	watermark int64
}

// File records an instance being filed: live population, approximate
// byte cost, the filing counter (three adds to the shard's own cell),
// the watermark check (the property's live total, summed by loads), and
// — when the filing key lands in the sampled 1-in-N class — the
// heavy-hitter sketch. key is the order-invariant hash of the instance's
// bindings (stable as the flow advances stages); bytes is the caller's
// estimate of the instance's resident cost, which the matching Unfile
// must return exactly.
func (h *Handle) File(key uint64, bytes int64) {
	if h == nil {
		return
	}
	h.local[cellLive].Add(1)
	h.local[cellBytes].Add(bytes)
	h.local[cellFilings].Add(1)
	p := h.p
	if w := h.watermark; w > 0 && p.pressure.Load() == 0 && p.sum(cellLive) > w && p.pressure.CompareAndSwap(0, 1) {
		p.crossings.Add(1)
	}
	if h.sk != nil && (h.sampleN <= 1 || obs.InSample(key, h.sampleN)) {
		h.sk.observe(key)
	}
}

// Unfile records an instance being unfiled (advanced, discharged,
// expired, evicted, suppressed, or purged), returning the bytes the
// File charged. Pressure clears with hysteresis: only once the live
// count falls to three quarters of the watermark, so a population
// oscillating at the line does not flap the flag.
func (h *Handle) Unfile(bytes int64) {
	if h == nil {
		return
	}
	h.local[cellLive].Add(-1)
	h.local[cellBytes].Add(-bytes)
	p := h.p
	if w := h.watermark; w > 0 && p.pressure.Load() == 1 && p.sum(cellLive) <= w-(w>>2) {
		p.pressure.CompareAndSwap(1, 0)
	}
}

// ArmTimer records a deadline timer being armed for the property.
func (h *Handle) ArmTimer() {
	if h == nil {
		return
	}
	h.local[cellTimers].Add(1)
}

// DisarmTimer records a deadline timer being stopped or fired.
func (h *Handle) DisarmTimer() {
	if h == nil {
		return
	}
	h.local[cellTimers].Add(-1)
}

// Sketching reports whether filings feed a heavy-hitter sketch (lets
// callers skip computing the filing key when they would not use it).
func (h *Handle) Sketching() bool { return h != nil && h.sk != nil }

// sketch is a space-saving heavy-hitter summary over fixed atomic
// slots. The owning shard is the only writer, so the lookup-or-min scan
// needs no lock; concurrent readers load slots atomically and tolerate
// an occasional torn (key, count, err) triple mid-replacement — a
// monitoring answer, not an audit record. A key's true (sampled) filing
// count c is bounded by count-err <= c <= count, the standard
// space-saving guarantee; err is at most total/K.
type sketch struct {
	keys   []atomic.Uint64
	counts []atomic.Uint64
	errs   []atomic.Uint64
}

func (s *sketch) init(k int) {
	s.keys = make([]atomic.Uint64, k)
	s.counts = make([]atomic.Uint64, k)
	s.errs = make([]atomic.Uint64, k)
}

// observe counts one filing of key. A present key increments in place;
// otherwise the minimum-count slot is evicted and the new key inherits
// its count as overestimation error (the space-saving replacement
// rule). Zero is the empty-slot sentinel, so a real zero key is nudged.
func (s *sketch) observe(key uint64) {
	if key == 0 {
		key = 1
	}
	minI, minC := 0, ^uint64(0)
	for i := range s.keys {
		if s.keys[i].Load() == key {
			s.counts[i].Add(1)
			return
		}
		if c := s.counts[i].Load(); c < minC {
			minC, minI = c, i
		}
	}
	s.keys[minI].Store(key)
	s.errs[minI].Store(minC)
	s.counts[minI].Store(minC + 1)
}

// KeyWeight is one heavy-hitter entry in a report: a filing key, its
// estimated filing count, and the space-saving overcount bound. When
// sampling is on (SampleN > 1) both numbers are scaled back up by N, so
// they estimate true filings; the true count c for an unsampled sketch
// satisfies Filings-MaxOver <= c <= Filings.
type KeyWeight struct {
	// Key is the filing key in hex (uint64 keys exceed JSON's safe
	// integer range, so the wire form is a string).
	Key string `json:"key"`
	// Filings is the estimated filing count attributed to the key.
	Filings uint64 `json:"filings"`
	// MaxOver bounds how much Filings may overcount.
	MaxOver uint64 `json:"max_overcount"`
}

// ShardState is one shard's slice of a property's accounting.
type ShardState struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Live counts instances filed on the shard.
	Live int64 `json:"live"`
	// Bytes is the shard's approximate resident instance state.
	Bytes int64 `json:"approx_bytes"`
	// Timers counts deadline timers armed on the shard.
	Timers int64 `json:"pending_timers"`
	// Filings counts filings ever performed on the shard.
	Filings uint64 `json:"filings"`
}

// PropState is one property's accounting snapshot.
type PropState struct {
	// Property is the property's name.
	Property string `json:"property"`
	// Slot is the property's engine slot index (the routing-mask bit).
	// Stable for the property's lifetime, reusable after removal — with
	// live install/remove it no longer equals the report position.
	Slot int `json:"slot"`
	// Tenant is the owning tenant ("" = default tenant).
	Tenant string `json:"tenant,omitempty"`
	// InstallEpoch is the engine lifecycle epoch the property was
	// installed in (cross-referenced from the ledger by the engine; 0
	// for the startup set).
	InstallEpoch uint64 `json:"install_epoch"`
	// Live counts filed instances engine-wide.
	Live int64 `json:"live"`
	// Bytes approximates the property's resident instance state.
	Bytes int64 `json:"approx_bytes"`
	// Timers counts armed deadline timers engine-wide.
	Timers int64 `json:"pending_timers"`
	// Filings counts filings ever performed engine-wide.
	Filings uint64 `json:"filings"`
	// Pressure reports whether the live count currently exceeds the
	// watermark; Crossings counts lifetime below-to-above transitions.
	Pressure  bool   `json:"pressure"`
	Crossings uint64 `json:"pressure_crossings"`
	// Quarantined and Unsound are cross-references filled in by the
	// engine (the tracker does not know the ledger): whether the
	// property is quarantined, and its soundness mark if any.
	Quarantined bool `json:"quarantined"`
	Unsound     any  `json:"unsound,omitempty"`
	// Shards is the per-shard breakdown (omitted for one-shard engines).
	Shards []ShardState `json:"per_shard,omitempty"`
	// TopKeys are the property's heaviest filing keys, merged across
	// shard sketches, heaviest first (nil when the sketch is off).
	TopKeys []KeyWeight `json:"top_keys,omitempty"`
}

// Report is a full accounting snapshot: engine shape, sketch and
// watermark configuration, the instance pool split, and per-property
// state. Assembled from atomic loads — per-field consistent, not a
// cross-field transaction, like every other live view in this system.
type Report struct {
	// Shards is the engine's shard count.
	Shards int `json:"shards"`
	// TopK, SampleN, and Watermark echo the tracker's configuration.
	TopK      int    `json:"topk"`
	SampleN   uint64 `json:"sample_n"`
	Watermark int64  `json:"watermark"`
	// Pooled counts instances parked on free lists (the pooled half of
	// the pooled-vs-live split); PooledPerShard is its breakdown.
	Pooled         int64   `json:"pooled_instances"`
	PooledPerShard []int64 `json:"pooled_per_shard,omitempty"`
	// Properties holds one entry per installed property, in install
	// order.
	Properties []PropState `json:"properties"`
	// Tenants holds one entry per tenant that ever had a quota cell
	// (sorted by name; empty when no properties carry tenants).
	Tenants []TenantState `json:"tenants,omitempty"`
}

// TenantState is one tenant's accounting snapshot.
type TenantState struct {
	Tenant string `json:"tenant"`
	// Instances is the tenant's live instance population.
	Instances int64 `json:"instances"`
	// Shed counts instances/events the tenant's quotas rejected.
	Shed uint64 `json:"shed"`
}

// Report assembles a snapshot. Safe from any goroutine, concurrently
// with hot-path updates; allocation is fine here (observer path).
func (t *Tracker) Report() Report {
	if t == nil {
		return Report{}
	}
	r := Report{
		Shards: t.cfg.Shards, TopK: t.cfg.TopK,
		SampleN: t.cfg.SampleN, Watermark: t.cfg.Watermark,
	}
	if t.cfg.SampleN == 0 {
		r.SampleN = 1
	}
	for i := range t.pool {
		n := t.pool[i].Load()
		r.Pooled += n
		if t.cfg.Shards > 1 {
			r.PooledPerShard = append(r.PooledPerShard, n)
		}
	}
	t.mu.Lock()
	props := append([]*prop(nil), t.props...)
	var cells []*TenantCell
	for _, c := range t.tenants {
		cells = append(cells, c)
	}
	t.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool { return cells[i].name < cells[j].name })
	for _, c := range cells {
		r.Tenants = append(r.Tenants, TenantState{
			Tenant: c.name, Instances: c.Instances(), Shed: c.ShedTotal(),
		})
	}
	for idx, p := range props {
		if p == nil {
			continue
		}
		ps := PropState{
			Property:  p.name,
			Slot:      idx,
			Tenant:    p.tenant,
			Live:      p.sum(cellLive),
			Bytes:     p.sum(cellBytes),
			Timers:    p.sum(cellTimers),
			Filings:   uint64(p.sum(cellFilings)),
			Pressure:  p.pressure.Load() == 1,
			Crossings: p.crossings.Load(),
		}
		if t.cfg.Shards > 1 {
			for si := range p.shards {
				c := &p.shards[si].n
				ps.Shards = append(ps.Shards, ShardState{
					Shard: si, Live: c[cellLive].Load(), Bytes: c[cellBytes].Load(),
					Timers: c[cellTimers].Load(), Filings: uint64(c[cellFilings].Load()),
				})
			}
		}
		if p.sketch != nil {
			ps.TopKeys = mergeSketches(p.sketch, t.cfg.TopK, r.SampleN)
		}
		r.Properties = append(r.Properties, ps)
	}
	return r
}

// mergeSketches folds per-shard sketches into one top-K list: counts
// and error bounds for the same key sum across shards (each shard's
// bound holds independently), then the heaviest K survive. Estimates
// are scaled by the sample rate so they approximate true filings.
func mergeSketches(sks []sketch, k int, sampleN uint64) []KeyWeight {
	type cw struct{ count, err uint64 }
	merged := map[uint64]cw{}
	for si := range sks {
		s := &sks[si]
		for i := range s.keys {
			key := s.keys[i].Load()
			if key == 0 {
				continue
			}
			m := merged[key]
			m.count += s.counts[i].Load()
			m.err += s.errs[i].Load()
			merged[key] = m
		}
	}
	out := make([]KeyWeight, 0, len(merged))
	for key, m := range merged {
		out = append(out, KeyWeight{
			Key:     fmt.Sprintf("%#016x", key),
			Filings: m.count * sampleN,
			MaxOver: m.err * sampleN,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Filings != out[j].Filings {
			return out[i].Filings > out[j].Filings
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
