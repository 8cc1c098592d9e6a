package federation

import (
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/wire"
)

// Config parameterizes a Router: the federated, fleet-aware
// replacement for a single exporter link.
type Config struct {
	// Members is the initial fleet (at least one). Later membership
	// changes arrive as fleet-kind wire.Config frames pushed by any
	// member collector, or via ApplyFleetConfig directly.
	Members []Member
	// DPID is the datapath id announced on every route and stamped on
	// events published with SwitchID zero.
	DPID uint64
	// PartitionKey maps an event to its partition key; nil defaults to
	// core.PartitionByDPID (all of one switch's events on one
	// collector — the correct key for any property set passing
	// core.ValidateDPIDPartition). core.IdentityPartitionFunc derives
	// finer property-identity keys when the installed set supports it.
	PartitionKey func(*core.Event) uint64
	// DrainTimeout bounds the handoff fence per re-route: how long a
	// route may take to flush and have its in-flight batches
	// acknowledged before the re-route proceeds without it (a removed
	// route's unacked tail is then replayed to the new owners; a
	// surviving route's stays in its own queue). Default 5s.
	DrainTimeout time.Duration
	// Exporter is the per-route template: every collector endpoint gets
	// its own exporter built from this config — its own sequence space
	// from 1, bounded queue, reconnect+replay — so the collector-side
	// gap→wire-loss accounting stays exact per route across partition
	// moves. Addr, DPID, Dial and the fleet-kind OnConfig handler are
	// owned by the router; the property-kind handler is wrapped with the
	// stale rule so N routes pushing the same set invoke it once, and
	// never after a newer set. Every route registers its own series on
	// Metrics, labeled by its address.
	Exporter exporter.Config
	// Dial, when non-nil, overrides the transport per endpoint (tests,
	// fault injection).
	Dial func(addr string) (net.Conn, error)
}

// heldMax bounds the events buffered while a re-route fence is up.
// Overflow is shed into the router's ledger — loss with a mark, never
// silent.
const heldMax = 1 << 17

// Stats is an aggregate snapshot across the router's routes.
type Stats struct {
	// Epoch is the applied fleet-config epoch; Reroutes counts applied
	// membership changes.
	Epoch    uint64
	Reroutes uint64
	// Routes is the current member count.
	Routes int
	// Published counts events accepted by Publish; Held counts events
	// buffered behind a fence (cumulative); Replayed counts events
	// re-published during handoff (held + extracted from removed
	// routes); HeldShed counts events lost to heldMax overflow.
	Published uint64
	Held      uint64
	Replayed  uint64
	HeldShed  uint64
	// Sums over per-route exporter stats.
	RoutePublished uint64
	ShedEvents     uint64
	BatchesAcked   uint64
	BytesSent      uint64
	Reconnects     uint64
	QueueDepth     int
}

// route is one collector endpoint's link: a full exporter with its own
// sequence space.
type route struct {
	addr string
	exp  *exporter.Exporter
}

// Router fans a switch's event stream out across the collector fleet:
// consistent-hash partition routing, per-endpoint bounded queues and
// replay, and fleet-config handoff behind a drain fence. Publish and
// NoteLoss are safe for one producer goroutine, like the exporter they
// replace; re-routes run concurrently on fleet-config delivery
// goroutines.
type Router struct {
	cfg Config
	key func(*core.Event) uint64

	// applyMu serializes re-routes end to end (fence, drain, swap,
	// replay); mu guards the routing state Publish reads.
	applyMu sync.Mutex
	mu      sync.Mutex
	ring    *Ring
	routes  map[string]*route
	fence   bool
	held    []core.Event
	closed  bool
	stats   Stats
	ledger  *core.Ledger // router-local marks (held overflow)

	// fleet is the applied fleet epoch (guarded by mu, advanced under
	// applyMu). props dedupes the property sets every route delivers, so
	// the wrapped handler fires once per epoch; propsMu holds it across
	// the check and the handler, so an older set never lands after a
	// newer one; nothing else takes it, so the handler may call back into
	// the router. The two are the switch's one stale rule.
	fleet   wire.HighWater
	propsMu sync.Mutex
	props   wire.HighWater
}

// NewRouter builds the router and its initial routes; Start launches
// every route's exporter.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("federation: at least one member required")
	}
	ring, err := NewRing(cfg.Members)
	if err != nil {
		return nil, err
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	r := &Router{
		cfg:    cfg,
		key:    cfg.PartitionKey,
		ring:   ring,
		routes: map[string]*route{},
		ledger: core.NewLedger(),
	}
	if r.key == nil {
		r.key = core.PartitionByDPID
	}
	r.fleet.Admit(0) // the initial membership is the first fleet config
	for _, m := range cfg.Members {
		rt, err := r.newRoute(m.Addr)
		if err != nil {
			return nil, err
		}
		r.routes[m.Addr] = rt
	}
	return r, nil
}

// newRoute builds (but does not start) one endpoint's exporter from
// the template.
func (r *Router) newRoute(addr string) (*route, error) {
	rc := r.cfg.Exporter
	rc.Addr = addr
	rc.DPID = r.cfg.DPID
	rc.OnConfig[wire.ConfigFleet] = r.ApplyFleetConfig
	if r.cfg.Dial != nil {
		dial := r.cfg.Dial
		rc.Dial = func() (net.Conn, error) { return dial(addr) }
	} else {
		rc.Dial = nil
	}
	if cb := r.cfg.Exporter.OnConfig[wire.ConfigProperties]; cb != nil {
		rc.OnConfig[wire.ConfigProperties] = func(u *wire.Config) {
			// N collectors push N copies of each converged set; apply
			// the first per epoch, drop the echoes and older sets.
			r.propsMu.Lock()
			defer r.propsMu.Unlock()
			if r.props.Admit(u.Epoch) {
				cb(u)
			}
		}
	}
	exp, err := exporter.New(rc)
	if err != nil {
		return nil, err
	}
	return &route{addr: addr, exp: exp}, nil
}

// Start launches every route's exporter.
func (r *Router) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rt := range r.routes {
		rt.exp.Start()
	}
}

// Publish accepts one event, stamps SwitchID with the configured DPID
// when unset, and routes it to the collector owning its partition.
// While a re-route fence is up, events are buffered and replayed in
// order once the fence drops, so a moved partition's stream reaches
// its new owner only after its old owner has acknowledged everything
// in flight.
func (r *Router) Publish(e core.Event) {
	if e.SwitchID == 0 {
		e.SwitchID = r.cfg.DPID
	}
	key := r.key(&e)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.stats.Published++
	if r.fence {
		if len(r.held) >= heldMax {
			r.stats.HeldShed++
			r.ledger.Mark("*", core.UnsoundWireLoss, r.stats.Published, time.Now(), 1, "re-route fence buffer full")
			r.ledger.RecordLost(core.UnsoundWireLoss, 1)
			r.mu.Unlock()
			return
		}
		r.held = append(r.held, e)
		r.stats.Held++
		r.mu.Unlock()
		return
	}
	rt := r.routes[r.ring.Owner(key)]
	if rt == nil {
		// Every ring member has a route by construction (members whose
		// route cannot be built are excluded from the ring), so this is
		// defense in depth: loss with a mark, never silent.
		r.noteNoRouteLocked(1)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	rt.exp.Publish(e)
}

// noteNoRouteLocked marks the router ledger for events dropped because
// the ring owner has no route. Caller holds mu.
func (r *Router) noteNoRouteLocked(n uint64) {
	r.ledger.Mark("*", core.UnsoundWireLoss, r.stats.Published, time.Now(), n, "no route for partition owner")
	r.ledger.RecordLost(core.UnsoundWireLoss, n)
}

// NoteLoss records events lost upstream of the router. The router
// cannot know which partitions the lost events belonged to, so the
// loss is conservatively declared on every route — each collector
// sees a sequence gap and marks its ledger, exactly the fleet-wide
// analogue of the inline engine marking every property on feed loss.
func (r *Router) NoteLoss(n uint64) {
	if n == 0 {
		return
	}
	r.mu.Lock()
	targets := r.routeList()
	r.mu.Unlock()
	for _, rt := range targets {
		rt.exp.NoteLoss(n)
	}
}

// Flush seals every route's pending batch.
func (r *Router) Flush() {
	r.mu.Lock()
	targets := r.routeList()
	r.mu.Unlock()
	for _, rt := range targets {
		rt.exp.Flush()
	}
}

// routeList snapshots the route set. Caller holds mu.
func (r *Router) routeList() []*route {
	out := make([]*route, 0, len(r.routes))
	for _, rt := range r.routes {
		out = append(out, rt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// Epoch is the applied fleet-config epoch.
func (r *Router) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fleet.Epoch
}

// Members is the current member set in address order.
func (r *Router) Members() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Members()
}

// RouteStats snapshots each route's exporter counters by address.
func (r *Router) RouteStats() map[string]exporter.Stats {
	r.mu.Lock()
	targets := r.routeList()
	r.mu.Unlock()
	out := make(map[string]exporter.Stats, len(targets))
	for _, rt := range targets {
		out[rt.addr] = rt.exp.Stats()
	}
	return out
}

// Stats aggregates router counters and per-route exporter counters.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	s.Routes = len(r.routes)
	s.Epoch = r.fleet.Epoch
	targets := r.routeList()
	r.mu.Unlock()
	for _, rt := range targets {
		es := rt.exp.Stats()
		s.RoutePublished += es.Published
		s.ShedEvents += es.ShedEvents
		s.BatchesAcked += es.BatchesAcked
		s.BytesSent += es.BytesSent
		s.Reconnects += es.Reconnects
		s.QueueDepth += es.QueueDepth
	}
	return s
}

// Ledger merges the soundness marks of every route's local ledger plus
// the router's own, each detail prefixed with the route it came from.
// Per route, the exporter's first-mark-wins discipline holds: one mark
// per route however many shed runs or retry cycles occurred, with the
// exact event count accumulating on it.
func (r *Router) Ledger() []core.UnsoundMark {
	r.mu.Lock()
	targets := r.routeList()
	r.mu.Unlock()
	var out []core.UnsoundMark
	for _, m := range r.ledger.Snapshot() {
		m.Detail = "router: " + m.Detail
		out = append(out, m)
	}
	for _, rt := range targets {
		for _, m := range rt.exp.Ledger().Snapshot() {
			m.Detail = fmt.Sprintf("route %s: %s", rt.addr, m.Detail)
			out = append(out, m)
		}
	}
	return out
}

// ApplyFleetConfig applies a fleet membership change: new routes are
// built and dialed (a member whose route cannot be built is excluded
// from the new ring rather than installed route-less), every surviving
// route is drained (flush + wait for its cumulative acks — the fence
// that guarantees a moved partition's in-flight events are applied by
// the old owner before the new owner sees anything newer), removed
// routes are closed with their unacked tails extracted and replayed
// through the new ring, and events published during the fence are
// replayed in publish order. The fence stays up until every replayed
// event has been handed to its new route, so a concurrent Publish can
// never deliver a newer event ahead of an older held one on the same
// partition. A stale epoch (wire.HighWater) is a no-op, so the same
// config pushed by every collector in the fleet applies once; a newer one
// naming the ring the router already routes on (a restarted collector
// re-pushing the fleet's membership) only advances the epoch: no fence,
// no drain, no re-route. Also the fleet-kind exporter.Config.OnConfig
// handler for every route.
func (r *Router) ApplyFleetConfig(fc *wire.Config) {
	members := make([]Member, 0, len(fc.Members))
	for _, m := range fc.Members {
		w := float64(m.Weight) / 1000
		if m.Weight == 0 {
			w = 1
		}
		members = append(members, Member{Addr: m.Addr, Weight: w})
	}
	newRing, err := NewRing(members)
	if err != nil || newRing.Size() == 0 {
		return // malformed or empty config: keep the working fleet
	}

	r.applyMu.Lock()
	defer r.applyMu.Unlock()

	r.mu.Lock()
	// Checked here, recorded at the swap: applyMu keeps both in one
	// re-route, and a config that leaves no usable member is not applied.
	if r.closed || !r.fleet.Newer(fc.Epoch) {
		r.mu.Unlock()
		return
	}
	if slices.Equal(newRing.Members(), r.ring.Members()) {
		r.fleet.Admit(fc.Epoch)
		r.mu.Unlock()
		return
	}
	have := make(map[string]bool, len(r.routes))
	for addr := range r.routes {
		have[addr] = true
	}
	r.mu.Unlock()

	// Build joiner routes before fencing anything. A member whose route
	// cannot be built must not enter the ring: Publish would resolve it
	// to a nil route and silently drop everything it owns. Exclude it
	// and re-derive the ring; if no usable member remains, keep the
	// working fleet.
	added := make(map[string]*route)
	usable := members[:0]
	for _, m := range members {
		if have[m.Addr] {
			usable = append(usable, m)
			continue
		}
		rt, rerr := r.newRoute(m.Addr)
		if rerr != nil {
			continue
		}
		added[m.Addr] = rt
		usable = append(usable, m)
	}
	if len(usable) < len(members) {
		nr, nerr := NewRing(usable)
		if nerr != nil || nr.Size() == 0 {
			for _, rt := range added {
				rt.exp.Close(0)
			}
			return // no usable member: keep the working fleet
		}
		newRing = nr
		members = usable
	}
	// Start joiners now so they connect while the drain runs.
	for _, rt := range added {
		rt.exp.Start()
	}

	r.mu.Lock()
	r.fence = true
	oldRoutes := r.routeList()
	r.mu.Unlock()

	keep := make(map[string]bool, len(members))
	for _, m := range members {
		keep[m.Addr] = true
	}

	// Drain fence: surviving routes must have everything acknowledged
	// before any partition moves between them; removed routes drain
	// inside CloseExtract below.
	var wg sync.WaitGroup
	for _, rt := range oldRoutes {
		if !keep[rt.addr] {
			continue
		}
		wg.Add(1)
		go func(rt *route) {
			defer wg.Done()
			rt.exp.Drain(r.cfg.DrainTimeout)
		}(rt)
	}
	wg.Wait()

	// Removed routes: drain, then take back whatever the dead/departing
	// collector never acknowledged and replay it to the new owners. The
	// old owner may have applied a sent-but-unacked prefix before the
	// cut; replay is at-least-once across the fleet, and per-route
	// sequence dedup still guarantees no collector applies an event
	// twice.
	var extracted []core.Event
	for _, rt := range oldRoutes {
		if keep[rt.addr] {
			continue
		}
		extracted = append(extracted, rt.exp.CloseExtract(r.cfg.DrainTimeout)...)
	}

	// Swap the routing state but keep the fence up: a Publish racing
	// this re-route keeps buffering into held until the replay below
	// has delivered every older event, preserving per-partition order.
	r.mu.Lock()
	for _, rt := range oldRoutes {
		if !keep[rt.addr] {
			delete(r.routes, rt.addr)
		}
	}
	for addr, rt := range added {
		r.routes[addr] = rt
	}
	r.ring = newRing
	r.fleet.Admit(fc.Epoch)
	r.stats.Reroutes++
	held := r.held
	r.held = nil
	routes := r.routes
	ring := r.ring
	r.stats.Replayed += uint64(len(extracted) + len(held))
	r.mu.Unlock()

	// Replay in causal order: a removed route's extracted tail predates
	// everything buffered behind the fence.
	r.replay(routes, ring, extracted)
	r.replay(routes, ring, held)

	// Anything published while the replay ran was fenced into held;
	// drain it in publish order before dropping the fence. Each pass
	// replays a strictly newer suffix, so the loop terminates once the
	// producer pauses or the batch drains faster than it refills.
	for {
		r.mu.Lock()
		if len(r.held) == 0 {
			r.fence = false
			r.mu.Unlock()
			return
		}
		more := r.held
		r.held = nil
		r.stats.Replayed += uint64(len(more))
		r.mu.Unlock()
		r.replay(routes, ring, more)
	}
}

// replay re-publishes events through the given routing state, marking
// the router ledger for any event whose ring owner has no route — loss
// with a mark, never silent.
func (r *Router) replay(routes map[string]*route, ring *Ring, events []core.Event) {
	for i := range events {
		e := &events[i]
		rt := routes[ring.Owner(r.key(e))]
		if rt == nil {
			r.mu.Lock()
			r.noteNoRouteLocked(1)
			r.mu.Unlock()
			continue
		}
		rt.exp.Publish(*e)
	}
}

// Close drains and closes every route, returning the total number of
// events abandoned unacknowledged.
func (r *Router) Close(drainTimeout time.Duration) uint64 {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0
	}
	r.closed = true
	targets := r.routeList()
	held := len(r.held)
	r.held = nil
	r.mu.Unlock()
	var abandoned uint64
	if held > 0 {
		// Closed mid-fence: the buffered events have no live route.
		abandoned += uint64(held)
		r.ledger.Mark("*", core.UnsoundWireLoss, 0, time.Now(), uint64(held), "closed during re-route fence")
		r.ledger.RecordLost(core.UnsoundWireLoss, uint64(held))
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, rt := range targets {
		wg.Add(1)
		go func(rt *route) {
			defer wg.Done()
			n := rt.exp.Close(drainTimeout)
			mu.Lock()
			abandoned += n
			mu.Unlock()
		}(rt)
	}
	wg.Wait()
	return abandoned
}
