package federation

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/wire"
)

// recSink records everything one collector applies.
type recSink struct {
	mu     sync.Mutex
	events []core.Event
}

func (s *recSink) SubmitBatch(evs []core.Event, release func()) error {
	s.mu.Lock()
	s.events = append(s.events, evs...)
	s.mu.Unlock()
	if release != nil {
		release()
	}
	return nil
}

func (s *recSink) Tick(time.Time) {}

func (s *recSink) MarkLoss(core.UnsoundReason, time.Time, uint64, string) {}

func (s *recSink) snapshot() []core.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.Event(nil), s.events...)
}

type member struct {
	col  *collector.Collector
	sink *recSink
}

func startMember(t *testing.T) *member {
	t.Helper()
	sink := &recSink{}
	c, err := collector.New(collector.Config{Addr: "127.0.0.1:0"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	c.Serve()
	t.Cleanup(c.Close)
	return &member{col: c, sink: sink}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func ev(n int) core.Event {
	return core.Event{Kind: core.KindArrival, Time: time.Unix(1700000000, int64(n)), InPort: uint64(n)}
}

// byPort is a test partition key that spreads one switch's events over
// the fleet (the default dpid key pins a whole switch to one route).
func byPort(e *core.Event) uint64 { return e.InPort }

func newTestRouter(t *testing.T, members []Member, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Members:      members,
		DPID:         7,
		PartitionKey: byPort,
		DrainTimeout: 3 * time.Second,
		Exporter:     exporter.Config{BatchSizeMax: 8},
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(func() { r.Close(time.Second) })
	return r
}

// portsOf collapses a sink snapshot to the event keys it applied.
func portsOf(evs []core.Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, e := range evs {
		out[i] = e.InPort
	}
	return out
}

// checkCoverage asserts the members' sinks together applied events
// 1..n exactly once each, and that each sink's stream is internally
// ordered per partition key (here: per key, trivially — each key is one
// event; cross-key order within a route must still be publish order).
func checkCoverage(t *testing.T, n int, members ...*member) {
	t.Helper()
	seen := map[uint64]int{}
	for _, m := range members {
		var last uint64
		var lastOK bool
		for _, p := range portsOf(m.sink.snapshot()) {
			seen[p]++
			// Within one route, publish order is preserved (single
			// sequence space): keys routed here must arrive ascending.
			if lastOK && p < last {
				t.Fatalf("route applied key %d after %d: per-route order broken", p, last)
			}
			last, lastOK = p, true
		}
	}
	for i := 1; i <= n; i++ {
		if seen[uint64(i)] != 1 {
			t.Fatalf("event %d applied %d times, want exactly once", i, seen[uint64(i)])
		}
	}
	if len(seen) != n {
		t.Fatalf("applied %d distinct events, want %d", len(seen), n)
	}
}

func TestRouterFanOut(t *testing.T) {
	a, b := startMember(t), startMember(t)
	r := newTestRouter(t, []Member{{Addr: a.col.Addr().String()}, {Addr: b.col.Addr().String()}}, nil)
	const n = 200
	for i := 1; i <= n; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	waitFor(t, "all events applied across the fleet", func() bool {
		return len(a.sink.snapshot())+len(b.sink.snapshot()) == n
	})
	checkCoverage(t, n, a, b)
	if got := len(a.sink.snapshot()); got == 0 || got == n {
		t.Fatalf("no fan-out: collector A applied %d of %d", got, n)
	}
	if marks := r.Ledger(); len(marks) != 0 {
		t.Fatalf("lossless run marked unsound: %+v", marks)
	}
	st := r.Stats()
	if st.Published != n || st.RoutePublished != n || st.HeldShed != 0 {
		t.Fatalf("stats off: %+v", st)
	}
	// Events carry the router's DPID when published without one.
	if evs := a.sink.snapshot(); len(evs) > 0 && evs[0].SwitchID != 7 {
		t.Fatalf("dpid not stamped: %+v", evs[0])
	}
}

func TestRouterJoinHandoff(t *testing.T) {
	a, b := startMember(t), startMember(t)
	r := newTestRouter(t, []Member{{Addr: a.col.Addr().String()}}, nil)
	const pre, post = 100, 100
	for i := 1; i <= pre; i++ {
		r.Publish(ev(i))
	}
	r.ApplyFleetConfig(&wire.Config{Kind: wire.ConfigFleet, Epoch: 1, Members: []wire.FleetMember{
		{Addr: a.col.Addr().String()}, {Addr: b.col.Addr().String()},
	}})
	if r.Epoch() != 1 || len(r.Members()) != 2 {
		t.Fatalf("join not applied: epoch %d members %v", r.Epoch(), r.Members())
	}
	for i := pre + 1; i <= pre+post; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	waitFor(t, "all events applied across the fleet", func() bool {
		return len(a.sink.snapshot())+len(b.sink.snapshot()) == pre+post
	})
	checkCoverage(t, pre+post, a, b)
	// The drain fence ran before the swap: everything published before
	// the join was acknowledged by A, so nothing moved mid-flight and B
	// applied only post-join keys it now owns.
	for _, p := range portsOf(b.sink.snapshot()) {
		if p <= pre {
			t.Fatalf("collector B applied pre-join event %d: fence leaked", p)
		}
	}
	if marks := r.Ledger(); len(marks) != 0 {
		t.Fatalf("handoff marked unsound: %+v", marks)
	}
}

func TestRouterGracefulLeave(t *testing.T) {
	a, b := startMember(t), startMember(t)
	addrA, addrB := a.col.Addr().String(), b.col.Addr().String()
	r := newTestRouter(t, []Member{{Addr: addrA}, {Addr: addrB}}, nil)
	const pre, post = 100, 100
	for i := 1; i <= pre; i++ {
		r.Publish(ev(i))
	}
	r.ApplyFleetConfig(&wire.Config{Kind: wire.ConfigFleet, Epoch: 1, Members: []wire.FleetMember{{Addr: addrA}}})
	if len(r.Members()) != 1 || r.Members()[0].Addr != addrA {
		t.Fatalf("leave not applied: %v", r.Members())
	}
	preB := len(b.sink.snapshot())
	for i := pre + 1; i <= pre+post; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	waitFor(t, "all events applied across the fleet", func() bool {
		return len(a.sink.snapshot())+len(b.sink.snapshot()) == pre+post
	})
	checkCoverage(t, pre+post, a, b)
	// Graceful leave: B was drained before close, so its unacked tail
	// was empty, nothing replayed, and it saw no post-leave traffic.
	if got := len(b.sink.snapshot()); got != preB {
		t.Fatalf("departed collector applied %d new events after leave", got-preB)
	}
	if st := r.Stats(); st.Replayed != 0 {
		t.Fatalf("graceful leave replayed %d events, want 0", st.Replayed)
	}
	if marks := r.Ledger(); len(marks) != 0 {
		t.Fatalf("graceful leave marked unsound: %+v", marks)
	}
}

func TestRouterDeadLeaveReplaysUnacked(t *testing.T) {
	a, b := startMember(t), startMember(t)
	addrA, addrB := a.col.Addr().String(), b.col.Addr().String()
	r := newTestRouter(t, []Member{{Addr: addrA}, {Addr: addrB}}, func(c *Config) {
		c.DrainTimeout = 200 * time.Millisecond
		c.Exporter.BackoffMin = 10 * time.Millisecond
		c.Exporter.BackoffMax = 20 * time.Millisecond
	})
	const n = 200
	for i := 1; i <= n; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	waitFor(t, "both routes acked", func() bool {
		return len(a.sink.snapshot())+len(b.sink.snapshot()) == n
	})
	// Kill B, keep publishing: its route queues unacked batches.
	b.col.Close()
	for i := n + 1; i <= 2*n; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	// Remove the dead member: the drain fence times out on B, its
	// unacked tail is extracted and replayed to A.
	r.ApplyFleetConfig(&wire.Config{Kind: wire.ConfigFleet, Epoch: 1, Members: []wire.FleetMember{{Addr: addrA}}})
	waitFor(t, "survivor applied the replayed tail", func() bool {
		seen := map[uint64]bool{}
		for _, p := range portsOf(a.sink.snapshot()) {
			seen[p] = true
		}
		for _, p := range portsOf(b.sink.snapshot()) {
			seen[p] = true
		}
		return len(seen) == 2*n
	})
	if st := r.Stats(); st.Replayed == 0 {
		t.Fatal("dead leave extracted nothing for replay")
	}
}

// TestRouterFleetConfigPush exercises the full wire path: a collector
// broadcasts a fleet-kind Config frame, each route's exporter hands it to
// the router off the reader goroutine, and the router re-routes behind
// the drain fence.
func TestRouterFleetConfigPush(t *testing.T) {
	a, b := startMember(t), startMember(t)
	addrA, addrB := a.col.Addr().String(), b.col.Addr().String()
	r := newTestRouter(t, []Member{{Addr: addrA}}, nil)
	const pre = 50
	for i := 1; i <= pre; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	waitFor(t, "pre-push traffic acked", func() bool { return len(a.sink.snapshot()) == pre })
	if err := a.col.Broadcast(&wire.Config{Kind: wire.ConfigFleet, Epoch: 1, Members: []wire.FleetMember{
		{Addr: addrA}, {Addr: addrB},
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pushed config applied", func() bool { return r.Stats().Epoch == 1 })
	const post = 100
	for i := pre + 1; i <= pre+post; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	waitFor(t, "post-push traffic applied", func() bool {
		return len(a.sink.snapshot())+len(b.sink.snapshot()) == pre+post
	})
	checkCoverage(t, pre+post, a, b)
	if got := len(b.sink.snapshot()); got == 0 {
		t.Fatal("joiner got no traffic after pushed re-route")
	}
	// A re-broadcast of the same epoch (every member pushes the
	// converged config) must be a no-op, not a second re-route.
	if err := a.col.Broadcast(&wire.Config{Kind: wire.ConfigFleet, Epoch: 1, Members: []wire.FleetMember{{Addr: addrA}}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if len(r.Members()) != 2 {
		t.Fatal("stale fleet epoch re-applied")
	}
}

// TestRouterSameRingNoFence: a newer fleet config naming the ring the
// router already routes on — a restarted collector re-pushing the fleet's
// membership — only advances the fleet epoch: no fence, no drain (the
// route to a collector that is down would hold one for DrainTimeout), no
// re-route.
func TestRouterSameRingNoFence(t *testing.T) {
	a, down := startMember(t), refusingAddr(t)
	r := newTestRouter(t, []Member{{Addr: a.col.Addr().String()}, {Addr: down}}, nil)
	for i := 1; i <= 50; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	start := time.Now()
	r.ApplyFleetConfig(&wire.Config{Kind: wire.ConfigFleet, Epoch: 4, Members: []wire.FleetMember{
		{Addr: down, Weight: 1000}, {Addr: a.col.Addr().String()},
	}})
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a config naming the same ring took %v: it fenced and drained", took)
	}
	if st := r.Stats(); st.Epoch != 4 || st.Reroutes != 0 || st.Held != 0 || st.Replayed != 0 || st.Routes != 2 {
		t.Fatalf("after a config naming the same ring: %+v", st)
	}
}

// refusingAddr returns an address that actively refuses connections.
func refusingAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestRouterAllEndpointsDownOneMarkPerRoute is the regression test for
// the fleet-wide shed-accounting contract: with every endpoint down and
// a drop policy, repeated shed runs on a route accumulate onto exactly
// ONE ledger mark for that route — one mark per route, not one per
// retry cycle, and not one per endpoint times retry cycles.
func TestRouterAllEndpointsDownOneMarkPerRoute(t *testing.T) {
	addrs := []string{refusingAddr(t), refusingAddr(t)}
	r := newTestRouter(t, []Member{{Addr: addrs[0]}, {Addr: addrs[1]}}, func(c *Config) {
		c.Exporter.BatchSizeMax = 4
		c.Exporter.QueueBatches = 1
		c.Exporter.Shed = core.ShedDropNewest
		c.Exporter.BackoffMin = 5 * time.Millisecond
		c.Exporter.BackoffMax = 10 * time.Millisecond
	})
	// Several publish+flush waves so each route sheds repeatedly across
	// multiple reconnect/backoff cycles.
	const waves, perWave = 8, 40
	for w := 0; w < waves; w++ {
		for i := 1; i <= perWave; i++ {
			r.Publish(ev(w*perWave + i))
		}
		r.Flush()
		time.Sleep(15 * time.Millisecond)
	}
	waitFor(t, "both routes shed", func() bool {
		shed := 0
		for _, es := range r.RouteStats() {
			if es.ShedEvents > 0 {
				shed++
			}
		}
		return shed == 2
	})
	marks := r.Ledger()
	if len(marks) != 2 {
		t.Fatalf("want exactly one mark per route (2 total), got %d: %+v", len(marks), marks)
	}
	var total uint64
	for _, m := range marks {
		if m.Reason != core.UnsoundWireLoss {
			t.Fatalf("wrong reason: %+v", m)
		}
		if m.Events == 0 {
			t.Fatalf("mark carries no loss count: %+v", m)
		}
		total += m.Events
	}
	if st := r.Stats(); total != st.ShedEvents {
		t.Fatalf("marks account %d events, routes shed %d", total, st.ShedEvents)
	}
}

// byPortMod64 partitions events into 64 keys, so one partition carries
// a long ordered stream (InPort doubles as the per-stream position).
func byPortMod64(e *core.Event) uint64 { return e.InPort % 64 }

// TestRouterReRouteKeepsPartitionOrder is the regression test for the
// fence/replay race: the fence must stay up until every held event has
// been replayed, or a Publish racing the re-route hands a newer event
// to the new owner with a lower sequence than an older held event and
// the collector applies the partition out of order.
//
// The schedule is made deterministic (no timing races — this must work
// on one CPU) by gating the joiner's dial: the joiner's queue is tiny
// and ShedBlock, so the re-route goroutine provably blocks mid-replay
// with held events still un-replayed. The producer then publishes a
// newer event on the same partition; with the fix it is fenced and
// replayed last, without it it is enqueued to the joiner ahead of the
// older held events and the sink sees the partition out of order.
func TestRouterReRouteKeepsPartitionOrder(t *testing.T) {
	a, b := startMember(t), startMember(t)
	addrA, addrB := a.col.Addr().String(), b.col.Addr().String()
	addrD := refusingAddr(t) // dead member: keeps the drain window open

	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	safety := time.AfterFunc(3*time.Second, openGate)
	defer safety.Stop()

	r := newTestRouter(t, []Member{{Addr: addrA}, {Addr: addrD}}, func(c *Config) {
		c.PartitionKey = byPortMod64
		c.DrainTimeout = 500 * time.Millisecond
		c.Exporter.BatchSizeMax = 4
		c.Exporter.QueueBatches = 1
		c.Exporter.Shed = core.ShedBlock
		c.Exporter.BackoffMin = time.Millisecond
		c.Exporter.BackoffMax = 5 * time.Millisecond
		c.Dial = func(addr string) (net.Conn, error) {
			if addr == addrB {
				<-gate // joiner cannot connect until released
			}
			return net.Dial("tcp", addr)
		}
	})

	// Pick the partitions this schedule needs from the two rings: the
	// stream partition moves A→B on the re-route, and the dead member
	// owns one other partition so its unacked tail forces CloseExtract
	// to sit out the full drain timeout.
	oldRing := mustRingOf(t, addrA, addrD)
	newRing := mustRingOf(t, addrA, addrB)
	pStream, pDead := -1, -1
	for p := 0; p < 64; p++ {
		if pStream < 0 && oldRing.Owner(uint64(p)) == addrA && newRing.Owner(uint64(p)) == addrB {
			pStream = p
		} else if pDead < 0 && oldRing.Owner(uint64(p)) == addrD {
			pDead = p
		}
	}
	if pStream < 0 || pDead < 0 {
		t.Fatalf("no usable partitions: stream %d dead %d", pStream, pDead)
	}
	at := func(i int) core.Event { return ev(pStream + 64*i) }

	// One event on the dead member, sealed: its unacked batch keeps the
	// re-route in the drain phase for the full DrainTimeout.
	r.Publish(ev(pDead))
	r.Flush()

	applied := make(chan struct{})
	go func() {
		defer close(applied)
		r.ApplyFleetConfig(&wire.Config{Kind: wire.ConfigFleet, Epoch: 1, Members: []wire.FleetMember{
			{Addr: addrA}, {Addr: addrB},
		}})
	}()

	// Stream into the drain window: everything published behind the
	// fence is held for replay onto the joiner. Stop as soon as the swap
	// lands (and never publish after it — the re-route goroutine owns
	// the joiner until the gate opens).
	streamN := 0
	for r.Epoch() != 1 || streamN < 150 {
		streamN++
		r.Publish(at(streamN))
		time.Sleep(time.Millisecond)
	}

	// The replay is now provably wedged: the joiner's gated dial never
	// acks, so after QueueBatches+1 sealed batches the re-route
	// goroutine blocks inside Publish with held events still pending.
	waitFor(t, "replay reached the joiner", func() bool {
		return r.RouteStats()[addrB].Published > 0
	})
	time.Sleep(50 * time.Millisecond)
	select {
	case <-applied:
		t.Fatal("re-route finished with the joiner gated: replay never blocked")
	default:
	}

	// The probe: a newer event on the moved partition, published while
	// older held events are still un-replayed.
	probe := at(streamN + 1)
	r.Publish(probe)
	openGate()
	<-applied

	total := streamN + 2 // stream + dead-member event + probe
	waitFor(t, "all events applied across the fleet", func() bool {
		return len(a.sink.snapshot())+len(b.sink.snapshot()) == total
	})
	seen := map[uint64]int{}
	for _, m := range []*member{a, b} {
		last := map[uint64]uint64{}
		for _, e := range m.sink.snapshot() {
			seen[e.InPort]++
			part := e.InPort % 64
			if prev, ok := last[part]; ok && e.InPort < prev {
				t.Fatalf("partition %d applied event %d after %d: re-route broke per-partition order", part, e.InPort, prev)
			}
			last[part] = e.InPort
		}
	}
	for i := 1; i <= streamN; i++ {
		if seen[at(i).InPort] != 1 {
			t.Fatalf("stream event %d applied %d times, want exactly once", i, seen[at(i).InPort])
		}
	}
	if seen[probe.InPort] != 1 || seen[uint64(pDead)] != 1 {
		t.Fatalf("probe applied %d times, dead-member event %d times, want exactly once each",
			seen[probe.InPort], seen[uint64(pDead)])
	}
	if marks := r.Ledger(); len(marks) != 0 {
		t.Fatalf("live re-route marked unsound: %+v", marks)
	}
}

// mustRingOf builds a default-weight ring over the given addresses.
func mustRingOf(t *testing.T, addrs ...string) *Ring {
	t.Helper()
	members := make([]Member, len(addrs))
	for i, addr := range addrs {
		members[i] = Member{Addr: addr}
	}
	ring, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

// TestRouterFleetWeightMillis: wire FleetMember.Weight is fixed-point
// millis; the router must rebuild the ring with the fractional weights,
// treating 0 as the default 1.0.
func TestRouterFleetWeightMillis(t *testing.T) {
	a := startMember(t)
	addrA := a.col.Addr().String()
	r := newTestRouter(t, []Member{{Addr: addrA}}, nil)
	r.ApplyFleetConfig(&wire.Config{Kind: wire.ConfigFleet, Epoch: 1, Members: []wire.FleetMember{
		{Addr: addrA, Weight: 2500},
		{Addr: "127.0.0.1:1", Weight: 250},
		{Addr: "127.0.0.2:1"},
	}})
	want := map[string]float64{addrA: 2.5, "127.0.0.1:1": 0.25, "127.0.0.2:1": 1}
	members := r.Members()
	if len(members) != len(want) {
		t.Fatalf("want %d members, got %v", len(want), members)
	}
	for _, m := range members {
		if m.Weight != want[m.Addr] {
			t.Fatalf("member %s: weight %v, want %v", m.Addr, m.Weight, want[m.Addr])
		}
	}
}

// TestRouterPropertySetDedup: the same converged property set pushed by
// every member must invoke the wrapped property handler once per epoch.
func TestRouterPropertySetDedup(t *testing.T) {
	a, b := startMember(t), startMember(t)
	var mu sync.Mutex
	var got []uint64
	r := newTestRouter(t, []Member{{Addr: a.col.Addr().String()}, {Addr: b.col.Addr().String()}}, func(c *Config) {
		c.Exporter.OnConfig[wire.ConfigProperties] = func(u *wire.Config) {
			mu.Lock()
			got = append(got, u.Epoch)
			mu.Unlock()
		}
	})
	_ = r
	upd := &wire.Config{Kind: wire.ConfigProperties, Epoch: 5}
	if err := a.col.Broadcast(upd); err != nil {
		t.Fatal(err)
	}
	if err := b.col.Broadcast(upd); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "property set delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 1
	})
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("want one epoch-5 delivery, got %v", got)
	}
}

// TestRouterPropertySetNeverRegresses: two members push epochs 5 and 6,
// the second while the handler is still applying the first (a goroutine
// descheduled mid-apply). The stale check and the apply are one critical
// section, so the last set applied is 6: the older set never lands
// after the newer one.
func TestRouterPropertySetNeverRegresses(t *testing.T) {
	a, b := startMember(t), startMember(t)
	entered5, release5, done6 := make(chan struct{}), make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(release5) })
	defer release()
	var mu sync.Mutex
	var done []uint64
	newTestRouter(t, []Member{{Addr: a.col.Addr().String()}, {Addr: b.col.Addr().String()}}, func(c *Config) {
		c.Exporter.OnConfig[wire.ConfigProperties] = func(u *wire.Config) {
			if u.Epoch == 5 {
				close(entered5)
				<-release5
			}
			mu.Lock()
			done = append(done, u.Epoch)
			mu.Unlock()
			if u.Epoch == 6 {
				close(done6)
			}
		}
	})
	if err := a.col.Broadcast(&wire.Config{Kind: wire.ConfigProperties, Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered5:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the epoch-5 handler")
	}
	if err := b.col.Broadcast(&wire.Config{Kind: wire.ConfigProperties, Epoch: 6}); err != nil {
		t.Fatal(err)
	}
	// Epoch 6 must wait for 5, so nothing signals its arrival: give it
	// the time a router that let it overtake would need to finish it.
	select {
	case <-done6:
	case <-time.After(100 * time.Millisecond):
	}
	release()
	waitFor(t, "both sets applied", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(done) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if done[1] != 6 {
		t.Fatalf("handlers completed as %v: the switch ended on an older set than its collectors hold", done)
	}
}

// pushStub is a collector stand-in that grants every config kind. Its
// i-th connection writes pushes[i] after the handshake; every connection
// but the last then hangs up, forcing a reconnect, and the last acks
// batches until the test ends.
type pushStub struct {
	t  *testing.T
	ln net.Listener
}

func listenStub(t *testing.T) *pushStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &pushStub{t: t, ln: ln}
}

func (s *pushStub) addr() string { return s.ln.Addr().String() }

// serve accepts connections and plays pushes, one script per connection.
func (s *pushStub) serve(pushes ...[]*wire.Config) {
	go func() {
		for i := 0; ; i++ {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			var script []*wire.Config
			if i < len(pushes) {
				script = pushes[i]
			}
			go s.play(conn, script, i+1 < len(pushes))
		}
	}()
}

func (s *pushStub) play(conn net.Conn, script []*wire.Config, hangUp bool) {
	defer conn.Close()
	r := wire.NewPooledReader(conn)
	f, err := r.Next()
	if err != nil {
		return
	}
	h, ok := f.(wire.Hello)
	if !ok {
		return
	}
	now := time.Now().UnixNano()
	granted := h.Features & (wire.ConfigProperties.Feature() | wire.ConfigFleet.Feature())
	if _, err := conn.Write(wire.AppendHelloAck(nil, wire.HelloAck{Features: granted, RecvNs: now, SentNs: now})); err != nil {
		return
	}
	for _, cfg := range script {
		buf, err := wire.AppendConfig(nil, cfg)
		if err != nil {
			s.t.Error(err)
			return
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
	if hangUp {
		return
	}
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		if b, ok := f.(*wire.Batch); ok {
			ack := wire.Ack{AckSeq: b.LastSeq(), SentNs: time.Now().UnixNano()}
			b.Release()
			if _, err := conn.Write(wire.AppendAck(nil, ack)); err != nil {
				return
			}
		}
	}
}

// TestRouterConfigRepushIgnored: a collector re-pushes its retained
// config at every handshake, and a push can arrive behind a newer one.
// The router's high water is the switch's one stale rule, for either
// kind: after a reconnect, a config at the applied epoch and one below
// it are applied zero times, and the next newer one still applies.
func TestRouterConfigRepushIgnored(t *testing.T) {
	t.Run("properties", func(t *testing.T) {
		props := func(epoch uint64) *wire.Config { return &wire.Config{Kind: wire.ConfigProperties, Epoch: epoch} }
		s := listenStub(t)
		s.serve([]*wire.Config{props(3)}, []*wire.Config{props(3), props(2), props(4)})
		var mu sync.Mutex
		var got []uint64
		newTestRouter(t, []Member{{Addr: s.addr()}}, func(c *Config) {
			c.Exporter.OnConfig[wire.ConfigProperties] = func(u *wire.Config) {
				mu.Lock()
				got = append(got, u.Epoch)
				mu.Unlock()
			}
		})
		// One route delivers in arrival order, so epoch 4 applied means
		// the re-push and the stale push were judged before it.
		waitFor(t, "epoch 4 applied", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) > 0 && got[len(got)-1] == 4
		})
		mu.Lock()
		defer mu.Unlock()
		if !slices.Equal(got, []uint64{3, 4}) {
			t.Fatalf("handler applied epochs %v, want [3 4]", got)
		}
	})
	t.Run("fleet", func(t *testing.T) {
		s, down := listenStub(t), refusingAddr(t)
		fleet := func(epoch uint64, addrs ...string) *wire.Config {
			cfg := &wire.Config{Kind: wire.ConfigFleet, Epoch: epoch}
			for _, a := range addrs {
				cfg.Members = append(cfg.Members, wire.FleetMember{Addr: a})
			}
			return cfg
		}
		// Applied, either re-push would add a route to down: a re-route.
		s.serve([]*wire.Config{fleet(3, s.addr())},
			[]*wire.Config{fleet(3, s.addr(), down), fleet(2, s.addr(), down), fleet(4, s.addr())})
		r := newTestRouter(t, []Member{{Addr: s.addr()}}, nil)
		waitFor(t, "epoch 4 applied", func() bool { return r.Stats().Epoch == 4 })
		if st := r.Stats(); st.Reroutes != 0 || st.Routes != 1 {
			t.Fatalf("after re-pushes at and below the applied epoch: %+v", st)
		}
	})
}
