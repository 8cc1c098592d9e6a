package core

import (
	"runtime"
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/raceon"
	"switchmon/internal/sim"
)

// fwOpen builds the stage-0 arrival that opens firewall flow f (internal
// A -> external B on the internal port).
func fwOpen(sched *sim.Scheduler, pid *PacketID, f int) Event {
	src := packet.IPv4FromUint32(0x0a000000 | uint32(f))
	dst := packet.IPv4FromUint32(0xcb007100 | uint32(f))
	p := packet.NewTCP(macA, macB, src, dst, uint16(10000+f), 80, packet.FlagSYN, nil)
	*pid++
	return Event{Kind: KindArrival, Time: sched.Now(), PacketID: *pid, Packet: p, InPort: 1}
}

// TestStateAccountingZeroAlloc is the E16 zero-alloc gate, in two parts.
//
// Part 1: the indexed steady-state path (return traffic probing the
// stage-1 index; accounting pays only a pool get/put per dedup) must
// stay within TestSteadyStateAllocationBudget's budget with full
// accounting — sketch, sampling, and watermark — enabled.
//
// Part 2: instance churn allocates nothing once warm, with accounting on
// and off: neither the filing path (open -> window expiry -> reopen on
// firewall-timeout, where accounting charges bytes, hashes the flow key,
// feeds the sketch and tracks the deadline) nor the discharge path
// (request -> reply on ping-reply-within, which arms a negative
// observation's deadline and cancels it). Rows come off the free chain,
// tables and deadline queues are at size, and a deadline is a queue
// entry, not a timer and a closure.
func TestStateAccountingZeroAlloc(t *testing.T) {
	skipAllocGateUnderRace(t)
	// Part 1: steady state, accounting on.
	sched := sim.NewScheduler()
	mon := NewMonitor(sched, Config{StateTopK: 32, StateSample: 1, StateWatermark: 1 << 20})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	const flows = 256
	var pid PacketID
	events := make([]Event, 0, flows)
	for f := 0; f < flows; f++ {
		open := fwOpen(sched, &pid, f)
		mon.HandleEvent(open)
		mon.HandleEvent(Event{Kind: KindEgress, Time: sched.Now(), PacketID: open.PacketID,
			Packet: open.Packet, InPort: 1, OutPort: 2})
		src := packet.IPv4FromUint32(0x0a000000 | uint32(f))
		dst := packet.IPv4FromUint32(0xcb007100 | uint32(f))
		ret := packet.NewTCP(macB, macA, dst, src, 80, uint16(10000+f), packet.FlagACK, nil)
		pid++
		events = append(events, Event{Kind: KindEgress, Time: sched.Now(), PacketID: pid,
			Packet: ret, InPort: 2, OutPort: 1})
	}
	for i := range events {
		mon.HandleEvent(events[i])
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		mon.HandleEvent(events[i%len(events)])
		i++
	})
	if avg > 2 {
		t.Fatalf("steady-state path with accounting allocates %.1f/event, budget is 2", avg)
	}

	// Part 2: churn, accounting on and off.
	expiry := func(sched *sim.Scheduler, mon *Monitor) func() {
		var pid PacketID
		open := fwOpen(sched, &pid, 7)
		return func() {
			open.PacketID++
			open.Time = sched.Now()
			mon.HandleEvent(open)
			sched.RunFor(property.DefaultParams().FirewallWindow + time.Second)
		}
	}
	discharge := func(sched *sim.Scheduler, mon *Monitor) func() {
		src, dst := packet.IPv4FromUint32(0x0a000007), packet.IPv4FromUint32(0xcb007107)
		request := packet.NewICMPEcho(macA, macB, src, dst, 7, 1, false)
		reply := packet.NewICMPEcho(macB, macA, dst, src, 7, 1, true)
		var pid PacketID
		return func() {
			pid += 2
			mon.HandleEvent(Event{Kind: KindArrival, Time: sched.Now(), PacketID: pid - 1, Packet: request, InPort: 1})
			mon.HandleEvent(Event{Kind: KindEgress, Time: sched.Now(), PacketID: pid, Packet: reply, InPort: 2, OutPort: 1})
			sched.RunFor(time.Millisecond)
		}
	}
	for _, tc := range []struct {
		name, prop string
		cycle      func(*sim.Scheduler, *Monitor) func()
		stat       func(Stats) uint64
	}{
		{"window expiry", "firewall-timeout", expiry, func(s Stats) uint64 { return s.Expired }},
		{"reply discharge", "ping-reply-within", discharge, func(s Stats) uint64 { return s.Discharged }},
	} {
		for _, cfg := range []Config{
			{DisableStateAccounting: true},
			{StateTopK: 32, StateSample: 1, StateWatermark: 1 << 20},
		} {
			sched := sim.NewScheduler()
			mon := NewMonitor(sched, cfg)
			if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), tc.prop)); err != nil {
				t.Fatal(err)
			}
			cycle := tc.cycle(sched, mon)
			for i := 0; i < 32; i++ {
				cycle() // warm the free chain, tables, deadline queue and sketch slot
			}
			avg := testing.AllocsPerRun(1000, cycle)
			if got := tc.stat(mon.Stats()); got < 1000 || mon.ActiveInstances() != 0 {
				t.Fatalf("%s: cycle is not churning (counter %d, %d instances live)", tc.name, got, mon.ActiveInstances())
			}
			if avg != 0 {
				t.Fatalf("%s churn allocates %.2f/cycle (accounting off: %v), want 0",
					tc.name, avg, cfg.DisableStateAccounting)
			}
		}
	}
}

// TestStateTopKExactOnSkewedWorkload drives a deterministic skewed
// workload — flow f files f+1 times, forced by window-expiry churn on
// firewall-timeout — through an unsampled sketch with spare capacity and
// checks /state's top-K against the exact counts: every flow present,
// every estimate exact (zero error bound), heaviest first.
func TestStateTopKExactOnSkewedWorkload(t *testing.T) {
	sched := sim.NewScheduler()
	mon := NewMonitor(sched, Config{StateTopK: 16, StateSample: 1})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-timeout")); err != nil {
		t.Fatal(err)
	}
	const nflows = 8
	var pid PacketID
	total := uint64(0)
	// Round r opens every flow with more filings owed than r; the window
	// expiry between rounds is what makes each open a fresh filing
	// rather than a dedup refresh.
	for r := 0; r < nflows; r++ {
		for f := 0; f < nflows; f++ {
			if f+1 > r {
				mon.HandleEvent(fwOpen(sched, &pid, f))
				total++
			}
		}
		sched.RunFor(property.DefaultParams().FirewallWindow + time.Second)
	}
	rep := mon.StateReport()
	if len(rep.Properties) != 1 {
		t.Fatalf("properties = %d, want 1", len(rep.Properties))
	}
	p := rep.Properties[0]
	if p.Property != "firewall-timeout" {
		t.Fatalf("property = %q", p.Property)
	}
	if p.Live != 0 || p.Timers != 0 {
		t.Fatalf("after full expiry: live=%d timers=%d, want 0/0", p.Live, p.Timers)
	}
	if p.Filings != total {
		t.Fatalf("filings = %d, want %d", p.Filings, total)
	}
	if rep.Pooled < 1 {
		t.Fatalf("pooled = %d; expired instances should be parked on the free list", rep.Pooled)
	}
	if len(p.TopKeys) != nflows {
		t.Fatalf("topk has %d keys, want %d: %v", len(p.TopKeys), nflows, p.TopKeys)
	}
	// Under capacity and unsampled, space-saving is exact: counts are
	// precisely {1..nflows}, descending, with zero error bound.
	for i, kw := range p.TopKeys {
		want := uint64(nflows - i)
		if kw.Filings != want {
			t.Fatalf("topk[%d] = %d filings, want %d (exact)", i, kw.Filings, want)
		}
		if kw.MaxOver != 0 {
			t.Fatalf("topk[%d] error bound = %d, want 0 under capacity", i, kw.MaxOver)
		}
	}
}

// TestStateReportTracksLiveState pins the accounting invariants on a
// live (unexpired) population: live matches ActiveInstances, timers
// match the windowed instance count, bytes are charged while filed and
// fully refunded after expiry.
func TestStateReportTracksLiveState(t *testing.T) {
	sched := sim.NewScheduler()
	mon := NewMonitor(sched, Config{})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-timeout")); err != nil {
		t.Fatal(err)
	}
	var pid PacketID
	const flows = 10
	for f := 0; f < flows; f++ {
		mon.HandleEvent(fwOpen(sched, &pid, f))
	}
	p := mon.StateReport().Properties[0]
	if p.Live != flows || int(p.Live) != mon.ActiveInstances() {
		t.Fatalf("live = %d, ActiveInstances = %d, want %d", p.Live, mon.ActiveInstances(), flows)
	}
	if p.Timers != flows {
		t.Fatalf("timers = %d, want %d (every firewall-timeout instance is windowed)", p.Timers, flows)
	}
	if p.Bytes <= 0 {
		t.Fatalf("bytes = %d, want positive while instances are live", p.Bytes)
	}
	sched.RunFor(property.DefaultParams().FirewallWindow + time.Second)
	p = mon.StateReport().Properties[0]
	if p.Live != 0 || p.Timers != 0 || p.Bytes != 0 {
		t.Fatalf("after expiry: live=%d timers=%d bytes=%d, want all zero", p.Live, p.Timers, p.Bytes)
	}
}

// TestStateWatermarkRaisesBeforeEviction configures both a watermark and
// a MaxInstances cap and checks the ordering promise: pressure raises
// while the engine is still sound (no evictions yet), i.e. the warning
// fires before the mechanism it warns about.
func TestStateWatermarkRaisesBeforeEviction(t *testing.T) {
	sched := sim.NewScheduler()
	mon := NewMonitor(sched, Config{StateWatermark: 4, MaxInstances: 8})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	var pid PacketID
	for f := 0; f < 6; f++ {
		mon.HandleEvent(fwOpen(sched, &pid, f))
	}
	p := mon.StateReport().Properties[0]
	if !p.Pressure || p.Crossings != 1 {
		t.Fatalf("pressure=%v crossings=%d at live=6 over watermark 4, want raised once", p.Pressure, p.Crossings)
	}
	if got := mon.Stats().Evicted; got != 0 {
		t.Fatalf("evicted = %d before the cap; pressure must lead eviction, not trail it", got)
	}
	if p.Unsound != nil {
		t.Fatalf("pressure marked the ledger (%v); it is a warning, not an unsoundness", p.Unsound)
	}
}

// TestStateReportDisabled pins the DisableStateAccounting contract: an
// empty report, no per-property entries, and a nil-safe hot path.
func TestStateReportDisabled(t *testing.T) {
	sched := sim.NewScheduler()
	mon := NewMonitor(sched, Config{DisableStateAccounting: true})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	var pid PacketID
	mon.HandleEvent(fwOpen(sched, &pid, 0))
	if rep := mon.StateReport(); len(rep.Properties) != 0 {
		t.Fatalf("disabled accounting returned %+v", rep)
	}
}

// TestShardedStateReport checks the sharded engine's report: per-shard
// breakdowns summing to the totals, agreement with ActiveInstances after
// quiesce, and the unsound cross-reference picking up ledger marks.
func TestShardedStateReport(t *testing.T) {
	sm := NewShardedMonitor(4, Config{StateTopK: 8, StateSample: 1})
	if err := sm.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	var pid PacketID
	const flows = 64
	for f := 0; f < flows; f++ {
		sm.Submit(fwOpen(sched, &pid, f))
	}
	sm.Barrier()
	rep := sm.StateReport()
	if rep.Shards != 4 {
		t.Fatalf("report shards = %d, want 4", rep.Shards)
	}
	p := rep.Properties[0]
	if int(p.Live) != sm.ActiveInstances() || p.Live != flows {
		t.Fatalf("live = %d, ActiveInstances = %d, want %d", p.Live, sm.ActiveInstances(), flows)
	}
	if len(p.Shards) != 4 {
		t.Fatalf("per-shard breakdown has %d entries, want 4", len(p.Shards))
	}
	var sumLive, sumBytes int64
	var sumFil uint64
	spread := 0
	for _, s := range p.Shards {
		sumLive += s.Live
		sumBytes += s.Bytes
		sumFil += s.Filings
		if s.Live > 0 {
			spread++
		}
	}
	if sumLive != p.Live || sumBytes != p.Bytes || sumFil != p.Filings {
		t.Fatalf("shard sums (%d, %d, %d) disagree with totals (%d, %d, %d)",
			sumLive, sumBytes, sumFil, p.Live, p.Bytes, p.Filings)
	}
	if spread < 2 {
		t.Fatalf("all %d flows landed on one shard; routing should spread them", flows)
	}
	if p.Unsound != nil || p.Quarantined {
		t.Fatalf("clean run reports unsound=%v quarantined=%v", p.Unsound, p.Quarantined)
	}
	sm.MarkFeedLoss(sched.Now(), 3, "test loss")
	p = sm.StateReport().Properties[0]
	um, ok := p.Unsound.(UnsoundMark)
	if !ok {
		t.Fatalf("after feed loss, unsound = %#v, want an UnsoundMark", p.Unsound)
	}
	if um.Reason != UnsoundInjectedLoss {
		t.Fatalf("unsound reason = %v, want injected loss", um.Reason)
	}
	sm.Close()
}

// TestFlowKeyStableAcrossStages pins the property that makes top-K keys
// meaningful: an instance keeps the same flow key as it advances stages
// (the key hashes bindings only, unlike the stage-tagged dedup
// signature), so a flow's filings aggregate under one key.
func TestFlowKeyStableAcrossStages(t *testing.T) {
	cp, err := compile(property.CatalogByName(property.DefaultParams(), "firewall-basic"))
	if err != nil {
		t.Fatal(err)
	}
	key := func(a, b uint64, pk []PacketID) uint64 {
		en := rowEnv(cp, map[property.Var]packet.Value{"A": packet.Num(a), "B": packet.Num(b)}, pk)
		return flowKey(en, len(cp.vars))
	}
	k1 := key(0x0a000001, 0xcb007101, []PacketID{1, 0})
	// Same bindings, other matched packets: the key hashes variables only.
	if k2 := key(0x0a000001, 0xcb007101, []PacketID{9, 4}); k2 != k1 {
		t.Fatalf("flow key depends on packet identity: %#x vs %#x", k1, k2)
	}
	if k3 := key(0x0a000002, 0xcb007101, nil); k3 == k1 {
		t.Fatalf("distinct bindings collided: %#x", k1)
	}
	if flowKey(env{r: &row{}, s: &store{}}, 0) == 0 {
		t.Fatal("empty bindings must map to the nonzero sentinel")
	}
}

// TestApproxBytesTracksHeap pins /state's approx_bytes to what the
// layout really holds: a 20 000-instance population left behind by
// churn (every request a new identity, half of them answered and their
// rows, table slots and deadline entries recycled or left stale) must
// be reported within a quarter of the heap it actually occupies.
func TestApproxBytesTracksHeap(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector's shadow allocations are not instance state")
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	sched := sim.NewScheduler()
	mon := NewMonitor(sched, Config{})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "ping-reply-within")); err != nil {
		t.Fatal(err)
	}
	before := heap()
	const live = 20000
	var pid PacketID
	for i := 0; i < 2*live; i++ {
		src := packet.IPv4FromUint32(0x0a000000 + uint32(i))
		dst := packet.IPv4FromUint32(0xcb007101)
		pid++
		mon.HandleEvent(Event{Kind: KindArrival, Time: sched.Now(), PacketID: pid, InPort: 1,
			Packet: packet.NewICMPEcho(macA, macB, src, dst, uint16(i), 1, false)})
		if i%2 == 1 {
			pid++
			mon.HandleEvent(Event{Kind: KindEgress, Time: sched.Now(), PacketID: pid, InPort: 2, OutPort: 1,
				Packet: packet.NewICMPEcho(macB, macA, dst, src, uint16(i), 1, true)})
		}
	}
	held := heap() - before
	if mon.ActiveInstances() != live {
		t.Fatalf("%d instances live, want %d", mon.ActiveInstances(), live)
	}
	reported := mon.StateReport().Properties[0].Bytes
	if ratio := float64(reported) / float64(held); ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("approx_bytes %d for %d instances, heap grew %d: ratio %.2f outside 0.75..1.25",
			reported, live, held, ratio)
	}
	t.Logf("approx_bytes %d, heap delta %d (%.0f B and %.0f B an instance)",
		reported, held, float64(reported)/live, float64(held)/live)
	runtime.KeepAlive(mon)
}
