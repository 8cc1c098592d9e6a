package core

import (
	"math/rand"
	"testing"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// propCounterNames are the per-property series that are routing-invariant:
// a ShardedMonitor's registry (where all shards resolve the same
// property-labeled counters, so the values are cross-shard aggregates)
// must report exactly what an inline engine reports on the same stream.
// switchmon_property_events_total is deliberately absent — it counts
// events *examined*, and the router skips deliveries a single engine
// would have scanned.
var propCounterNames = []string{
	"switchmon_property_matches_total",
	"switchmon_property_violations_total",
	"switchmon_property_timeouts_total",
	"switchmon_property_discharged_total",
	"switchmon_property_expired_total",
}

// Property: the sharded engine's aggregated per-property counters equal
// the inline engine's on any seeded random stream, at every shard width.
// This is the telemetry-level differential: beyond Stats agreeing in
// aggregate (TestShardedMatchesInlineOnRandomStream), the per-property
// attribution must survive partitioning.
func TestShardedPropertyCountersMatchInline(t *testing.T) {
	props := []*property.Property{
		property.CatalogByName(property.DefaultParams(), "firewall-timeout"),
		property.CatalogByName(property.DefaultParams(), "portscan-detect"),
		property.CatalogByName(property.DefaultParams(), "lb-sticky"),
	}
	for _, shards := range []int{1, 3, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			sched := sim.NewScheduler()
			regI, regS := obs.NewRegistry(), obs.NewRegistry()
			mi := NewMonitor(sched, Config{Metrics: regI})
			sm := NewShardedMonitor(shards, Config{Metrics: regS})
			for _, p := range props {
				if err := mi.AddProperty(p); err != nil {
					t.Fatal(err)
				}
				if err := sm.AddProperty(p); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			var pid PacketID
			feed := func(e Event) {
				mi.HandleEvent(e)
				sm.Submit(e)
			}
			for i := 0; i < 500; i++ {
				src := packet.IPv4FromUint32(0x0a000000 + uint32(rng.Intn(32)))
				dst := packet.IPv4FromUint32(0xcb007100 + uint32(rng.Intn(8)))
				p := packet.NewTCP(macA, macB, src, dst,
					uint16(1000+rng.Intn(64)), uint16(rng.Intn(1000)),
					packet.TCPFlags(rng.Intn(64)), nil)
				pid++
				now := sched.Now()
				in := uint64(rng.Intn(3) + 1)
				feed(Event{Kind: KindArrival, Time: now, PacketID: pid, Packet: p, InPort: in})
				if rng.Intn(3) == 0 {
					feed(Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: p, InPort: in, Dropped: true})
				} else {
					feed(Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: p,
						InPort: in, OutPort: uint64(rng.Intn(3) + 1)})
				}
				if rng.Intn(10) == 0 {
					sched.RunFor(time.Second)
					sm.AdvanceTo(sched.Now())
				}
			}
			sched.RunFor(time.Hour)
			sm.AdvanceTo(sched.Now())

			si, ss := regI.Snapshot(), regS.Snapshot()
			for _, p := range props {
				l := obs.L("property", p.Name)
				for _, name := range propCounterNames {
					vi := si.CounterValue(name, l)
					vs := ss.CounterValue(name, l)
					if vi != vs {
						t.Errorf("shards=%d seed=%d: %s{property=%s} inline=%d sharded=%d",
							shards, seed, name, p.Name, vi, vs)
					}
				}
			}
			// Both engines examined a non-zero stream; the examined-events
			// counter exists under both strategies even though its value is
			// execution-dependent.
			for _, p := range props {
				l := obs.L("property", p.Name)
				if si.CounterValue("switchmon_property_events_total", l) == 0 {
					t.Errorf("inline examined no events for %s", p.Name)
				}
				if ss.CounterValue("switchmon_property_events_total", l) == 0 {
					t.Errorf("sharded examined no events for %s", p.Name)
				}
			}
			sm.Close()
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// The steady-state hot path must stay allocation-free with telemetry
// fully enabled: counters, the latency histogram, occupancy gauges, and
// an attached violation ring. This is the tentpole's overhead budget —
// enabling -metrics-addr must not change the engine's allocation
// behavior on the indexed fast path.
func TestSteadyStateAllocationBudgetWithTelemetry(t *testing.T) {
	skipAllocGateUnderRace(t)
	sched := sim.NewScheduler()
	reg := obs.NewRegistry()
	ring := obs.NewRing(64)
	mon := NewMonitor(sched, Config{Metrics: reg, Violations: ring})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	const flows = 256
	var pid PacketID
	events := make([]Event, 0, flows)
	for f := 0; f < flows; f++ {
		src := packet.IPv4FromUint32(0x0a000000 | uint32(f))
		dst := packet.IPv4FromUint32(0xcb007100 | uint32(f))
		open := packet.NewTCP(macA, macB, src, dst, uint16(10000+f), 80, packet.FlagSYN, nil)
		pid++
		mon.HandleEvent(Event{Kind: KindArrival, Time: sched.Now(), PacketID: pid, Packet: open, InPort: 1})
		mon.HandleEvent(Event{Kind: KindEgress, Time: sched.Now(), PacketID: pid, Packet: open, InPort: 1, OutPort: 2})
		ret := packet.NewTCP(macB, macA, dst, src, 80, uint16(10000+f), packet.FlagACK, nil)
		pid++
		events = append(events, Event{Kind: KindEgress, Time: sched.Now(), PacketID: pid,
			Packet: ret, InPort: 2, OutPort: 1})
	}
	for i := range events {
		mon.HandleEvent(events[i]) // warm scratch buffers before measuring
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		mon.HandleEvent(events[i%len(events)])
		i++
	})
	if avg != 0 {
		t.Fatalf("telemetry-enabled steady-state path allocates %.1f/event, want 0", avg)
	}
	if reg.Snapshot().CounterValue("switchmon_monitor_events_total") == 0 {
		t.Fatal("telemetry was not actually recording")
	}
}
