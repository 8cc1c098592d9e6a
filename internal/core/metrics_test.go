package core

import (
	"math/rand"
	"strings"
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

// levels flattens a snapshot's counter and gauge series to key -> value.
func levels(s obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for _, f := range s.Families {
		if f.Kind == "histogram" {
			continue
		}
		for _, ser := range f.Series {
			out[obs.SeriesKey(f.Name, ser.Labels)] = ser.Value
		}
	}
	return out
}

// feedSeeded feeds each monitor the same seeded stream of n arrival and
// egress pairs, 10 ms apart from start: outgoing connections, some of
// their replies dropped (violations of the firewall properties), port
// scans and flow assignments.
func feedSeeded(ms []*Monitor, seed int64, start time.Time, n int) {
	rng := rand.New(rand.NewSource(seed))
	var pid PacketID
	feed := func(e Event) {
		for _, m := range ms {
			m.Feed(e)
		}
	}
	for i := 0; i < n; i++ {
		now := start.Add(time.Duration(i) * 10 * time.Millisecond)
		src := packet.IPv4FromUint32(0x0a000000 + uint32(rng.Intn(32)))
		dst := packet.IPv4FromUint32(0xcb007100 + uint32(rng.Intn(8)))
		p := packet.NewTCP(macA, macB, src, dst, uint16(1000+rng.Intn(64)), uint16(rng.Intn(1000)),
			packet.TCPFlags(rng.Intn(64)), nil)
		pid++
		in := uint64(rng.Intn(3) + 1)
		feed(Event{Kind: KindArrival, Time: now, PacketID: pid, Packet: p, InPort: in})
		feed(Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: p, InPort: in, OutPort: uint64(rng.Intn(3) + 1)})
		if rng.Intn(4) == 0 {
			ret := packet.NewTCP(macB, macA, dst, src, 80, 1000, packet.FlagACK, nil)
			pid++
			feed(Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: ret, InPort: 2, Dropped: true})
		}
	}
}

// The registry's two promises to engines that share it. Two inline
// monitors on one registry report, on every counter and gauge series,
// the sum of what each reports on a registry of its own. And a property
// removed and installed again keeps its series honest: every
// switchmon_property_*_total and switchmon_state_* counter never goes
// back, and every switchmon_state_* gauge of the property leaves with
// its instances and returns to its level when the same stream is fed
// again. (switchmon_state_pressure and switchmon_monitor_unsound_properties
// are flags each engine sets, not counts; they are left out of the sum.)
func TestSharedRegistrySumsEnginesAcrossReinstall(t *testing.T) {
	pm := property.Params{FirewallWindow: 2 * time.Second, ReplyWindow: time.Second}
	var props []*property.Property
	for _, name := range []string{"firewall-timeout", "portscan-detect", "lb-sticky"} {
		props = append(props, property.CatalogByName(pm, name))
	}
	const moved = "firewall-timeout"
	shared := obs.NewRegistry()
	alone := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	build := func(reg *obs.Registry) *Monitor {
		m := NewMonitor(sim.NewScheduler(), Config{Metrics: reg, StateWatermark: 8})
		if err := m.Apply(0, props); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(shared), build(shared)
	a1, b1 := build(alone[0]), build(alone[1])
	feedSeeded([]*Monitor{a, a1}, 1, sim.Epoch, 400)
	feedSeeded([]*Monitor{b, b1}, 2, sim.Epoch, 400)

	sumLaw := func(when string) {
		t.Helper()
		got, x, y := levels(shared.Snapshot()), levels(alone[0].Snapshot()), levels(alone[1].Snapshot())
		for key, v := range got {
			if strings.HasPrefix(key, "switchmon_state_pressure{") || key == "switchmon_monitor_unsound_properties" {
				continue
			}
			if v != x[key]+y[key] {
				t.Errorf("%s: %s reads %d on the shared registry, %d + %d apart", when, key, v, x[key], y[key])
			}
		}
	}
	sumLaw("before the reinstall")
	s1 := shared.Snapshot()
	if s1.CounterValue("switchmon_property_violations_total", obs.L("property", moved)) == 0 ||
		s1.CounterValue("switchmon_property_timeouts_total", obs.L("property", moved)) == 0 ||
		s1.CounterValue("switchmon_state_pressure_crossings_total", obs.L("property", moved)) == 0 {
		t.Fatalf("the stream exercises too little: %v", levels(s1))
	}

	var rest []*property.Property
	for _, p := range props {
		if p.Name != moved {
			rest = append(rest, p)
		}
	}
	for _, m := range []*Monitor{a, a1} {
		if err := m.Apply(1, rest); err != nil {
			t.Fatal(err)
		}
	}
	s2 := shared.Snapshot()
	for _, m := range []*Monitor{a, a1} {
		if err := m.Apply(2, props); err != nil {
			t.Fatal(err)
		}
	}
	s3 := shared.Snapshot()
	// The same stream again, an hour on: every instance of the first pass
	// has expired, so the moved property's state is that pass's again.
	again := a.sched.Now().Add(time.Hour)
	feedSeeded([]*Monitor{a, a1}, 1, again, 400)
	s4 := shared.Snapshot()
	sumLaw("after the reinstall")

	snaps := []map[string]int64{levels(s1), levels(s2), levels(s3), levels(s4)}
	bOnly := levels(alone[1].Snapshot())
	for _, f := range s1.Families {
		state := strings.HasPrefix(f.Name, "switchmon_state_")
		if !state && !strings.HasPrefix(f.Name, "switchmon_property_") {
			continue
		}
		for _, ser := range f.Series {
			key := obs.SeriesKey(f.Name, ser.Labels)
			switch {
			case f.Kind == "counter":
				for i := 1; i < len(snaps); i++ {
					if snaps[i][key] < snaps[i-1][key] {
						t.Errorf("%s went back across the reinstall: %d -> %d", key, snaps[i-1][key], snaps[i][key])
					}
				}
			case state && ser.Labels[0].Value == moved:
				if f.Name != "switchmon_state_pressure" && (snaps[1][key] != bOnly[key] || snaps[2][key] != bOnly[key]) {
					t.Errorf("%s reads %d removed and %d reinstalled, want the other engine's %d", key, snaps[1][key], snaps[2][key], bOnly[key])
				}
				if snaps[3][key] != snaps[0][key] {
					t.Errorf("%s reads %d after the stream again, want its level %d", key, snaps[3][key], snaps[0][key])
				}
			}
		}
	}
}
