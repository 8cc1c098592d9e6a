package core

import (
	"fmt"
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// TestShardPlanAnalysis pins the static sharding analysis on catalog
// properties: a stable stage-zero identity must be detected where it
// exists, and every escape hatch (packet-identity stages, wandering
// identities) must fall back to the catch-all plan.
func TestShardPlanAnalysis(t *testing.T) {
	cases := []struct {
		name      string
		shardable bool
	}{
		{"firewall-basic", true},
		{"firewall-until-close", true},
		// nat-reverse addresses stage 1 by the stage-0 packet identity
		// (SamePacketAs), which no value hash can route.
		{"nat-reverse", false},
	}
	for _, tc := range cases {
		p := property.CatalogByName(property.DefaultParams(), tc.name)
		if p == nil {
			t.Fatalf("missing catalog property %s", tc.name)
		}
		cp, err := compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if cp.plan.shardable != tc.shardable {
			t.Errorf("%s: shardable = %v, want %v", tc.name, cp.plan.shardable, tc.shardable)
		}
		if !cp.plan.shardable {
			continue
		}
		if len(cp.plan.identityVars) == 0 || len(cp.plan.createFields) != len(cp.plan.identityVars) {
			t.Errorf("%s: malformed plan %+v", tc.name, cp.plan)
		}
		if len(cp.plan.routes) == 0 {
			t.Errorf("%s: shardable plan with no routes", tc.name)
		}
		for _, r := range cp.plan.routes {
			if len(r.fields) != len(cp.plan.identityVars) {
				t.Errorf("%s: route %v does not pin all of %v", tc.name, r.fields, cp.plan.identityVars)
			}
		}
	}
}

// driveDifferential feeds one seeded random trace to an inline Monitor
// and a ShardedMonitor in lockstep — events and clock advances alike —
// and requires identical violation multisets, identical aggregate Stats,
// and clean invariants on both. This is the correctness argument for the
// sharded engine: identity-hash routing must be invisible semantically.
//
// The same stream also runs through the Engine surface — the one a daemon
// drives — into a second inline Monitor and a ShardedMonitor(2), with an
// install, a remove and a replace landing mid-stream on both. Whatever a
// daemon can observe through Engine must then agree: the verdict multiset,
// Properties, Epoch and the ledger's marks.
func driveDifferential(t *testing.T, shards int, seed int64, props []*property.Property) {
	t.Helper()
	sched := sim.NewScheduler()
	var inlineViols, shardedViols []string
	record := func(sink *[]string) func(*Violation) {
		return func(v *Violation) {
			*sink = append(*sink, fmt.Sprintf("%s@%s", v.Property, v.Time.Format(time.RFC3339Nano)))
		}
	}
	mi := NewMonitor(sched, Config{OnViolation: record(&inlineViols)})
	sm := NewShardedMonitor(shards, Config{OnViolation: record(&shardedViols)})
	defer sm.Close()
	for _, p := range props {
		if err := mi.AddProperty(p); err != nil {
			t.Fatal(err)
		}
		if err := sm.AddProperty(p); err != nil {
			t.Fatal(err)
		}
	}

	var engInlineViols, engShardedViols []string
	es := NewShardedMonitor(2, Config{OnViolation: record(&engShardedViols)})
	defer es.Close()
	engines := []Engine{NewMonitor(sim.NewScheduler(), Config{OnViolation: record(&engInlineViols)}), es}
	onEngines := func(op func(Engine) error) {
		t.Helper()
		for _, eng := range engines {
			if err := op(eng); err != nil {
				t.Fatalf("%T: %v", eng, err)
			}
		}
	}
	for _, p := range props {
		onEngines(func(eng Engine) error { return eng.AddProperty(p) })
	}
	sets := lifecycleSets(t, props)

	rng := sim.NewRand(seed)
	macs := []packet.MAC{macA, macB, packet.MustMAC("02:00:00:00:00:0c")}
	ips := []packet.IPv4{ipA, ipB, ipC, packet.MustIPv4("203.0.113.7")}
	ports := []uint16{80, 7001, 7002, 7003, 22, 40000}
	var pid PacketID

	feed := func(e Event) {
		mi.HandleEvent(e)
		sm.Submit(e)
		for _, eng := range engines {
			eng.Feed(e)
		}
	}

	for i := 0; i < 400; i++ {
		sched.RunFor(time.Duration(rng.Intn(500)) * time.Millisecond)
		sm.AdvanceTo(sched.Now())
		if i%100 == 0 && i > 0 {
			onEngines(func(eng Engine) error { return eng.Apply(uint64(i/100), sets[i/100-1]) })
		}
		var p *packet.Packet
		switch rng.Intn(3) {
		case 0:
			p = packet.NewTCP(sim.Choice(rng, macs), sim.Choice(rng, macs),
				sim.Choice(rng, ips), sim.Choice(rng, ips),
				sim.Choice(rng, ports), sim.Choice(rng, ports),
				packet.TCPFlags(rng.Intn(64)), nil)
		case 1:
			p = packet.NewUDP(sim.Choice(rng, macs), sim.Choice(rng, macs),
				sim.Choice(rng, ips), sim.Choice(rng, ips),
				sim.Choice(rng, ports), sim.Choice(rng, ports), nil)
		case 2:
			if rng.Intn(2) == 0 {
				p = packet.NewARPRequest(sim.Choice(rng, macs), sim.Choice(rng, ips), sim.Choice(rng, ips))
			} else {
				p = packet.NewARPReply(sim.Choice(rng, macs), sim.Choice(rng, ips),
					sim.Choice(rng, macs), sim.Choice(rng, ips))
			}
		}
		pid++
		inPort := uint64(rng.Intn(4) + 1)
		now := sched.Now()
		feed(Event{Kind: KindArrival, Time: now, PacketID: pid, Packet: p, InPort: inPort})
		switch rng.Intn(3) {
		case 0:
			feed(Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: p,
				InPort: inPort, Dropped: true})
		default:
			feed(Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: p,
				InPort: inPort, OutPort: uint64(rng.Intn(4) + 1)})
		}
	}
	sched.RunFor(time.Minute) // let stragglers time out
	sm.AdvanceTo(sched.Now())
	onEngines(func(eng Engine) error { eng.AdvanceTo(sched.Now()); return nil })

	if is, ss := mi.Stats(), sm.Stats(); is != ss {
		t.Fatalf("stats diverge:\ninline:  %+v\nsharded: %+v", is, ss)
	}
	sameMultiset := func(what string, inline, sharded []string) {
		t.Helper()
		count := map[string]int{}
		for _, s := range inline {
			count[s]++
		}
		for _, s := range sharded {
			count[s]--
			if count[s] < 0 {
				t.Fatalf("%s: sharded engine produced extra violation %s", what, s)
			}
		}
		for s, n := range count {
			if n != 0 {
				t.Fatalf("%s: violation multiset mismatch at %s (%+d)", what, s, n)
			}
		}
	}
	sameMultiset("static set", inlineViols, shardedViols)
	sameMultiset("Engine surface with lifecycle", engInlineViols, engShardedViols)
	ei := engines[0]
	if a, b := fmt.Sprint(ei.Properties()), fmt.Sprint(es.Properties()); a != b {
		t.Fatalf("Engine.Properties diverge: inline %s, sharded %s", a, b)
	}
	if a, b := ei.Epoch(), es.Epoch(); a != b || a == 0 {
		t.Fatalf("Engine.Epoch: inline %d, sharded %d, want equal and live", a, b)
	}
	if a, b := ei.Stats(), es.Stats(); a != b {
		t.Fatalf("Engine.Stats diverge:\ninline:  %+v\nsharded: %+v", a, b)
	}
	marks := ei.Ledger().Snapshot()
	if len(marks) != 1 || marks[0].Reason != UnsoundReinstalled {
		t.Fatalf("inline ledger after the replace = %+v, want one reinstalled mark", marks)
	}
	if a, b := fmt.Sprintf("%+v", marks), fmt.Sprintf("%+v", es.Ledger().Snapshot()); a != b {
		t.Fatalf("Engine.Ledger diverges:\ninline:  %s\nsharded: %s", a, b)
	}
	if mi.ActiveInstances() != sm.ActiveInstances() {
		t.Fatalf("live instances differ: inline=%d sharded=%d",
			mi.ActiveInstances(), sm.ActiveInstances())
	}
	if err := mi.SelfCheck(); err != nil {
		t.Fatalf("inline engine invariants: %v", err)
	}
	if err := sm.SelfCheck(); err != nil {
		t.Fatalf("sharded engine invariants: %v", err)
	}
}

// TestShardedEngineMatchesInlineEngine is the sharded counterpart of the
// indexed-vs-scanning differential, across shard counts and seeds, over a
// property mix spanning shardable and catch-all plans.
func TestShardedEngineMatchesInlineEngine(t *testing.T) {
	props := []*property.Property{
		property.CatalogByName(property.DefaultParams(), "firewall-until-close"),
		property.CatalogByName(property.DefaultParams(), "lswitch-unicast"),
		property.CatalogByName(property.DefaultParams(), "arp-proxy-reply"),
		property.CatalogByName(property.DefaultParams(), "knock-intervening"),
	}
	for _, shards := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				driveDifferential(t, shards, seed, props)
			})
		}
	}
}

// TestShardedHighVolumeDrain stresses the concurrent queues without
// intervening barriers: a firewall-style open/violate stream is pumped
// end to end, and only Drain synchronizes. Meaningful under -race; also
// checks that routed violations neither duplicate nor vanish.
func TestShardedHighVolumeDrain(t *testing.T) {
	const flows = 5000
	fw := property.CatalogByName(property.DefaultParams(), "firewall-basic")
	viols := 0
	sm := NewShardedMonitor(4, Config{OnViolation: func(*Violation) { viols++ }})
	defer sm.Close()
	if err := sm.AddProperty(fw); err != nil {
		t.Fatal(err)
	}
	if !sm.Shardable(0) {
		t.Fatal("firewall-basic should shard")
	}
	now := sim.Epoch
	var pid PacketID
	for f := 0; f < flows; f++ {
		src := packet.IPv4FromUint32(0x0a000000 | uint32(f))
		dst := packet.IPv4FromUint32(0xcb007100 | uint32(f%200))
		open := packet.NewTCP(macA, macB, src, dst, uint16(10000+f%50000), 80, packet.FlagSYN, nil)
		pid++
		sm.Submit(Event{Kind: KindArrival, Time: now, PacketID: pid, Packet: open, InPort: 1})
		sm.Submit(Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: open, InPort: 1, OutPort: 2})
		// Return traffic: every 10th flow's return is dropped -> violation.
		ret := packet.NewTCP(macB, macA, dst, src, 80, uint16(10000+f%50000), packet.FlagACK, nil)
		pid++
		ev := Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: ret, InPort: 2}
		if f%10 == 0 {
			ev.Dropped = true
		} else {
			ev.OutPort = 1
		}
		sm.Submit(ev)
		now = now.Add(time.Microsecond)
	}
	sm.Drain()
	st := sm.Stats()
	if want := uint64(flows / 10); st.Violations != want {
		t.Fatalf("violations = %d, want %d", st.Violations, want)
	}
	if uint64(viols) != st.Violations {
		t.Fatalf("callback saw %d violations, stats say %d", viols, st.Violations)
	}
	if st.Created != flows {
		t.Fatalf("created = %d, want %d", st.Created, flows)
	}
	// The identity hash must actually spread the load: with 5000 distinct
	// flow identities, no shard should sit idle.
	for i, ss := range sm.ShardStats() {
		if ss.Created == 0 {
			t.Errorf("shard %d created no instances (load imbalance)", i)
		}
	}
	if err := sm.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}
