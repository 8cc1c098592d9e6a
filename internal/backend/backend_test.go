package backend

import (
	"runtime"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

var (
	macA = packet.MustMAC("02:00:00:00:00:0a")
	macB = packet.MustMAC("02:00:00:00:00:0b")
	ipA  = packet.MustIPv4("10.0.0.1")
	ipB  = packet.MustIPv4("203.0.113.9")
)

func prop(t *testing.T, name string) *property.Property {
	t.Helper()
	p := property.CatalogByName(property.DefaultParams(), name)
	if p == nil {
		t.Fatalf("no property %s", name)
	}
	return p
}

func TestCapabilityEnforcement(t *testing.T) {
	sched := sim.NewScheduler()
	cases := []struct {
		backend  Backend
		prop     string
		accepted bool
		mentions string
	}{
		// Varanus and the ideal switch take everything.
		{NewVaranus(sched), "lswitch-linkdown", true, ""},
		{NewVaranus(sched), "dhcparp-preload", true, ""},
		{NewIdeal(sched), "lswitch-linkdown", true, ""},
		{NewIdeal(sched), "arp-proxy-reply", true, ""},
		// Static Varanus: everything except out-of-band multiple match.
		{NewStaticVaranus(sched), "dhcparp-preload", true, ""},
		{NewStaticVaranus(sched), "lswitch-linkdown", false, "out-of-band"},
		// P4: no timeout actions, no wandering, no OOB; egress+drops OK.
		{NewP4(sched), "firewall-until-close", true, ""},
		{NewP4(sched), "nat-reverse", true, ""},
		{NewP4(sched), "arp-proxy-reply", false, "timeout actions"},
		{NewP4(sched), "ftp-data-port", false, "wandering"},
		{NewP4(sched), "lswitch-linkdown", false, "out-of-band"},
		// SNAP additionally lacks rule timeouts and egress visibility.
		{NewSNAP(sched), "firewall-timeout", false, "rule timeouts"},
		{NewSNAP(sched), "firewall-basic", false, "dropped-packet"},
		// OpenState/FAST have no egress pipeline at all.
		{NewOpenState(sched), "firewall-basic", false, "dropped-packet"},
		{NewFAST(sched), "knock-intervening", false, "egress"},
	}
	for _, c := range cases {
		err := c.backend.AddProperty(prop(t, c.prop))
		if c.accepted && err != nil {
			t.Errorf("%s rejected %s: %v", c.backend.Name(), c.prop, err)
		}
		if !c.accepted {
			if err == nil {
				t.Errorf("%s accepted %s, want rejection", c.backend.Name(), c.prop)
				continue
			}
			if !IsUnsupported(err) {
				t.Errorf("%s: error is not ErrUnsupported: %v", c.backend.Name(), err)
			}
			if c.mentions != "" && !containsStr(err.Error(), c.mentions) {
				t.Errorf("%s: error %q does not mention %q", c.backend.Name(), err, c.mentions)
			}
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestOpenFlow13AcceptsEverythingAtController(t *testing.T) {
	sched := sim.NewScheduler()
	b := NewOpenFlow13(sched)
	for _, e := range property.Catalog(property.DefaultParams()) {
		if err := b.AddProperty(e.Prop); err != nil {
			t.Errorf("OF1.3 controller rejected %s: %v", e.Prop.Name, err)
		}
	}
}

// firewallViolationStream drives an A->B arrival then a dropped B->A
// egress through the backend.
func firewallViolationStream(b Backend, sched *sim.Scheduler) {
	ab := packet.NewTCP(macA, macB, ipA, ipB, 1000, 80, packet.FlagSYN, nil)
	ba := packet.NewTCP(macB, macA, ipB, ipA, 80, 1000, packet.FlagACK, nil)
	now := sched.Now()
	b.HandleEvent(core.Event{Kind: core.KindArrival, Time: now, PacketID: 1, Packet: ab, InPort: 1})
	b.HandleEvent(core.Event{Kind: core.KindEgress, Time: now, PacketID: 1, Packet: ab, InPort: 1, OutPort: 2})
	b.HandleEvent(core.Event{Kind: core.KindArrival, Time: now, PacketID: 2, Packet: ba, InPort: 2})
	b.HandleEvent(core.Event{Kind: core.KindEgress, Time: now, PacketID: 2, Packet: ba, InPort: 2, Dropped: true})
}

func TestVisibilityFilterHidesViolations(t *testing.T) {
	// The same violating stream: the ideal switch catches it; the
	// controller-only OF1.3 monitor, blind to drops, misses it — the
	// false-negative cost of external monitoring.
	sched := sim.NewScheduler()
	ideal := NewIdeal(sched)
	of13 := NewOpenFlow13(sched)
	fw := prop(t, "firewall-basic")
	if err := ideal.AddProperty(fw); err != nil {
		t.Fatal(err)
	}
	if err := of13.AddProperty(fw); err != nil {
		t.Fatal(err)
	}
	firewallViolationStream(ideal, sched)
	firewallViolationStream(of13, sched)
	if ideal.Violations() != 1 {
		t.Fatalf("ideal violations = %d, want 1", ideal.Violations())
	}
	if of13.Violations() != 0 {
		t.Fatalf("OF1.3 violations = %d, want 0 (cannot see drops)", of13.Violations())
	}
	if of13.RedirectedPackets() != 2 || of13.RedirectedBytes() == 0 {
		t.Fatalf("redirect accounting: pkts=%d bytes=%d", of13.RedirectedPackets(), of13.RedirectedBytes())
	}
	if ideal.Violations() == 1 && ideal.StateUpdateCost() == 0 {
		t.Fatal("ideal backend recorded no state-update cost")
	}
}

func TestVaranusDetectsEverythingIdealDoes(t *testing.T) {
	sched := sim.NewScheduler()
	varanus := NewVaranus(sched)
	ideal := NewIdeal(sched)
	fw := prop(t, "firewall-basic")
	if err := varanus.AddProperty(fw); err != nil {
		t.Fatal(err)
	}
	if err := ideal.AddProperty(fw); err != nil {
		t.Fatal(err)
	}
	firewallViolationStream(varanus, sched)
	firewallViolationStream(ideal, sched)
	if varanus.Violations() != ideal.Violations() {
		t.Fatalf("varanus=%d ideal=%d", varanus.Violations(), ideal.Violations())
	}
}

func TestPipelineDepthScaling(t *testing.T) {
	// Sec 3.3: Varanus pipeline depth grows with live instances; Static
	// Varanus and register designs stay constant.
	sched := sim.NewScheduler()
	varanus := NewVaranus(sched)
	static := NewStaticVaranus(sched)
	p4 := NewP4(sched)
	fw := prop(t, "firewall-basic")
	for _, b := range []Backend{varanus, static, p4} {
		if err := b.AddProperty(fw); err != nil {
			t.Fatal(err)
		}
	}
	// Open 100 distinct connections: 100 live instances.
	for i := 0; i < 100; i++ {
		src := packet.IPv4FromUint32(0x0a000000 | uint32(i))
		p := packet.NewTCP(macA, macB, src, ipB, uint16(1000+i), 80, packet.FlagSYN, nil)
		ev := core.Event{Kind: core.KindArrival, Time: sched.Now(), PacketID: core.PacketID(i + 1), Packet: p, InPort: 1}
		varanus.HandleEvent(ev)
		static.HandleEvent(ev)
		p4.HandleEvent(ev)
	}
	if d := varanus.PipelineDepth(); d != 100 {
		t.Errorf("varanus depth = %d, want 100", d)
	}
	if d := static.PipelineDepth(); d != 2 {
		t.Errorf("static varanus depth = %d, want 2 (stages)", d)
	}
	if d := p4.PipelineDepth(); d != 2 {
		t.Errorf("p4 depth = %d, want 2 (stages)", d)
	}
	// Rule-based state paid rule mods; register state paid register ops.
	if varanus.StateUpdateCost() < 100 {
		t.Errorf("varanus rule mods = %d, want >= 100", varanus.StateUpdateCost())
	}
	if p4.StateUpdateCost() < 100 {
		t.Errorf("p4 register ops = %d, want >= 100", p4.StateUpdateCost())
	}
}

func TestTimeoutActionsRunOnVaranusBackends(t *testing.T) {
	sched := sim.NewScheduler()
	for _, b := range []Backend{NewVaranus(sched), NewStaticVaranus(sched), NewIdeal(sched)} {
		if err := b.AddProperty(prop(t, "arp-proxy-reply")); err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		mapping := packet.NewARPReply(macA, ipA, macB, ipB)
		req := packet.NewARPRequest(macB, ipB, ipA)
		now := sched.Now()
		b.HandleEvent(core.Event{Kind: core.KindArrival, Time: now, PacketID: 1, Packet: mapping, InPort: 3})
		b.HandleEvent(core.Event{Kind: core.KindArrival, Time: now, PacketID: 2, Packet: req, InPort: 4})
	}
	sched.RunFor(3 * time.Second)
	for _, name := range []string{"Varanus", "Static Varanus", "Ideal (this paper)"} {
		_ = name // violations were counted per backend below
	}
	// Re-run with direct handles to assert counts.
	sched2 := sim.NewScheduler()
	v := NewVaranus(sched2)
	if err := v.AddProperty(prop(t, "arp-proxy-reply")); err != nil {
		t.Fatal(err)
	}
	mapping := packet.NewARPReply(macA, ipA, macB, ipB)
	req := packet.NewARPRequest(macB, ipB, ipA)
	v.HandleEvent(core.Event{Kind: core.KindArrival, Time: sched2.Now(), PacketID: 1, Packet: mapping, InPort: 3})
	v.HandleEvent(core.Event{Kind: core.KindArrival, Time: sched2.Now(), PacketID: 2, Packet: req, InPort: 4})
	sched2.RunFor(3 * time.Second)
	if v.Violations() != 1 {
		t.Fatalf("varanus timeout-action violations = %d, want 1", v.Violations())
	}
}

func TestShardedVaranusMatchesIdeal(t *testing.T) {
	// The sharded backend is Ideal's execution strategy, not a different
	// monitor: on a bulk firewall stream it must report the same violation
	// count and the same register-write cost, spread across its shards.
	sched := sim.NewScheduler()
	ideal := NewIdeal(sched)
	sharded := NewShardedVaranusN(4)
	defer sharded.Close()
	fw := prop(t, "firewall-basic")
	for _, b := range []Backend{ideal, sharded} {
		if err := b.AddProperty(fw); err != nil {
			t.Fatal(err)
		}
	}
	now := sched.Now()
	var pid core.PacketID
	for f := 0; f < 500; f++ {
		src := packet.IPv4FromUint32(0x0a000000 | uint32(f))
		open := packet.NewTCP(macA, macB, src, ipB, uint16(10000+f), 80, packet.FlagSYN, nil)
		ret := packet.NewTCP(macB, macA, ipB, src, 80, uint16(10000+f), packet.FlagACK, nil)
		pid++
		evs := []core.Event{
			{Kind: core.KindArrival, Time: now, PacketID: pid, Packet: open, InPort: 1},
			{Kind: core.KindEgress, Time: now, PacketID: pid, Packet: open, InPort: 1, OutPort: 2},
			{Kind: core.KindEgress, Time: now, PacketID: pid + 1, Packet: ret, InPort: 2, Dropped: f%5 == 0},
		}
		if f%5 != 0 {
			evs[2].OutPort = 1
		}
		pid++
		for _, ev := range evs {
			ideal.HandleEvent(ev)
			sharded.HandleEvent(ev)
		}
		now = now.Add(time.Microsecond)
	}
	if iv, sv := ideal.Violations(), sharded.Violations(); iv != sv {
		t.Fatalf("violations: ideal=%d sharded=%d", iv, sv)
	}
	if sharded.Violations() != 100 {
		t.Fatalf("violations = %d, want 100", sharded.Violations())
	}
	if ic, sc := ideal.StateUpdateCost(), sharded.StateUpdateCost(); ic != sc {
		t.Fatalf("state cost: ideal=%d sharded=%d", ic, sc)
	}
	if d := sharded.PipelineDepth(); d != 2 {
		t.Fatalf("depth = %d, want 2 (stage count, population-independent)", d)
	}
	if sharded.Monitor().Shards() != 4 {
		t.Fatalf("shards = %d, want 4", sharded.Monitor().Shards())
	}
}

func TestAllReturnsEveryBackend(t *testing.T) {
	bs := All(sim.NewScheduler())
	if len(bs) != 10 {
		t.Fatalf("All() = %d backends, want 10", len(bs))
	}
	names := map[string]bool{}
	for _, b := range bs {
		if b.Name() == "" {
			t.Error("backend with empty name")
		}
		if names[b.Name()] {
			t.Errorf("duplicate backend name %s", b.Name())
		}
		names[b.Name()] = true
		caps := b.Capabilities()
		if caps.StateMechanism == "" || caps.FieldAccess == "" {
			t.Errorf("%s: incomplete descriptive capabilities", b.Name())
		}
	}
}

// controllerHosted reports whether the backend hosts the monitor at the
// controller (OpenFlow columns), where compilation is unconstrained.
func controllerHosted(b Backend) bool {
	return b.Capabilities().StateMechanism == "Controller only"
}

func TestTriMark(t *testing.T) {
	if Yes.Mark() != "yes" || No.Mark() != "no" || Blank.Mark() != "" {
		t.Fatal("Tri.Mark wrong")
	}
}

func TestSupportsMatchesAddProperty(t *testing.T) {
	// For every capability-enforcing backend and every catalogue
	// property, the declared capabilities (Supports) and the actual
	// compile behaviour (AddProperty) must agree. OF1.3 is exempt: its
	// controller accepts more than the switch natively supports.
	sched := sim.NewScheduler()
	for _, e := range property.Catalog(property.DefaultParams()) {
		for _, b := range All(sim.NewScheduler()) {
			if controllerHosted(b) {
				continue
			}
			declared := Supports(b, e.Prop) == nil
			actual := b.AddProperty(e.Prop) == nil
			if declared != actual {
				t.Errorf("%s / %s: Supports=%v but AddProperty=%v",
					b.Name(), e.Prop.Name, declared, actual)
			}
		}
	}
	_ = sched
}

// TestWitnessProbeMatrix probes each boolean Table 2 row with a minimal
// witness property and checks the observed compile result against the
// declared capability — the mechanism behind the regenerated Table 2.
func TestWitnessProbeMatrix(t *testing.T) {
	for _, w := range Witnesses() {
		for _, b := range All(sim.NewScheduler()) {
			if controllerHosted(b) {
				continue // controller-hosted: compile always succeeds
			}
			declared := w.Capability(b.Capabilities())
			if declared == Blank {
				continue // paper leaves the cell blank; nothing to probe
			}
			err := b.AddProperty(w.Prop)
			got := Yes
			if err != nil {
				got = No
			}
			if got != declared {
				t.Errorf("%s / %s: probe=%v declared=%v (err=%v)",
					b.Name(), w.Row, got == Yes, declared == Yes, err)
			}
		}
	}
}

// TestCloseStopsWhatAllFed feeds every backend All builds and checks
// that Close returns the goroutine count to its baseline: the sharded
// backend starts its shard goroutines on the first fed event.
func TestCloseStopsWhatAllFed(t *testing.T) {
	base := runtime.NumGoroutine()
	sched := sim.NewScheduler()
	bs := All(sched)
	for _, b := range bs {
		if err := b.AddProperty(prop(t, "firewall-basic")); err != nil && !IsUnsupported(err) {
			t.Fatal(err)
		}
	}
	for _, b := range bs {
		firewallViolationStream(b, sched)
	}
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("goroutines = %d after feeding, want > %d: the stream started no shard", n, base)
	}
	Close(bs)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Close, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
