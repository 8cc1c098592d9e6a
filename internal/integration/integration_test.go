// Package integration exercises the full stack: netsim topologies running
// the monitored network functions, the monitor observing the dataplane,
// traces recorded and replayed, properties loaded from DSL text, and all
// backends fed the same event stream (experiment E9 of DESIGN.md).
package integration

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"switchmon/internal/apps"
	"switchmon/internal/backend"
	"switchmon/internal/core"
	"switchmon/internal/dataplane"
	"switchmon/internal/dsl"
	"switchmon/internal/netsim"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/trace"
)

var (
	macA = packet.MustMAC("02:00:00:00:00:0a")
	macB = packet.MustMAC("02:00:00:00:00:0b")
	ipA  = packet.MustIPv4("10.0.0.1")
	ipB  = packet.MustIPv4("203.0.113.9")
)

// TestFullStackFirewallWithHosts runs the firewall on a simulated network
// with protocol-aware hosts and link latency: a server host answers SYNs,
// the buggy firewall wrongfully drops some returns, and the monitor
// watching the switch catches exactly those.
func TestFullStackFirewallWithHosts(t *testing.T) {
	sched := sim.NewScheduler()
	n := netsim.New(sched)
	n.LinkLatency = time.Millisecond

	sw := n.AddSwitch("fw", 1)
	client := n.AddHost("client", macA, ipA, sw, 1)
	server := n.AddHost("server", macB, ipB, sw, 2)
	server.ServePorts[80] = true

	apps.NewFirewall(sw, 1, 2, 60*time.Second, apps.FirewallFaults{DropValidReturnEvery: 3})

	var viols []*core.Violation
	mon := core.NewMonitor(sched, core.Config{
		Provenance:  core.ProvFull,
		OnViolation: func(v *core.Violation) { viols = append(viols, v) },
	})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	sw.Observe(mon.HandleEvent)

	// The client opens several connections; the server's SYN|ACK returns
	// are the packets the buggy firewall drops.
	for i := 0; i < 9; i++ {
		client.Send(packet.NewTCP(macA, macB, ipA, ipB, uint16(30000+i), 80, packet.FlagSYN, nil))
		sched.RunFor(10 * time.Millisecond)
	}
	if len(viols) != 3 {
		t.Fatalf("violations = %d, want 3 (every 3rd of 9 returns dropped)", len(viols))
	}
	// Full provenance names both stages.
	if len(viols[0].History) != 2 {
		t.Fatalf("history = %+v", viols[0].History)
	}
	// The client still received the non-dropped SYN|ACKs.
	if client.ReceivedCount() != 6 {
		t.Fatalf("client received %d, want 6", client.ReceivedCount())
	}
}

// TestRecordReplayEquivalence records a violating scenario's event stream
// and replays it into a fresh monitor: identical violations, including
// timeout-driven ones.
func TestRecordReplayEquivalence(t *testing.T) {
	run := func(handle func(core.Event)) (*dataplane.Switch, *sim.Scheduler) {
		sched := sim.NewScheduler()
		sw := dataplane.New("s1", sched, 1)
		for i := 1; i <= 4; i++ {
			sw.AddPort(dataplane.PortNo(i), nil)
		}
		apps.NewARPProxy(sw, apps.ARPProxyFaults{NeverReply: true})
		if handle != nil {
			sw.Observe(handle)
		}
		return sw, sched
	}

	// Live pass: record events and count violations.
	rec := &trace.Recorder{}
	liveViols := 0
	liveMon := func() *core.Monitor {
		swLive, schedLive := run(nil)
		m := core.NewMonitor(schedLive, core.Config{OnViolation: func(*core.Violation) { liveViols++ }})
		if err := m.AddProperty(property.CatalogByName(property.DefaultParams(), "arp-proxy-reply")); err != nil {
			t.Fatal(err)
		}
		swLive.Observe(rec.Observe)
		swLive.Observe(m.HandleEvent)
		swLive.Inject(1, packet.NewARPReply(macA, ipA, macB, ipB)) // mapping
		swLive.Inject(2, packet.NewARPRequest(macB, ipB, ipA))     // request
		schedLive.RunFor(5 * time.Second)
		return m
	}()
	_ = liveMon
	if liveViols != 1 {
		t.Fatalf("live violations = %d, want 1", liveViols)
	}

	// Serialize the trace and read it back.
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, rec.Events); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Replay into a fresh monitor on a fresh clock.
	sched2 := sim.NewScheduler()
	replayViols := 0
	mon2 := core.NewMonitor(sched2, core.Config{OnViolation: func(*core.Violation) { replayViols++ }})
	if err := mon2.AddProperty(property.CatalogByName(property.DefaultParams(), "arp-proxy-reply")); err != nil {
		t.Fatal(err)
	}
	trace.Replay(sched2, events, mon2.HandleEvent)
	sched2.RunFor(5 * time.Second) // let the deadline fire
	if replayViols != liveViols {
		t.Fatalf("replay violations = %d, live = %d", replayViols, liveViols)
	}
}

// TestDSLPropertyEndToEnd loads a property from DSL text and runs it
// against a live scenario.
func TestDSLPropertyEndToEnd(t *testing.T) {
	src := `
property "no-drops-after-outbound" {
  description "once A talks to B, B's replies must not be dropped"
  on arrival "outgoing" {
    match in_port == 1
    bind $A = ip.src
    bind $B = ip.dst
  }
  on egress "return-dropped" {
    match ip.src == $B
    match ip.dst == $A
    match dropped == 1
  }
}
`
	prop, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	sw := dataplane.New("s1", sched, 1)
	sw.AddPort(1, nil)
	sw.AddPort(2, nil)
	apps.NewFirewall(sw, 1, 2, time.Minute, apps.FirewallFaults{DropValidReturnEvery: 1})
	viols := 0
	mon := core.NewMonitor(sched, core.Config{OnViolation: func(*core.Violation) { viols++ }})
	if err := mon.AddProperty(prop); err != nil {
		t.Fatal(err)
	}
	sw.Observe(mon.HandleEvent)
	sw.Inject(1, packet.NewTCP(macA, macB, ipA, ipB, 1000, 80, packet.FlagSYN, nil))
	sw.Inject(2, packet.NewTCP(macB, macA, ipB, ipA, 80, 1000, packet.FlagACK, nil))
	if viols != 1 {
		t.Fatalf("violations = %d, want 1", viols)
	}
}

// TestBackendsOnSharedStream subscribes every backend to one switch and
// checks the detection hierarchy: full-visibility backends catch the
// firewall violation, drop-blind ones do not.
func TestBackendsOnSharedStream(t *testing.T) {
	sched := sim.NewScheduler()
	sw := dataplane.New("s1", sched, 1)
	sw.AddPort(1, nil)
	sw.AddPort(2, nil)
	apps.NewFirewall(sw, 1, 2, time.Minute, apps.FirewallFaults{DropValidReturnEvery: 1})

	fw := property.CatalogByName(property.DefaultParams(), "firewall-basic")
	backends := backend.All(sched)
	defer backend.Close(backends)
	installed := map[string]bool{}
	for _, b := range backends {
		err := b.AddProperty(fw)
		installed[b.Name()] = err == nil
		if err == nil {
			bb := b
			sw.Observe(bb.HandleEvent)
		}
	}

	sw.Inject(1, packet.NewTCP(macA, macB, ipA, ipB, 1000, 80, packet.FlagSYN, nil))
	sw.Inject(2, packet.NewTCP(macB, macA, ipB, ipA, 80, 1000, packet.FlagACK, nil))

	want := map[string]uint64{
		"OpenFlow 1.3":                 0, // accepted at controller, blind to drops
		"OpenFlow 1.5":                 0, // egress tables, but drops never enter them
		"POF and P4":                   1,
		"Varanus":                      1,
		"Static Varanus":               1,
		"Sharded Varanus (multi-core)": 1,
		"Ideal (this paper)":           1,
	}
	for _, b := range backends {
		expect, checked := want[b.Name()]
		if !checked {
			// OpenState/FAST/SNAP reject the property outright.
			if installed[b.Name()] {
				t.Errorf("%s unexpectedly accepted firewall-basic", b.Name())
			}
			continue
		}
		if !installed[b.Name()] {
			t.Errorf("%s rejected firewall-basic", b.Name())
			continue
		}
		if got := b.Violations(); got != expect {
			t.Errorf("%s violations = %d, want %d", b.Name(), got, expect)
		}
	}
}

// TestSplitModeLagCausesMonitorError demonstrates Feature 9's trade-off
// end to end: with split processing and a bounded update queue, a burst
// overflows the queue and the monitor misses a violation the inline
// monitor catches.
func TestSplitModeLagCausesMonitorError(t *testing.T) {
	mkMon := func(sched *sim.Scheduler, mode core.Mode, limit int, count *int) *core.Monitor {
		m := core.NewMonitor(sched, core.Config{
			Mode: mode, SplitFlushLimit: limit,
			OnViolation: func(*core.Violation) { *count++ },
		})
		if err := m.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
			t.Fatal(err)
		}
		return m
	}
	sched := sim.NewScheduler()
	inlineViols, splitViols := 0, 0
	inline := mkMon(sched, core.Inline, 0, &inlineViols)
	split := mkMon(sched, core.Split, 16, &splitViols)

	feed := func(e core.Event) { inline.HandleEvent(e); split.HandleEvent(e) }
	// The critical outgoing packet, then a burst that overflows the split
	// queue before the flush, then the wrongful drop.
	out := packet.NewTCP(macA, macB, ipA, ipB, 1000, 80, packet.FlagSYN, nil)
	feed(core.Event{Kind: core.KindArrival, Time: sched.Now(), PacketID: 1, Packet: out, InPort: 1})
	for i := 0; i < 40; i++ {
		noise := packet.NewTCP(macA, macB, ipA, packet.IPv4FromUint32(0xc0000000+uint32(i)), uint16(2000+i), 80, packet.FlagACK, nil)
		feed(core.Event{Kind: core.KindArrival, Time: sched.Now(), PacketID: core.PacketID(100 + i), Packet: noise, InPort: 1})
	}
	ret := packet.NewTCP(macB, macA, ipB, ipA, 80, 1000, packet.FlagACK, nil)
	feed(core.Event{Kind: core.KindEgress, Time: sched.Now(), PacketID: 2, Packet: ret, InPort: 2, Dropped: true})
	split.Flush()

	if inlineViols != 1 {
		t.Fatalf("inline violations = %d, want 1", inlineViols)
	}
	if splitViols != 0 {
		t.Fatalf("split violations = %d, want 0 (overflow lost the opening event)", splitViols)
	}
	if split.Stats().DroppedEvents == 0 {
		t.Fatal("split monitor recorded no overflow drops")
	}
}

// TestWholeCatalogueFaultMatrix runs a compact fault matrix: for each
// (scenario, property) pair, the faulty run alerts and the correct run
// stays silent.
func TestWholeCatalogueFaultMatrix(t *testing.T) {
	type scenario struct {
		name  string
		props []string
		run   func(t *testing.T, faulty bool, mon *core.Monitor, sched *sim.Scheduler)
	}
	mkSwitch := func(sched *sim.Scheduler, ports int) *dataplane.Switch {
		sw := dataplane.New("s", sched, 2)
		for i := 1; i <= ports; i++ {
			sw.AddPort(dataplane.PortNo(i), nil)
		}
		return sw
	}
	scenarios := []scenario{
		{
			name:  "learning-switch",
			props: []string{"lswitch-unicast"},
			run: func(t *testing.T, faulty bool, mon *core.Monitor, sched *sim.Scheduler) {
				sw := mkSwitch(sched, 4)
				f := apps.LearningFaults{}
				if faulty {
					f.WrongPortEvery = 2
				}
				apps.NewLearningSwitch(sw, f)
				sw.Observe(mon.HandleEvent)
				ab := packet.NewTCP(macA, macB, ipA, ipB, 1, 2, 0, nil)
				ba := packet.NewTCP(macB, macA, ipB, ipA, 2, 1, 0, nil)
				for i := 0; i < 4; i++ {
					sw.Inject(1, ab)
					sw.Inject(2, ba)
				}
			},
		},
		{
			name:  "nat",
			props: []string{"nat-reverse"},
			run: func(t *testing.T, faulty bool, mon *core.Monitor, sched *sim.Scheduler) {
				sw := mkSwitch(sched, 2)
				f := apps.NATFaults{}
				if faulty {
					f.MistranslateReverseEvery = 1
				}
				apps.NewNAT(sw, 1, 2, packet.MustIPv4("198.51.100.1"), f)
				sw.Observe(mon.HandleEvent)
				sw.Inject(1, packet.NewTCP(macA, macB, ipA, ipB, 5000, 80, packet.FlagSYN, nil))
				sw.Inject(2, packet.NewTCP(macB, macA, ipB, packet.MustIPv4("198.51.100.1"), 80, 60001, packet.FlagACK, nil))
			},
		},
		{
			name:  "knocking",
			props: []string{"knock-intervening", "knock-valid-sequence"},
			run: func(t *testing.T, faulty bool, mon *core.Monitor, sched *sim.Scheduler) {
				sw := mkSwitch(sched, 4)
				f := apps.KnockFaults{}
				if faulty {
					f.IgnoreWrongGuess = true
				}
				apps.NewPortKnocking(sw, []uint16{7001, 7002, 7003}, 22, 2, f)
				sw.Observe(mon.HandleEvent)
				knock := func(port uint16) {
					sw.Inject(1, packet.NewUDP(macA, macB, ipA, ipB, 30000, port, nil))
				}
				knock(7001)
				knock(9999)
				knock(7002)
				knock(7003)
				sw.Inject(1, packet.NewTCP(macA, macB, ipA, ipB, 30001, 22, packet.FlagSYN, nil))
			},
		},
	}
	for _, sc := range scenarios {
		for _, faulty := range []bool{false, true} {
			name := fmt.Sprintf("%s/faulty=%v", sc.name, faulty)
			t.Run(name, func(t *testing.T) {
				sched := sim.NewScheduler()
				viols := 0
				mon := core.NewMonitor(sched, core.Config{OnViolation: func(*core.Violation) { viols++ }})
				for _, pn := range sc.props {
					if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), pn)); err != nil {
						t.Fatal(err)
					}
				}
				sc.run(t, faulty, mon, sched)
				sched.RunFor(10 * time.Second)
				if faulty && viols == 0 {
					t.Fatal("fault injected but no violation detected")
				}
				if !faulty && viols != 0 {
					t.Fatalf("no fault but %d violations (false positives)", viols)
				}
			})
		}
	}
}
