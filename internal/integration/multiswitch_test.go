package integration

import (
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/dataplane"
	"switchmon/internal/netsim"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// The multi-switch collector scenario: one monitor observes two switches
// (NetSight-style aggregation), with a path property scoped per switch via
// the switch.id field — "a flow admitted at the edge (s1) must leave the
// core (s2) within 100ms; a core drop or blackhole is a violation". The
// paper scopes itself to single-switch monitoring; this extension shows
// the same engine covering network-wide properties once events carry
// switch identity.
const pathProperty = `
property "edge-to-core-delivery" {
  description "traffic admitted at the edge switch leaves the core switch within 100ms"

  on egress "edge-forwarded" {
    match switch.id == 1
    match dropped == 0
    match ip.proto == 6
    bind $A = ip.src
    bind $B = ip.dst
    bind $SP = l4.src_port
  }

  unless egress "core-silent" within 100ms {
    match switch.id == 2
    match ip.src == $A
    match ip.dst == $B
    match l4.src_port == $SP
    match dropped == 0
  }
}
`

// buildPath wires client -> s1 -> s2 -> server with flood forwarding.
func buildPath(t *testing.T, coreDrops bool) (*netsim.Network, *netsim.Host, *core.Monitor, *int) {
	t.Helper()
	sched := sim.NewScheduler()
	n := netsim.New(sched)
	n.LinkLatency = time.Millisecond

	s1 := n.AddSwitch("edge", 1)
	s2 := n.AddSwitch("core", 1)
	s1.SetMissPolicy(dataplane.MissFlood)
	if coreDrops {
		// Blackhole: the core switch drops everything (explicit rule, so
		// the drop is an observable decision).
		s2.Table(0).Add(&dataplane.Rule{Priority: 1, Actions: []dataplane.Action{dataplane.Drop()}})
	} else {
		s2.SetMissPolicy(dataplane.MissFlood)
	}

	client := n.AddHost("client", macA, ipA, s1, 1)
	server := n.AddHost("server", macB, ipB, s2, 1)
	server.Quiet = true
	n.ConnectSwitches(s1, 2, s2, 2)

	prop, err := property.Parse(pathProperty)
	if err != nil {
		t.Fatal(err)
	}
	viols := 0
	mon := core.NewMonitor(sched, core.Config{
		Provenance:  core.ProvFull,
		OnViolation: func(v *core.Violation) { viols++ },
	})
	if err := mon.AddProperty(prop); err != nil {
		t.Fatal(err)
	}
	// The collector observes BOTH switches.
	s1.Observe(mon.HandleEvent)
	s2.Observe(mon.HandleEvent)
	return n, client, mon, &viols
}

func TestMultiSwitchPathDelivery(t *testing.T) {
	n, client, _, viols := buildPath(t, false)
	client.Send(packet.NewTCP(macA, macB, ipA, ipB, 30000, 80, packet.FlagSYN, nil))
	n.Scheduler().RunFor(time.Second)
	if *viols != 0 {
		t.Fatalf("violations = %d, want 0 (packet crossed both switches)", *viols)
	}
	if n.HostByName("server").ReceivedCount() != 1 {
		t.Fatal("server did not receive the packet")
	}
}

func TestMultiSwitchCoreBlackholeDetected(t *testing.T) {
	n, client, _, viols := buildPath(t, true)
	client.Send(packet.NewTCP(macA, macB, ipA, ipB, 30000, 80, packet.FlagSYN, nil))
	n.Scheduler().RunFor(time.Second)
	if *viols != 1 {
		t.Fatalf("violations = %d, want 1 (core blackholed the flow)", *viols)
	}
}

func TestSwitchIDScoping(t *testing.T) {
	// An edge drop (before stage 0 matches) must NOT start an instance:
	// the property is scoped to switch.id==1 *forwarded* traffic.
	n, client, mon, viols := buildPath(t, false)
	// Kill the edge uplink so the edge floods nowhere -> implicit drop.
	n.Switch("edge").SetPortUp(2, false)
	client.Send(packet.NewTCP(macA, macB, ipA, ipB, 30001, 80, packet.FlagSYN, nil))
	n.Scheduler().RunFor(time.Second)
	if *viols != 0 {
		t.Fatalf("violations = %d, want 0", *viols)
	}
	if mon.ActiveInstances() != 0 {
		t.Fatalf("instances = %d, want 0 (edge drop must not arm the property)", mon.ActiveInstances())
	}
}

func TestNetsimAssignsDPIDs(t *testing.T) {
	sched := sim.NewScheduler()
	n := netsim.New(sched)
	a := n.AddSwitch("a", 1)
	b := n.AddSwitch("b", 1)
	if a.DPID() != 1 || b.DPID() != 2 {
		t.Fatalf("dpids = %d, %d", a.DPID(), b.DPID())
	}
}
