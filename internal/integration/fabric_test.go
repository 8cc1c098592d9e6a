package integration

import (
	"sort"
	"sync"
	"testing"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/dataplane"
	"switchmon/internal/dsl"
	"switchmon/internal/exporter"
	"switchmon/internal/fault"
	"switchmon/internal/netsim"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// The distributed-fabric E2E: two netsim switches export their event
// streams over real TCP to a central collector feeding a sharded
// engine, and the verdicts must be byte-identical to an inline engine
// observing the same switches directly — the fabric may add transport,
// but never change semantics. The property is a wandering-match (F8)
// one: the MAC bound from a DHCP lease (dhcp.client_mac, L7) is later
// matched against Ethernet destinations (eth.dst, L2), so instance
// lookup crosses protocol groups.
const leasedMACProperty = `
property "leased-mac-reachable" {
  description "core traffic addressed to a DHCP-leased MAC must not be blackholed"

  on egress "leased" {
    match switch.id == 1
    match dhcp.msg_type == 5
    match dropped == 0
    bind $M = dhcp.client_mac
  }

  on egress "blackholed" within 1s {
    match switch.id == 2
    match eth.dst == $M
    match dropped == 1
  }
}
`

var (
	macC  = packet.MustMAC("02:00:00:00:00:0c")
	macD  = packet.MustMAC("02:00:00:00:00:0d") // never leased: its blackholing is fine
	bcast = packet.MustMAC("ff:ff:ff:ff:ff:ff")
)

func parseLeasedMAC(t *testing.T) *property.Property {
	t.Helper()
	prop, err := dsl.Parse(leasedMACProperty)
	if err != nil {
		t.Fatal(err)
	}
	if id := property.Analyze(prop).InstanceID; id != property.IDWandering {
		t.Fatalf("instance id = %s, want wandering (the test exists to cover F8 over the fabric)", id)
	}
	return prop
}

// buildFabricPath wires client -> s1 (edge, floods) -> s2 (core,
// blackholes everything) and returns the network. Broadcast DHCP ACKs
// forwarded by the edge arm the property; the core dropping later
// unicast traffic addressed to the leased MACs completes it.
func buildFabricPath(t *testing.T) *netsim.Network {
	t.Helper()
	sched := sim.NewScheduler()
	n := netsim.New(sched)
	n.LinkLatency = time.Millisecond

	s1 := n.AddSwitch("edge", 1)
	s2 := n.AddSwitch("core", 1)
	s1.SetMissPolicy(dataplane.MissFlood)
	s2.Table(0).Add(&dataplane.Rule{Priority: 1, Actions: []dataplane.Action{dataplane.Drop()}})

	n.AddHost("client", macA, ipA, s1, 1)
	server := n.AddHost("server", macB, ipB, s2, 1)
	server.Quiet = true
	n.ConnectSwitches(s1, 2, s2, 2)
	return n
}

// dhcpAck builds a broadcast DHCP ACK leasing to clientMAC. Broadcast
// matters: the core blackholes these frames too, and eth.dst must not
// equal the leased MAC there or the lease frame would be its own
// violation trigger — arming and triggering would then ride different
// exporter connections with no cross-stream ordering to separate them.
func dhcpAck(clientMAC packet.MAC) *packet.Packet {
	return packet.NewDHCP(macA, bcast, ipA, ipB, &packet.DHCPv4{
		Op: packet.DHCPBootReply, Xid: 99, MsgType: packet.DHCPAck,
		YourIP: ipB, ClientMAC: clientMAC, LeaseSecs: 3600,
	})
}

// driveFabricTraffic produces a deterministic workload in two causal
// phases: leases for macB and macC arm the property, then unicast TCP
// to macB, macC (leased -> two violations) and macD (never leased -> no
// instance, no violation) hits the core blackhole. sync runs between
// the phases; the fabric uses it as a barrier so the arming events are
// applied at the collector before the triggers enter the race between
// the two exporter connections — the fabric orders events per switch,
// not across switches, so causality between switches must come from
// time, as it does here (phases are epochs, like real config changes).
func driveFabricTraffic(n *netsim.Network, sync func()) {
	client := n.HostByName("client")
	client.Send(dhcpAck(macB))
	client.Send(dhcpAck(macC))
	n.Scheduler().RunFor(50 * time.Millisecond)
	sync()
	client.Send(packet.NewTCP(macA, macB, ipA, ipB, 30000, 80, packet.FlagACK, nil))
	client.Send(packet.NewTCP(macA, macC, ipA, ipB, 30001, 80, packet.FlagACK, nil))
	client.Send(packet.NewTCP(macA, macD, ipA, ipB, 30002, 80, packet.FlagACK, nil))
	n.Scheduler().RunFor(50 * time.Millisecond)
}

// violationRecorder collects violation reports from any engine
// (shard goroutines included) as sorted strings for comparison.
type violationRecorder struct {
	mu   sync.Mutex
	strs []string
}

func (r *violationRecorder) record(v *core.Violation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.strs = append(r.strs, v.String())
}

func (r *violationRecorder) sorted() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.strs...)
	sort.Strings(out)
	return out
}

// runInline is the reference: a single-threaded core.Monitor observing
// both switches directly.
func runInline(t *testing.T) []string {
	t.Helper()
	n := buildFabricPath(t)
	rec := &violationRecorder{}
	// Full state accounting — sketch on every filing, watermark low
	// enough to trip — so the differential also pins that the state
	// observatory never perturbs verdicts.
	mon := core.NewMonitor(n.Scheduler(), core.Config{
		Provenance: core.ProvLimited, OnViolation: rec.record,
		StateTopK: 16, StateSample: 1, StateWatermark: 1,
	})
	if err := mon.AddProperty(parseLeasedMAC(t)); err != nil {
		t.Fatal(err)
	}
	n.Switch("edge").Observe(mon.HandleEvent)
	n.Switch("core").Observe(mon.HandleEvent)
	driveFabricTraffic(n, func() {}) // inline applies in sim order; no barrier needed
	return rec.sorted()
}

// fabricRig is the system under test: per-switch exporters over real
// TCP into one collector feeding a sharded engine.
type fabricRig struct {
	n    *netsim.Network
	sm   *core.ShardedMonitor
	col  *collector.Collector
	exps [2]*exporter.Exporter
	rec  *violationRecorder
}

func newFabricRig(t *testing.T, batchSize int) *fabricRig {
	t.Helper()
	rig := &fabricRig{n: buildFabricPath(t), rec: &violationRecorder{}}
	// Mirror runInline's state-accounting settings: the differential is
	// only meaningful when both sides run the same observability load.
	rig.sm = core.NewShardedMonitor(4, core.Config{
		Provenance: core.ProvLimited, OnViolation: rig.rec.record,
		StateTopK: 16, StateSample: 1, StateWatermark: 1,
	})
	if err := rig.sm.AddProperty(parseLeasedMAC(t)); err != nil {
		t.Fatal(err)
	}
	col, err := collector.New(collector.Config{Addr: "127.0.0.1:0"}, rig.sm)
	if err != nil {
		t.Fatal(err)
	}
	col.Serve()
	rig.col = col
	for i, dpid := range []uint64{1, 2} {
		x, err := exporter.New(exporter.Config{
			Addr: col.Addr().String(), DPID: dpid, BatchSizeMax: batchSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		x.Start()
		rig.exps[i] = x
	}
	return rig
}

// sync flushes the exporters and waits until the collector has applied
// every event published so far, then drains the engine — the barrier
// that gives cross-switch causality to a fabric that only orders events
// within each switch's stream.
func (rig *fabricRig) sync(t *testing.T) {
	t.Helper()
	var published uint64
	for _, x := range rig.exps {
		x.Flush()
		published += x.Stats().Published
	}
	deadline := time.Now().Add(3 * time.Second)
	for rig.col.Stats().Events < published {
		if time.Now().After(deadline) {
			t.Fatalf("collector applied %d of %d events", rig.col.Stats().Events, published)
		}
		time.Sleep(2 * time.Millisecond)
	}
	rig.sm.Barrier()
}

// settle drains the exporters completely and closes them, then waits
// for the collector to catch up.
func (rig *fabricRig) settle(t *testing.T) {
	t.Helper()
	for _, x := range rig.exps {
		x.Flush()
		if abandoned := x.Close(3 * time.Second); abandoned != 0 {
			t.Fatalf("exporter abandoned %d events", abandoned)
		}
	}
	rig.sync(t)
}

func (rig *fabricRig) close() {
	rig.col.Close()
	rig.sm.Close()
}

func TestFabricDifferentialAgainstInline(t *testing.T) {
	want := runInline(t)
	if len(want) != 2 {
		t.Fatalf("inline reference found %d violations, want 2:\n%v", len(want), want)
	}

	for _, batch := range []int{1, 8} {
		rig := newFabricRig(t, batch)
		s1, s2 := rig.n.Switch("edge"), rig.n.Switch("core")
		s1.Observe(rig.exps[0].Publish)
		s2.Observe(rig.exps[1].Publish)
		driveFabricTraffic(rig.n, func() { rig.sync(t) })
		rig.settle(t)

		got := rig.rec.sorted()
		if len(got) != len(want) {
			t.Fatalf("batch=%d: fabric found %d violations, inline %d:\nfabric: %v\ninline: %v",
				batch, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: verdict %d differs over a lossless link\nfabric: %s\ninline: %s",
					batch, i, got[i], want[i])
			}
		}
		if !rig.sm.Ledger().Sound() {
			t.Fatalf("batch=%d: lossless fabric run left unsound ledger: %+v", batch, rig.sm.Ledger().Snapshot())
		}
		for i, x := range rig.exps {
			if !x.Ledger().Sound() {
				t.Fatalf("batch=%d: exporter %d ledger unsound: %+v", batch, i, x.Ledger().Snapshot())
			}
		}
		rig.close()
	}
}

func TestFabricInjectedLossMarksWireLoss(t *testing.T) {
	rig := newFabricRig(t, 1)
	defer rig.close()

	// fault.Wrap on the core switch's exporter link: half its events
	// vanish in flight; OnDrop -> NoteLoss turns each into a sequence
	// gap the collector must notice.
	spec, err := fault.ParseSpec("drop=0.5,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(spec)
	inj.OnDrop = func(core.Event) { rig.exps[1].NoteLoss(1) }
	rig.n.Switch("edge").Observe(rig.exps[0].Publish)
	rig.n.Switch("core").Observe(inj.Wrap(rig.exps[1].Publish))
	driveFabricTraffic(rig.n, func() { rig.sync(t) })
	if inj.Stats().Dropped == 0 {
		t.Fatal("injector dropped nothing; the scenario no longer exercises wire loss")
	}
	rig.settle(t)

	marks := rig.sm.Ledger().Snapshot()
	if len(marks) != 1 {
		t.Fatalf("marks = %+v, want exactly the one installed property", marks)
	}
	m := marks[0]
	if m.Property != "leased-mac-reachable" || m.Reason != core.UnsoundWireLoss {
		t.Fatalf("mark = %+v, want leased-mac-reachable / wire-loss", m)
	}
	if rig.col.Stats().GapEvents != inj.Stats().Dropped {
		t.Fatalf("collector gap events = %d, injector dropped = %d",
			rig.col.Stats().GapEvents, inj.Stats().Dropped)
	}
	// The exporter's own ledger tells the same story from its side.
	if rig.exps[1].Ledger().Sound() {
		t.Fatal("exporter ledger claims soundness despite NoteLoss")
	}
	if rig.exps[0].Ledger().Sound() != true {
		t.Fatal("lossless exporter's ledger got marked")
	}
}
