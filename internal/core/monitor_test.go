package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

var (
	macA = packet.MustMAC("02:00:00:00:00:0a")
	macB = packet.MustMAC("02:00:00:00:00:0b")
	ipA  = packet.MustIPv4("10.0.0.1")
	ipB  = packet.MustIPv4("203.0.113.9")
	ipC  = packet.MustIPv4("10.0.0.2")
)

// harness wires a monitor to a scheduler and collects violations.
type harness struct {
	t     *testing.T
	sched *sim.Scheduler
	mon   *Monitor
	viols []*Violation
	pid   PacketID
}

func newHarness(t *testing.T, cfg Config, props ...*property.Property) *harness {
	t.Helper()
	h := &harness{t: t, sched: sim.NewScheduler()}
	cfg.OnViolation = func(v *Violation) { h.viols = append(h.viols, v) }
	h.mon = NewMonitor(h.sched, cfg)
	for _, p := range props {
		if err := h.mon.AddProperty(p); err != nil {
			t.Fatalf("AddProperty(%s): %v", p.Name, err)
		}
	}
	return h
}

// mustParse parses one property written in the property language.
func mustParse(src string) *property.Property {
	p, err := property.Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// tooWide is a property that binds one variable more than a row holds.
func tooWide(name string) *property.Property {
	var binds strings.Builder
	for i := 0; i <= rowWords; i++ {
		fmt.Fprintf(&binds, "bind $V%d = ip.src\n", i)
	}
	return mustParse(fmt.Sprintf(`property %q {
  description "binds more variables than a row holds"
  on arrival "first" { %s }
  on egress "second" { match ip.dst == $V0 }
}`, name, binds.String()))
}

func (h *harness) nextPID() PacketID {
	h.pid++
	return h.pid
}

// arrival feeds an arrival event and returns its packet ID for pairing
// with egress events.
func (h *harness) arrival(p *packet.Packet, inPort uint64) PacketID {
	id := h.nextPID()
	h.mon.HandleEvent(Event{
		Kind: KindArrival, Time: h.sched.Now(), PacketID: id,
		Packet: p, InPort: inPort,
	})
	return id
}

func (h *harness) egress(id PacketID, p *packet.Packet, inPort, outPort uint64) {
	h.mon.HandleEvent(Event{
		Kind: KindEgress, Time: h.sched.Now(), PacketID: id,
		Packet: p, InPort: inPort, OutPort: outPort,
	})
}

func (h *harness) egressMulti(id PacketID, p *packet.Packet, inPort, outPort uint64) {
	h.mon.HandleEvent(Event{
		Kind: KindEgress, Time: h.sched.Now(), PacketID: id,
		Packet: p, InPort: inPort, OutPort: outPort, Multicast: true,
	})
}

func (h *harness) drop(id PacketID, p *packet.Packet, inPort uint64) {
	h.mon.HandleEvent(Event{
		Kind: KindEgress, Time: h.sched.Now(), PacketID: id,
		Packet: p, InPort: inPort, Dropped: true,
	})
}

func (h *harness) oob(kind packet.OOBKind, port uint64) {
	h.mon.HandleEvent(Event{Kind: KindOutOfBand, Time: h.sched.Now(), OOBKind: kind, OOBPort: port})
}

// forward models a packet traversing the switch: arrival then unicast
// egress.
func (h *harness) forward(p *packet.Packet, inPort, outPort uint64) {
	id := h.arrival(p, inPort)
	h.egress(id, p, inPort, outPort)
}

// forwardDropped models arrival followed by a drop decision.
func (h *harness) forwardDropped(p *packet.Packet, inPort uint64) {
	id := h.arrival(p, inPort)
	h.drop(id, p, inPort)
}

func (h *harness) advance(d time.Duration) { h.sched.RunFor(d) }

func (h *harness) wantViolations(n int) {
	h.t.Helper()
	if len(h.viols) != n {
		for _, v := range h.viols {
			h.t.Logf("  got: %s", v)
		}
		h.t.Fatalf("violations = %d, want %d", len(h.viols), n)
	}
}

func catalogProp(t *testing.T, name string) *property.Property {
	t.Helper()
	p := property.CatalogByName(property.DefaultParams(), name)
	if p == nil {
		t.Fatalf("no catalogue property %q", name)
	}
	return p
}

func tcpAB(flags packet.TCPFlags) *packet.Packet {
	return packet.NewTCP(macA, macB, ipA, ipB, 40000, 80, flags, nil)
}

func tcpBA(flags packet.TCPFlags) *packet.Packet {
	return packet.NewTCP(macB, macA, ipB, ipA, 80, 40000, flags, nil)
}

// --- Firewall: basic, timeout, obligation ---------------------------------

func TestFirewallBasicViolation(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvLimited}, catalogProp(t, "firewall-basic"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2) // A->B from internal port 1
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(1)
	v := h.viols[0]
	if v.Property != "firewall-basic" {
		t.Errorf("property = %q", v.Property)
	}
	if v.Binding("A") != packet.Num(ipA.Uint64()) || v.Binding("B") != packet.Num(ipB.Uint64()) {
		t.Errorf("bindings = %v", v.Bindings)
	}
}

func TestFirewallBasicNoViolationWhenForwarded(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forward(tcpBA(packet.FlagACK), 2, 1) // admitted
	h.wantViolations(0)
}

func TestFirewallNoViolationWithoutPriorOutgoing(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	// Unsolicited B->A drop: correct firewall behaviour, no violation.
	h.forwardDropped(tcpBA(packet.FlagSYN), 2)
	h.wantViolations(0)
}

func TestFirewallUnrelatedPairDoesNotMatch(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	// Return traffic for a *different* internal host dropped: not this
	// instance's violation.
	other := packet.NewTCP(macB, macA, ipB, ipC, 80, 40000, packet.FlagACK, nil)
	h.forwardDropped(other, 2)
	h.wantViolations(0)
}

func TestFirewallTimeoutExpiresObligation(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-timeout"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.advance(61 * time.Second) // beyond the 60s window
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(0)
	if h.mon.Stats().Expired != 1 {
		t.Errorf("expired = %d, want 1", h.mon.Stats().Expired)
	}
}

func TestFirewallTimeoutViolationInsideWindow(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-timeout"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.advance(30 * time.Second)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(1)
}

func TestFirewallTimerRefreshOnNewOutgoing(t *testing.T) {
	// Feature 3: each new A->B packet resets the pair's timer.
	h := newHarness(t, Config{}, catalogProp(t, "firewall-timeout"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.advance(50 * time.Second)
	h.forward(tcpAB(packet.FlagACK), 1, 2) // refresh at t=50s
	h.advance(50 * time.Second)            // t=100s: original deadline long past
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(1)
	st := h.mon.Stats()
	if st.Refreshed != 1 || st.Deduped != 1 {
		t.Errorf("refreshed=%d deduped=%d, want 1/1", st.Refreshed, st.Deduped)
	}
}

func TestFirewallUntilCloseDischarges(t *testing.T) {
	// Feature 4: a FIN from either side discharges the obligation.
	h := newHarness(t, Config{}, catalogProp(t, "firewall-until-close"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forward(tcpBA(packet.FlagACK|packet.FlagFIN), 2, 1) // close
	h.forwardDropped(tcpBA(packet.FlagACK), 2)            // drop after close: fine
	h.wantViolations(0)
	if h.mon.Stats().Discharged == 0 {
		t.Error("no discharge recorded")
	}
}

func TestFirewallUntilCloseStillViolatesBeforeClose(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-until-close"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(1)
}

func TestFirewallObligationIsPerPair(t *testing.T) {
	// The paper: "one pair may close its connection, but not another."
	h := newHarness(t, Config{}, catalogProp(t, "firewall-until-close"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2) // pair A,B
	c := packet.NewTCP(macA, macB, ipC, ipB, 40001, 80, packet.FlagSYN, nil)
	h.forward(c, 1, 2) // pair C,B
	// Close only A,B.
	h.forward(tcpAB(packet.FlagFIN|packet.FlagACK), 1, 2)
	// Drops on both return paths: only C,B violates.
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	cRet := packet.NewTCP(macB, macA, ipB, ipC, 80, 40001, packet.FlagACK, nil)
	h.forwardDropped(cRet, 2)
	h.wantViolations(1)
	if h.viols[0].Bindings != nil && h.viols[0].Binding("A") != packet.Num(ipC.Uint64()) {
		// Bindings nil because ProvNone; use trigger text instead.
		t.Logf("trigger: %s", h.viols[0].Trigger)
	}
}

// --- Negative observations (Feature 7) ------------------------------------

func arpMapping() *packet.Packet { return packet.NewARPReply(macA, ipA, macB, ipB) }

func TestARPProxyNegativeObservationFires(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvFull}, catalogProp(t, "arp-proxy-reply"))
	h.forward(arpMapping(), 3, 4) // teaches I=ipA, M=macA
	req := packet.NewARPRequest(macB, ipB, ipA)
	h.forward(req, 4, 3)
	h.advance(3 * time.Second) // ReplyWindow is 2s
	h.wantViolations(1)
	v := h.viols[0]
	if len(v.History) != 3 {
		t.Fatalf("history = %d records, want 3", len(v.History))
	}
	if v.History[2].Event != "timeout" {
		t.Errorf("final history record = %q, want timeout", v.History[2].Event)
	}
}

func TestARPProxyReplyInTimeDischarges(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "arp-proxy-reply"))
	h.forward(arpMapping(), 3, 4)
	req := packet.NewARPRequest(macB, ipB, ipA)
	h.forward(req, 4, 3)
	h.advance(time.Second)
	// Proxy answers: egress of an ARP reply for I.
	reply := packet.NewARPReply(macA, ipA, macB, ipB)
	h.forward(reply, 3, 4)
	h.advance(5 * time.Second)
	h.wantViolations(0)
}

func TestNegativeDeadlineDoesNotRefresh(t *testing.T) {
	// Feature 7 subtlety: a request every T-1 seconds must NOT reset the
	// reply deadline, or a never-answered request train escapes detection.
	h := newHarness(t, Config{}, catalogProp(t, "arp-proxy-reply"))
	h.forward(arpMapping(), 3, 4)
	req := packet.NewARPRequest(macB, ipB, ipA)
	h.forward(req, 4, 3) // deadline at t+2s
	h.advance(1500 * time.Millisecond)
	h.forward(req, 4, 3) // would-be refresh at t+1.5s
	h.advance(1 * time.Second)
	// t = 2.5s > 2s: the original deadline must have fired.
	h.wantViolations(1)
}

// --- Packet identity (Feature 5) -------------------------------------------

func natProp(t *testing.T) *property.Property { return catalogProp(t, "nat-reverse") }

func TestNATReverseViolation(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvLimited}, natProp(t))
	natIP := packet.MustIPv4("198.51.100.1")

	// (1) arrival A,P -> B,Q on internal port; (2) same packet egresses
	// translated to A',P'.
	out := packet.NewTCP(macA, macB, ipA, ipB, 5000, 80, packet.FlagSYN, nil)
	id := h.arrival(out, 1)
	outX := out.Clone()
	outX.IPv4.Src = natIP
	outX.TCP.SrcPort = 61000
	h.egress(id, outX, 1, 2)

	// (3) return packet B,Q -> A',P' arrives; (4) it egresses with the
	// wrong destination port (not A,P).
	ret := packet.NewTCP(macB, macA, ipB, natIP, 80, 61000, packet.FlagSYN|packet.FlagACK, nil)
	rid := h.arrival(ret, 2)
	retX := ret.Clone()
	retX.IPv4.Dst = ipA
	retX.TCP.DstPort = 5001 // wrong: original P was 5000
	h.egress(rid, retX, 2, 1)

	h.wantViolations(1)
	if h.viols[0].Binding("A2") != packet.Num(natIP.Uint64()) {
		t.Errorf("A2 binding = %v", h.viols[0].Binding("A2"))
	}
}

func TestNATReverseCorrectTranslationNoViolation(t *testing.T) {
	h := newHarness(t, Config{}, natProp(t))
	natIP := packet.MustIPv4("198.51.100.1")
	out := packet.NewTCP(macA, macB, ipA, ipB, 5000, 80, packet.FlagSYN, nil)
	id := h.arrival(out, 1)
	outX := out.Clone()
	outX.IPv4.Src = natIP
	outX.TCP.SrcPort = 61000
	h.egress(id, outX, 1, 2)
	ret := packet.NewTCP(macB, macA, ipB, natIP, 80, 61000, packet.FlagACK, nil)
	rid := h.arrival(ret, 2)
	retX := ret.Clone()
	retX.IPv4.Dst = ipA
	retX.TCP.DstPort = 5000 // correct reverse translation
	h.egress(rid, retX, 2, 1)
	h.wantViolations(0)
}

func TestNATIdentityRequiresSamePacket(t *testing.T) {
	h := newHarness(t, Config{}, natProp(t))
	natIP := packet.MustIPv4("198.51.100.1")
	out := packet.NewTCP(macA, macB, ipA, ipB, 5000, 80, packet.FlagSYN, nil)
	h.arrival(out, 1)
	// A *different* packet egresses looking like a translation; without
	// matching PacketID the instance must not advance.
	outX := out.Clone()
	outX.IPv4.Src = natIP
	outX.TCP.SrcPort = 61000
	h.egress(h.nextPID(), outX, 1, 2)
	if got := h.mon.ActiveInstances(); got != 1 {
		t.Fatalf("instances = %d, want 1 (stuck at stage 1)", got)
	}
	h.wantViolations(0)
}

// --- Multiple match & out-of-band (Sec 2.4) --------------------------------

func TestLinkDownMultipleMatch(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvLimited}, catalogProp(t, "lswitch-linkdown"))
	macC := packet.MustMAC("02:00:00:00:00:0c")
	// Learn two destinations on port 5.
	d1 := packet.NewTCP(macA, macB, ipA, ipB, 1, 2, 0, nil)
	d2 := packet.NewTCP(macB, macA, ipB, ipA, 2, 1, 0, nil)
	h.forward(d1, 5, 6) // learns macA@5
	h.forward(d2, 5, 6) // learns macB@5
	// One link-down must advance BOTH instances.
	h.oob(packet.OOBLinkDown, 5)
	// Unicast to both stale destinations from a third party (so the
	// probes do not themselves re-learn the destinations).
	toD1 := packet.NewTCP(macC, macA, ipB, ipA, 9, 9, 0, nil) // eth.dst = macA
	toD2 := packet.NewTCP(macC, macB, ipA, ipB, 9, 9, 0, nil) // eth.dst = macB
	h.forward(toD1, 6, 5)
	h.forward(toD2, 6, 5)
	h.wantViolations(2)
}

func TestLinkDownRelearnDischarges(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "lswitch-linkdown"))
	d1 := packet.NewTCP(macA, macB, ipA, ipB, 1, 2, 0, nil)
	h.forward(d1, 5, 6)
	h.oob(packet.OOBLinkDown, 5)
	// D re-learns (sends again) before any stale unicast: obligation
	// discharged... but note the re-learn also creates a NEW instance at
	// stage 1 ("learn" matches again). The stale-unicast stage instance
	// must be gone.
	h.forward(d1, 5, 6)
	macC := packet.MustMAC("02:00:00:00:00:0c")
	toD1 := packet.NewTCP(macC, macA, ipB, ipA, 9, 9, 0, nil)
	h.forward(toD1, 6, 5)
	h.wantViolations(0)
}

func TestOOBEventDoesNotMatchPacketStages(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	h.oob(packet.OOBLinkDown, 1)
	if h.mon.ActiveInstances() != 0 {
		t.Fatal("OOB event created a packet-property instance")
	}
}

// --- Negative match (Feature 6) --------------------------------------------

func TestLearningSwitchWrongPort(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "lswitch-unicast"))
	learn := packet.NewTCP(macA, macB, ipA, ipB, 1, 2, 0, nil)
	h.forward(learn, 5, 6) // D=macA learned at port 5
	// Later packet to D forwarded out the WRONG port.
	toD := packet.NewTCP(macB, macA, ipB, ipA, 2, 1, 0, nil)
	h.forward(toD, 6, 7) // should be 5
	h.wantViolations(1)
}

func TestLearningSwitchCorrectPortNoViolation(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "lswitch-unicast"))
	learn := packet.NewTCP(macA, macB, ipA, ipB, 1, 2, 0, nil)
	h.forward(learn, 5, 6)
	toD := packet.NewTCP(macB, macA, ipB, ipA, 2, 1, 0, nil)
	h.forward(toD, 6, 5) // correct port
	h.wantViolations(0)
}

func TestLearningSwitchBroadcastOfLearnedDst(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "lswitch-unicast"))
	learn := packet.NewTCP(macA, macB, ipA, ipB, 1, 2, 0, nil)
	h.forward(learn, 5, 6)
	// Broadcast: per-port egress events; the first wrong port completes
	// the instance (a violation consumes it, so one alert is raised per
	// learned destination, not one per wrong port).
	toD := packet.NewTCP(macB, macA, ipB, ipA, 2, 1, 0, nil)
	id := h.arrival(toD, 6)
	h.egressMulti(id, toD, 6, 5)
	h.egressMulti(id, toD, 6, 7)
	h.egressMulti(id, toD, 6, 8)
	h.wantViolations(1)
}

// --- Windows from variables -------------------------------------------------

func TestDHCPNoReuseWindowVar(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvLimited}, catalogProp(t, "dhcp-no-reuse"))
	leased := packet.MustIPv4("10.0.0.50")
	server := packet.MustIPv4("10.0.0.2")
	mkAck := func(client packet.MAC, lease uint32) *packet.Packet {
		return packet.NewDHCP(macB, client, server, leased, &packet.DHCPv4{
			Op: packet.DHCPBootReply, Xid: 1, MsgType: packet.DHCPAck,
			YourIP: leased, ClientMAC: client, ServerID: server, LeaseSecs: lease,
		})
	}
	h.forward(mkAck(macA, 100), 1, 2) // lease to macA for 100s
	h.advance(50 * time.Second)
	h.forward(mkAck(macB, 100), 1, 3) // re-lease to macB inside window
	h.wantViolations(1)
}

func TestDHCPNoReuseAfterExpiryOK(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "dhcp-no-reuse"))
	leased := packet.MustIPv4("10.0.0.50")
	server := packet.MustIPv4("10.0.0.2")
	mkAck := func(client packet.MAC, lease uint32) *packet.Packet {
		return packet.NewDHCP(macB, client, server, leased, &packet.DHCPv4{
			Op: packet.DHCPBootReply, Xid: 1, MsgType: packet.DHCPAck,
			YourIP: leased, ClientMAC: client, ServerID: server, LeaseSecs: lease,
		})
	}
	h.forward(mkAck(macA, 100), 1, 2)
	h.advance(101 * time.Second) // lease expired
	h.forward(mkAck(macB, 100), 1, 3)
	h.wantViolations(0)
}

func TestDHCPNoReuseReleaseDischarges(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "dhcp-no-reuse"))
	leased := packet.MustIPv4("10.0.0.50")
	server := packet.MustIPv4("10.0.0.2")
	ack := packet.NewDHCP(macB, macA, server, leased, &packet.DHCPv4{
		Op: packet.DHCPBootReply, Xid: 1, MsgType: packet.DHCPAck,
		YourIP: leased, ClientMAC: macA, ServerID: server, LeaseSecs: 100,
	})
	h.forward(ack, 1, 2)
	release := packet.NewDHCP(macA, macB, leased, server, &packet.DHCPv4{
		Op: packet.DHCPBootRequest, Xid: 2, MsgType: packet.DHCPRelease,
		ClientMAC: macA, ClientIP: leased,
	})
	h.forward(release, 2, 1)
	// Re-lease to another client after release: fine.
	ack2 := packet.NewDHCP(macB, macB, server, leased, &packet.DHCPv4{
		Op: packet.DHCPBootReply, Xid: 3, MsgType: packet.DHCPAck,
		YourIP: leased, ClientMAC: macB, ServerID: server, LeaseSecs: 100,
	})
	h.forward(ack2, 1, 3)
	h.wantViolations(0)
}

// --- Provenance (Feature 10) -------------------------------------------------

func TestProvenanceLevels(t *testing.T) {
	run := func(level ProvLevel) *Violation {
		h := newHarness(t, Config{Provenance: level}, catalogProp(t, "firewall-basic"))
		h.forward(tcpAB(packet.FlagSYN), 1, 2)
		h.forwardDropped(tcpBA(packet.FlagACK), 2)
		h.wantViolations(1)
		return h.viols[0]
	}
	vNone := run(ProvNone)
	if vNone.Bindings != nil || vNone.History != nil {
		t.Errorf("ProvNone carries extra data: %+v", vNone)
	}
	if vNone.Trigger == "" {
		t.Error("ProvNone lost the trigger")
	}
	vLim := run(ProvLimited)
	if len(vLim.Bindings) != 2 || vLim.History != nil {
		t.Errorf("ProvLimited = %+v", vLim)
	}
	vFull := run(ProvFull)
	if len(vFull.Bindings) != 2 || len(vFull.History) != 2 {
		t.Errorf("ProvFull = %+v", vFull)
	}
	if vFull.History[0].Label != "outgoing" || vFull.History[1].Label != "return-dropped" {
		t.Errorf("history labels = %v", vFull.History)
	}
}

// --- Side-effect control (Feature 9) ----------------------------------------

func TestSplitModeDefersDetection(t *testing.T) {
	h := newHarness(t, Config{Mode: Split}, catalogProp(t, "firewall-basic"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(0) // nothing applied yet
	if h.mon.PendingEvents() != 4 {
		t.Fatalf("pending = %d, want 4", h.mon.PendingEvents())
	}
	if n := h.mon.Flush(); n != 4 {
		t.Fatalf("Flush = %d", n)
	}
	h.wantViolations(1)
}

func TestSplitModeOverflowDropsEvents(t *testing.T) {
	h := newHarness(t, Config{Mode: Split, SplitFlushLimit: 8}, catalogProp(t, "firewall-basic"))
	for i := 0; i < 20; i++ {
		h.forward(tcpAB(packet.FlagSYN), 1, 2)
	}
	// 40 events against a limit-8 queue: the queue fills at event 8, and
	// every 4th event after that overflows, shedding a batch of
	// SplitFlushLimit/2 = 4 — 8 overflows, each counting its 4 events
	// individually in DroppedEvents.
	if got := h.mon.Stats().DroppedEvents; got != 32 {
		t.Fatalf("DroppedEvents = %d, want 32 (8 overflows x 4 events)", got)
	}
	if h.mon.PendingEvents() != 8 {
		t.Fatalf("pending = %d, want 8 (at the limit)", h.mon.PendingEvents())
	}
}

// --- Engine plumbing ---------------------------------------------------------

func TestAddPropertyRejectsInvalid(t *testing.T) {
	h := newHarness(t, Config{})
	bad := &property.Property{Name: "bad"}
	if err := h.mon.AddProperty(bad); err == nil {
		t.Fatal("AddProperty accepted an invalid property")
	}
}

func TestPropertiesList(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"), catalogProp(t, "nat-reverse"))
	names := h.mon.Properties()
	if len(names) != 2 || names[0] != "firewall-basic" || names[1] != "nat-reverse" {
		t.Fatalf("Properties = %v", names)
	}
}

func TestInstanceCleanupAfterViolation(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(1)
	if h.mon.ActiveInstances() != 0 {
		t.Fatalf("instances = %d after violation, want 0", h.mon.ActiveInstances())
	}
}

func TestSameEventCannotAdvanceTwice(t *testing.T) {
	// knock-intervening: the knock-1 packet itself must not count as the
	// "wrong guess" (its dst port != Knock2).
	h := newHarness(t, Config{}, catalogProp(t, "knock-intervening"))
	knock := func(port uint16) *packet.Packet {
		return packet.NewUDP(macA, macB, ipA, ipB, 30000, port, nil)
	}
	h.forward(knock(7001), 1, 2)
	// Instance must be waiting at stage 1 (wrong guess), not stage 2.
	h.forward(knock(7002), 1, 2) // knock2: matches "wrong-guess"? No: 7002 == Knock2.
	// The stage-1 pattern requires dst != 7002, so this packet skips it;
	// correct sequence continues undetected (good: no intervening guess).
	h.forward(knock(7003), 1, 2)
	// No wrong guess happened -> the property (which requires one) cannot
	// complete even if the door opens.
	door := packet.NewTCP(macA, macB, ipA, ipB, 30001, 22, packet.FlagSYN, nil)
	h.forward(door, 1, 2)
	h.wantViolations(0)
}

func TestKnockInterveningGuessDetected(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "knock-intervening"))
	knock := func(port uint16) *packet.Packet {
		return packet.NewUDP(macA, macB, ipA, ipB, 30000, port, nil)
	}
	h.forward(knock(7001), 1, 2)
	h.forward(knock(9999), 1, 2) // intervening wrong guess
	h.forward(knock(7002), 1, 2)
	h.forward(knock(7003), 1, 2)
	door := packet.NewTCP(macA, macB, ipA, ipB, 30001, 22, packet.FlagSYN, nil)
	h.forward(door, 1, 2) // buggy gate opened anyway
	h.wantViolations(1)
}

func TestStatsAccumulate(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	st := h.mon.Stats()
	if st.Events != 4 || st.Created != 1 || st.Violations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestModeAndProvStrings(t *testing.T) {
	if Inline.String() != "inline" || Split.String() != "split" {
		t.Error("Mode strings wrong")
	}
	if ProvNone.String() != "none" || ProvLimited.String() != "limited" || ProvFull.String() != "full" {
		t.Error("ProvLevel strings wrong")
	}
	for _, k := range []EventKind{KindArrival, KindEgress, KindOutOfBand} {
		if k.String() == "" {
			t.Error("EventKind string empty")
		}
	}
}

func TestViolationString(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvFull}, catalogProp(t, "firewall-basic"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(1)
	s := h.viols[0].String()
	for _, want := range []string{"VIOLATION firewall-basic", "$A=", "stage 0 (outgoing)"} {
		if !contains(s, want) {
			t.Errorf("Violation.String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestEventFieldExtraction(t *testing.T) {
	p := tcpAB(packet.FlagSYN)
	arr := Event{Kind: KindArrival, Packet: p, InPort: 3, PacketID: 1}
	if v, ok := arr.Field(packet.FieldInPort); !ok || v != packet.Num(3) {
		t.Errorf("in_port = %v, %v", v, ok)
	}
	if _, ok := arr.Field(packet.FieldOutPort); ok {
		t.Error("out_port present on arrival")
	}
	if _, ok := arr.Field(packet.FieldDropped); ok {
		t.Error("dropped present on arrival")
	}
	eg := Event{Kind: KindEgress, Packet: p, InPort: 3, OutPort: 7, PacketID: 1}
	if v, ok := eg.Field(packet.FieldOutPort); !ok || v != packet.Num(7) {
		t.Errorf("out_port = %v, %v", v, ok)
	}
	if v, ok := eg.Field(packet.FieldDropped); !ok || v != packet.Num(0) {
		t.Errorf("dropped = %v, %v", v, ok)
	}
	dr := Event{Kind: KindEgress, Packet: p, InPort: 3, Dropped: true, PacketID: 1}
	if _, ok := dr.Field(packet.FieldOutPort); ok {
		t.Error("out_port present on drop")
	}
	if v, _ := dr.Field(packet.FieldDropped); v != packet.Num(1) {
		t.Error("dropped != 1 on drop event")
	}
	ob := Event{Kind: KindOutOfBand, OOBKind: packet.OOBLinkDown, OOBPort: 4}
	if v, ok := ob.Field(packet.FieldOOBKind); !ok || v != packet.Num(uint64(packet.OOBLinkDown)) {
		t.Errorf("oob.kind = %v, %v", v, ok)
	}
	if _, ok := ob.Field(packet.FieldIPSrc); ok {
		t.Error("packet field present on OOB event")
	}
	// Event field on packet-less event must not panic.
	if _, ok := (&Event{Kind: KindArrival}).Field(packet.FieldIPSrc); ok {
		t.Error("field extracted from nil packet")
	}
}

func TestEventSummaries(t *testing.T) {
	p := tcpAB(packet.FlagSYN)
	events := []Event{
		{Kind: KindArrival, Packet: p, InPort: 1, PacketID: 9},
		{Kind: KindEgress, Packet: p, OutPort: 2, PacketID: 9},
		{Kind: KindEgress, Packet: p, Dropped: true, PacketID: 9},
		{Kind: KindOutOfBand, OOBKind: packet.OOBLinkUp, OOBPort: 3},
	}
	wants := []string{"arrival port=1", "egress port=2", "egress DROP", "oob link-up"}
	for i, e := range events {
		if s := e.Summary(); !contains(s, wants[i]) {
			t.Errorf("Summary %d = %q, want substring %q", i, s, wants[i])
		}
	}
}

func TestHashOperandSymmetry(t *testing.T) {
	spec := &property.HashSpec{
		Fields: []packet.Field{packet.FieldIPSrc, packet.FieldIPDst, packet.FieldSrcPort, packet.FieldDstPort},
		Mod:    4, Base: 10,
	}
	fwd := Event{Kind: KindArrival, Packet: tcpAB(0)}
	rev := Event{Kind: KindArrival, Packet: tcpBA(0)}
	hf, ok1 := hashOperand(spec, &fwd)
	hr, ok2 := hashOperand(spec, &rev)
	if !ok1 || !ok2 || hf != hr {
		t.Fatalf("hash not symmetric: %v/%v (%v/%v)", hf, hr, ok1, ok2)
	}
	if hf.Uint64() < 10 || hf.Uint64() >= 14 {
		t.Fatalf("hash %v outside base+mod range", hf)
	}
	// Missing fields make the operand unresolvable.
	arp := Event{Kind: KindArrival, Packet: packet.NewARPRequest(macA, ipA, ipB)}
	if _, ok := hashOperand(spec, &arp); ok {
		t.Fatal("hash resolved on ARP packet without L3/L4 fields")
	}
}

func TestWindowVarStringValueIgnored(t *testing.T) {
	// A WindowVar bound to a string value cannot form a deadline; the
	// stage then waits unbounded (documented behaviour).
	h := newHarness(t, Config{}, mustParse(`property "strwin" {
  on arrival "a" { bind $W = dns.qname }
  on arrival "b" within $W { match dns.qname == $W }
}`))
	q := packet.NewDNSQuery(macA, macB, ipA, ipB, 5353, 1, "x.test")
	h.forward(q, 1, 2)
	h.advance(time.Hour)
	if h.mon.ActiveInstances() == 0 {
		t.Fatal("instance expired despite unresolvable window")
	}
}

func TestManyPropertiesSimultaneously(t *testing.T) {
	// The whole catalogue installed at once; a firewall violation and an
	// ARP timeout must both be caught without cross-talk.
	var props []*property.Property
	for _, e := range property.Catalog(property.DefaultParams()) {
		props = append(props, e.Prop)
	}
	h := newHarness(t, Config{Provenance: ProvLimited}, props...)
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.forward(arpMapping(), 3, 4)
	h.forward(packet.NewARPRequest(macB, ipB, ipA), 4, 3)
	h.advance(3 * time.Second)
	byProp := map[string]int{}
	for _, v := range h.viols {
		byProp[v.Property]++
	}
	// firewall-basic, firewall-timeout and firewall-until-close all see
	// the drop; arp-proxy-reply times out. arp-unknown-forwarded is
	// discharged by the mapping arrival guard... (the request for ipA
	// arrived when a mapping already existed, but the property has no way
	// to know "known": its guard discharges on the mapping re-arrival or
	// proxy reply; here neither happened, so it may fire too.)
	for _, name := range []string{"firewall-basic", "firewall-timeout", "firewall-until-close", "arp-proxy-reply"} {
		if byProp[name] == 0 {
			t.Errorf("expected violation for %s, got %v", name, byProp)
		}
	}
}

func BenchmarkInlineFirewallEvent(b *testing.B) {
	sched := sim.NewScheduler()
	mon := NewMonitor(sched, Config{})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-timeout")); err != nil {
		b.Fatal(err)
	}
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		ip := packet.IPv4FromUint32(0x0a000000 | uint32(i))
		pkts[i] = packet.NewTCP(macA, macB, ip, ipB, uint16(1000+i), 80, packet.FlagSYN, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		mon.HandleEvent(Event{Kind: KindArrival, PacketID: PacketID(i + 1), Packet: p, InPort: 1})
	}
	_ = fmt.Sprintf("%d", mon.ActiveInstances())
}
