package dataplane

import (
	"bytes"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
	"switchmon/internal/sim"
)

var (
	macA = packet.MustMAC("02:00:00:00:00:0a")
	macB = packet.MustMAC("02:00:00:00:00:0b")
	ipA  = packet.MustIPv4("10.0.0.1")
	ipB  = packet.MustIPv4("10.0.0.2")
)

// testSwitch builds a switch with n ports whose deliveries are recorded.
func testSwitch(t *testing.T, nPorts, nTables int) (*Switch, *sim.Scheduler, map[PortNo][]*packet.Packet) {
	t.Helper()
	sched := sim.NewScheduler()
	sw := New("s1", sched, nTables)
	delivered := map[PortNo][]*packet.Packet{}
	for i := 1; i <= nPorts; i++ {
		no := PortNo(i)
		sw.AddPort(no, func(p *packet.Packet) { delivered[no] = append(delivered[no], p) })
	}
	return sw, sched, delivered
}

func tcpPkt() *packet.Packet {
	return packet.NewTCP(macA, macB, ipA, ipB, 1000, 80, packet.FlagSYN, nil)
}

func TestExactMatchForwarding(t *testing.T) {
	sw, _, delivered := testSwitch(t, 3, 1)
	sw.Table(0).Add(&Rule{
		Priority: 10,
		Match:    MatchOn(FM(packet.FieldIPDst, ipB.Uint64())),
		Actions:  []Action{Output(2)},
	})
	sw.Inject(1, tcpPkt())
	if len(delivered[2]) != 1 || len(delivered[3]) != 0 {
		t.Fatalf("delivered = %v", delivered)
	}
	st := sw.Stats()
	if st.PacketsIn != 1 || st.PacketsOut != 1 || st.PacketsDrop != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPriorityOrderFirstMatchWins(t *testing.T) {
	sw, _, delivered := testSwitch(t, 3, 1)
	sw.Table(0).Add(&Rule{Priority: 1, Actions: []Action{Output(3)}})
	sw.Table(0).Add(&Rule{Priority: 100, Actions: []Action{Output(2)}})
	sw.Inject(1, tcpPkt())
	if len(delivered[2]) != 1 || len(delivered[3]) != 0 {
		t.Fatalf("priority not respected: %v", delivered)
	}
}

func TestMissPolicyDrop(t *testing.T) {
	sw, _, delivered := testSwitch(t, 2, 1)
	var drops int
	sw.Observe(func(e core.Event) {
		if e.Kind == core.KindEgress && e.Dropped {
			drops++
		}
	})
	sw.Inject(1, tcpPkt())
	if len(delivered[2]) != 0 || drops != 1 {
		t.Fatalf("delivered=%v drops=%d", delivered, drops)
	}
	if sw.Stats().PacketsDrop != 1 {
		t.Fatalf("stats = %+v", sw.Stats())
	}
}

func TestMissPolicyFlood(t *testing.T) {
	sw, _, delivered := testSwitch(t, 4, 1)
	sw.SetMissPolicy(MissFlood)
	var multi int
	sw.Observe(func(e core.Event) {
		if e.Kind == core.KindEgress && e.Multicast {
			multi++
		}
	})
	sw.Inject(1, tcpPkt())
	if len(delivered[1]) != 0 || len(delivered[2]) != 1 || len(delivered[3]) != 1 || len(delivered[4]) != 1 {
		t.Fatalf("flood delivered = %v", delivered)
	}
	if multi != 3 {
		t.Fatalf("multicast egress events = %d, want 3", multi)
	}
}

func TestExplicitDropAction(t *testing.T) {
	sw, _, delivered := testSwitch(t, 2, 1)
	sw.Table(0).Add(&Rule{Priority: 5, Actions: []Action{Drop()}})
	sw.Inject(1, tcpPkt())
	if len(delivered[2]) != 0 || sw.Stats().PacketsDrop != 1 {
		t.Fatal("explicit drop failed")
	}
}

func TestGotoChainsTables(t *testing.T) {
	sw, _, delivered := testSwitch(t, 2, 3)
	sw.Table(0).Add(&Rule{Priority: 1, Actions: []Action{Goto(1)}})
	sw.Table(1).Add(&Rule{Priority: 1, Actions: []Action{Goto(2)}})
	sw.Table(2).Add(&Rule{Priority: 1, Actions: []Action{Output(2)}})
	sw.Inject(1, tcpPkt())
	if len(delivered[2]) != 1 {
		t.Fatal("goto chain did not forward")
	}
}

func TestSetFieldRewrites(t *testing.T) {
	sw, _, delivered := testSwitch(t, 2, 1)
	nat := packet.MustIPv4("198.51.100.1")
	sw.Table(0).Add(&Rule{
		Priority: 1,
		Actions: []Action{
			SetField(packet.FieldIPSrc, packet.Num(nat.Uint64())),
			SetField(packet.FieldSrcPort, packet.Num(61000)),
			Output(2),
		},
	})
	orig := tcpPkt()
	sw.Inject(1, orig)
	got := delivered[2][0]
	if got.IPv4.Src != nat || got.TCP.SrcPort != 61000 {
		t.Fatalf("rewrite failed: %s", got.Summary())
	}
	if orig.IPv4.Src != ipA {
		t.Fatal("original packet mutated")
	}
}

func TestEgressEventCarriesRewrittenPacket(t *testing.T) {
	// The NAT property depends on the egress observation seeing the
	// translated header while sharing the arrival's PacketID.
	sw, _, _ := testSwitch(t, 2, 1)
	nat := packet.MustIPv4("198.51.100.1")
	sw.Table(0).Add(&Rule{
		Priority: 1,
		Actions:  []Action{SetField(packet.FieldIPSrc, packet.Num(nat.Uint64())), Output(2)},
	})
	var arrival, egress core.Event
	sw.Observe(func(e core.Event) {
		switch e.Kind {
		case core.KindArrival:
			arrival = e
		case core.KindEgress:
			egress = e
		}
	})
	sw.Inject(1, tcpPkt())
	if arrival.PacketID != egress.PacketID {
		t.Fatal("packet identity broken across pipeline")
	}
	if arrival.Packet.IPv4.Src != ipA || egress.Packet.IPv4.Src != nat {
		t.Fatal("events do not show pre/post rewrite views")
	}
}

// TestInjectCopiesOnlyOnRewrite pins the ingress pipeline's copy on write:
// Inject never modifies the packet it is given, shares it with every event
// and delivery unless a rule rewrites it, and never modifies a packet it
// handed to the controller — a SetField after a packet-in writes a copy.
func TestInjectCopiesOnlyOnRewrite(t *testing.T) {
	nat := packet.MustIPv4("198.51.100.1")
	rewrite := SetField(packet.FieldIPSrc, packet.Num(nat.Uint64()))
	run := func(t *testing.T, actions ...Action) (orig *packet.Packet, arrival, egress core.Event, delivered *packet.Packet) {
		t.Helper()
		sw, _, out := testSwitch(t, 2, 1)
		sw.Table(0).Add(&Rule{Priority: 1, Actions: actions})
		sw.Observe(func(e core.Event) {
			if e.Kind == core.KindArrival {
				arrival = e
			} else {
				egress = e
			}
		})
		orig = tcpPkt()
		before := frameOf(t, orig)
		sw.Inject(1, orig)
		if len(out[2]) != 1 {
			t.Fatalf("delivered %d packets on port 2, want 1", len(out[2]))
		}
		if !bytes.Equal(frameOf(t, orig), before) {
			t.Fatal("Inject modified the injected packet")
		}
		return orig, arrival, egress, out[2][0]
	}

	t.Run("no rewrite", func(t *testing.T) {
		orig, arrival, egress, delivered := run(t, Output(2))
		if arrival.Packet != orig || egress.Packet != orig || delivered != orig {
			t.Fatal("a packet no rule rewrites was copied")
		}
	})
	t.Run("SetField", func(t *testing.T) {
		orig, _, egress, delivered := run(t, rewrite, Output(2))
		if egress.Packet == orig || egress.Packet.IPv4.Src != nat || delivered != egress.Packet {
			t.Fatalf("egress %s does not show the rewrite on a copy", egress.Packet.Summary())
		}
	})
	punt := func(t *testing.T, actions ...Action) (punted, delivered *packet.Packet) {
		t.Helper()
		sw, _, out := testSwitch(t, 2, 1)
		sw.SetController(controllerFunc(func(_ *Switch, _ PortNo, _ core.PacketID, p *packet.Packet) { punted = p }), MissDrop)
		sw.Table(0).Add(&Rule{Priority: 1, Actions: actions})
		sw.Inject(1, tcpPkt())
		if punted == nil || len(out[2]) != 1 {
			t.Fatalf("punted %v, delivered %v; want one of each", punted, out[2])
		}
		return punted, out[2][0]
	}
	t.Run("Controller then SetField", func(t *testing.T) {
		punted, delivered := punt(t, ToController(), rewrite, Output(2))
		if !bytes.Equal(frameOf(t, punted), frameOf(t, tcpPkt())) {
			t.Fatal("the rewrite after the packet-in modified the controller's packet")
		}
		if delivered.IPv4.Src != nat {
			t.Fatalf("delivered %s, want the rewrite", delivered.Summary())
		}
	})
	t.Run("SetField, Controller, SetField", func(t *testing.T) {
		punted, delivered := punt(t, rewrite, ToController(), SetField(packet.FieldSrcPort, packet.Num(61000)), Output(2))
		if punted.IPv4.Src != nat || punted.TCP.SrcPort != 1000 {
			t.Fatalf("controller holds %s, want the first rewrite only", punted.Summary())
		}
		if delivered.IPv4.Src != nat || delivered.TCP.SrcPort != 61000 {
			t.Fatalf("delivered %s, want both rewrites", delivered.Summary())
		}
	})
}

// frameOf encodes p, failing the test on error.
func frameOf(t *testing.T, p *packet.Packet) []byte {
	t.Helper()
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLearnActionInstallsRule(t *testing.T) {
	// The MAC-learning idiom: learn a reverse rule matching eth.dst
	// against the current source, outputting on the ingress port.
	sw, _, delivered := testSwitch(t, 3, 2)
	sw.Table(0).Add(&Rule{
		Priority: 1,
		Actions: []Action{
			LearnAction(&LearnSpec{
				Table:    1,
				Priority: 10,
				Matches: []LearnMatch{
					{DstField: packet.FieldEthDst, FromField: packet.FieldEthSrc},
				},
				OutputFromInPort: true,
			}),
			Flood(),
		},
	})
	sw.Inject(1, tcpPkt()) // learns macA@1 into table 1
	if sw.Table(1).Len() != 1 {
		t.Fatalf("table 1 has %d rules, want 1", sw.Table(1).Len())
	}
	r := sw.Table(1).Rules()[0]
	want := FieldMatch{Field: packet.FieldEthDst, Value: packet.Num(macA.Uint64())}
	if len(r.Match.Fields) != 1 || r.Match.Fields[0] != want {
		t.Fatalf("learned match = %v", r.Match)
	}
	if len(r.Actions) != 1 || r.Actions[0].Kind != ActOutput || r.Actions[0].Port != 1 {
		t.Fatalf("learned actions = %v", r.Actions)
	}
	_ = delivered
}

func TestRuleHardTimeout(t *testing.T) {
	sw, sched, _ := testSwitch(t, 2, 1)
	sw.Table(0).Add(&Rule{Priority: 1, HardTimeout: 5 * time.Second, Actions: []Action{Output(2)}})
	sched.RunFor(6 * time.Second)
	if sw.Table(0).Len() != 0 {
		t.Fatal("hard timeout did not expire rule")
	}
	if sw.Stats().RuleExpiries != 1 {
		t.Fatalf("stats = %+v", sw.Stats())
	}
}

func TestRuleIdleTimeoutRefreshedByTraffic(t *testing.T) {
	sw, sched, _ := testSwitch(t, 2, 1)
	sw.Table(0).Add(&Rule{Priority: 1, IdleTimeout: 5 * time.Second, Actions: []Action{Output(2)}})
	for i := 0; i < 3; i++ {
		sched.RunFor(3 * time.Second)
		sw.Inject(1, tcpPkt()) // keeps the rule warm
	}
	if sw.Table(0).Len() != 1 {
		t.Fatal("idle rule expired despite traffic")
	}
	sched.RunFor(6 * time.Second)
	if sw.Table(0).Len() != 0 {
		t.Fatal("idle rule survived an idle period")
	}
}

func TestControllerPuntAndResume(t *testing.T) {
	sw, _, delivered := testSwitch(t, 2, 1)
	var punted []core.PacketID
	ctrl := controllerFunc(func(s *Switch, inPort PortNo, pid core.PacketID, p *packet.Packet) {
		punted = append(punted, pid)
		s.SendPacketAs(pid, inPort, []PortNo{2}, p)
	})
	sw.SetController(ctrl, MissController)
	var events []core.Event
	sw.Observe(func(e core.Event) { events = append(events, e) })
	pid := sw.Inject(1, tcpPkt())
	if len(punted) != 1 || punted[0] != pid {
		t.Fatalf("punted = %v, want [%d]", punted, pid)
	}
	if len(delivered[2]) != 1 {
		t.Fatal("controller resume did not deliver")
	}
	// Identity must be preserved across the punt.
	if len(events) != 2 || events[1].Kind != core.KindEgress || events[1].PacketID != pid {
		t.Fatalf("events = %+v", events)
	}
	if sw.Stats().PacketIns != 1 || sw.Stats().PacketInBytes == 0 {
		t.Fatalf("stats = %+v", sw.Stats())
	}
}

type controllerFunc func(*Switch, PortNo, core.PacketID, *packet.Packet)

func (f controllerFunc) PacketIn(sw *Switch, inPort PortNo, pid core.PacketID, p *packet.Packet) {
	f(sw, inPort, pid, p)
}

func TestControllerExplicitDropObservable(t *testing.T) {
	sw, _, _ := testSwitch(t, 2, 1)
	ctrl := controllerFunc(func(s *Switch, inPort PortNo, pid core.PacketID, p *packet.Packet) {
		s.DropPacketAs(pid, inPort, p)
	})
	sw.SetController(ctrl, MissController)
	var drops int
	sw.Observe(func(e core.Event) {
		if e.Kind == core.KindEgress && e.Dropped {
			drops++
		}
	})
	sw.Inject(1, tcpPkt())
	if drops != 1 {
		t.Fatalf("controller drop not observable (drops=%d)", drops)
	}
}

func TestPortDownBehaviour(t *testing.T) {
	sw, _, delivered := testSwitch(t, 3, 1)
	sw.Table(0).Add(&Rule{Priority: 1, Actions: []Action{Output(2)}})
	var oob []core.Event
	var egress int
	sw.Observe(func(e core.Event) {
		switch e.Kind {
		case core.KindOutOfBand:
			oob = append(oob, e)
		case core.KindEgress:
			egress++
		}
	})
	sw.SetPortUp(2, false)
	if len(oob) != 1 || oob[0].OOBKind != packet.OOBLinkDown || oob[0].OOBPort != 2 {
		t.Fatalf("oob = %+v", oob)
	}
	// The switch still *decides* to output on port 2 (observable egress)
	// but nothing is delivered on the downed link.
	sw.Inject(1, tcpPkt())
	if egress != 1 || len(delivered[2]) != 0 {
		t.Fatalf("egress=%d delivered=%v", egress, delivered)
	}
	// Arrivals on a downed port are impossible.
	sw.SetPortUp(1, false)
	if pid := sw.Inject(1, tcpPkt()); pid != 0 {
		t.Fatal("packet arrived on downed port")
	}
	// Re-raising emits link-up; duplicate transitions are silent.
	sw.SetPortUp(2, true)
	sw.SetPortUp(2, true)
	if len(oob) != 3 || oob[2].OOBKind != packet.OOBLinkUp {
		t.Fatalf("oob after up = %+v", oob)
	}
	if !sw.PortUp(2) || sw.PortUp(1) {
		t.Fatal("PortUp state wrong")
	}
}

func TestFloodSkipsDownedPorts(t *testing.T) {
	sw, _, delivered := testSwitch(t, 4, 1)
	sw.SetMissPolicy(MissFlood)
	sw.SetPortUp(3, false)
	sw.Inject(1, tcpPkt())
	if len(delivered[2]) != 1 || len(delivered[3]) != 0 || len(delivered[4]) != 1 {
		t.Fatalf("flood = %v", delivered)
	}
}

func TestRemoveByCookie(t *testing.T) {
	sw, _, _ := testSwitch(t, 2, 1)
	for i := 0; i < 5; i++ {
		sw.Table(0).Add(&Rule{Priority: i, Cookie: uint64(i % 2), Actions: []Action{Output(2)}})
	}
	if n := sw.Table(0).RemoveByCookie(1); n != 2 {
		t.Fatalf("RemoveByCookie = %d, want 2", n)
	}
	if sw.Table(0).Len() != 3 {
		t.Fatalf("remaining = %d", sw.Table(0).Len())
	}
	if n := sw.Table(0).RemoveByCookie(99); n != 0 {
		t.Fatalf("RemoveByCookie(99) = %d", n)
	}
}

func TestRegisterFile(t *testing.T) {
	rf := NewRegisterFile()
	rf.Define("conn", 128)
	if rf.Size("conn") != 128 || rf.Size("nope") != 0 {
		t.Fatal("Size wrong")
	}
	idx := rf.IndexOf("conn", 1<<63+17)
	rf.Write("conn", idx, 42)
	if rf.Read("conn", idx) != 42 {
		t.Fatal("register readback failed")
	}
	if rf.Ops != 2 {
		t.Fatalf("Ops = %d, want 2", rf.Ops)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IndexOf on undefined array did not panic")
		}
	}()
	rf.IndexOf("nope", 1)
}

func TestSendPacketFreshIdentity(t *testing.T) {
	sw, _, delivered := testSwitch(t, 2, 1)
	var ids []core.PacketID
	sw.Observe(func(e core.Event) { ids = append(ids, e.PacketID) })
	pid := sw.SendPacket(2, tcpPkt())
	if pid == 0 || len(delivered[2]) != 1 {
		t.Fatal("SendPacket failed")
	}
	if len(ids) != 1 || ids[0] != pid {
		t.Fatalf("ids = %v", ids)
	}
}

func TestDuplicateOutputsCollapse(t *testing.T) {
	sw, _, delivered := testSwitch(t, 2, 1)
	sw.Table(0).Add(&Rule{Priority: 1, Actions: []Action{Output(2), Output(2)}})
	var egress, multi int
	sw.Observe(func(e core.Event) {
		if e.Kind == core.KindEgress {
			egress++
			if e.Multicast {
				multi++
			}
		}
	})
	sw.Inject(1, tcpPkt())
	if len(delivered[2]) != 1 || egress != 1 || multi != 0 {
		t.Fatalf("dup outputs: delivered=%d egress=%d multi=%d", len(delivered[2]), egress, multi)
	}
}

func TestTableGrowsOnDemand(t *testing.T) {
	sw, _, _ := testSwitch(t, 2, 1)
	sw.Table(7).Add(&Rule{Priority: 1, Actions: []Action{Drop()}})
	if sw.NumTables() != 8 {
		t.Fatalf("NumTables = %d, want 8", sw.NumTables())
	}
}

func TestMatchStringAndRuleString(t *testing.T) {
	m := Match{InPort: 3, Fields: []FieldMatch{FM(packet.FieldIPSrc, ipA.Uint64())}}
	if s := m.String(); s != "in_port=3,ip.src=167772161" {
		t.Fatalf("Match.String = %q", s)
	}
	if (Match{}).String() != "any" {
		t.Fatal("empty match string")
	}
	r := &Rule{Priority: 9, Match: m, Actions: []Action{Drop()}}
	if r.String() == "" {
		t.Fatal("Rule.String empty")
	}
}

func TestSetFieldOnMissingLayerDrops(t *testing.T) {
	sw, _, delivered := testSwitch(t, 2, 1)
	sw.Table(0).Add(&Rule{
		Priority: 1,
		Actions:  []Action{SetField(packet.FieldSrcPort, packet.Num(1)), Output(2)},
	})
	arp := packet.NewARPRequest(macA, ipA, ipB)
	sw.Inject(1, arp)
	if len(delivered[2]) != 0 || sw.Stats().PacketsDrop != 1 {
		t.Fatal("set-field on missing layer should drop")
	}
}
