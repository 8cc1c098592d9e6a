package core

import (
	"math/rand"
	"testing"

	"switchmon/internal/packet"
	"switchmon/internal/property"
)

// TestGuardGateIsNecessary pins what makes the guard gates exact: an event
// that discharges a row through an until guard, or that seeds a sticky
// guard's suppression, always passes that guard's class check and its
// literal predicates, tested without any row. So skipping a guard whose
// gate fails — before its key is hashed, its chain walked or a pin read —
// can change no verdict, counter or row. Random guards cover every
// comparison operator, numeric and string literals, variable and hash
// operands, all four event classes, and events missing the L4/L7 layer,
// the whole packet, or the egress metadata; rows bind random values or
// values copied from the event, so matches are common. Every catalogue
// guard runs through the same check.
func TestGuardGateIsNecessary(t *testing.T) {
	g := newGateGen(rand.New(rand.NewSource(29)))
	var c gateCounts
	for c.cases < 200000 {
		cp, err := compile(g.property())
		if err != nil {
			t.Fatal(err)
		}
		c.check(t, cp, g, 20)
	}
	random := c
	for _, ent := range property.Catalog(property.DefaultParams()) {
		cp, err := compile(ent.Prop)
		if err != nil {
			t.Fatal(err)
		}
		c.check(t, cp, g, 2000)
	}
	t.Logf("random guards: %+v; with the catalogue: %+v", random, c)
	// The implication is only as strong as the cases where its premise
	// holds: require discharges and suppressions in numbers, and gates
	// that pass without the guard matching (the row half decides).
	if random.discharges < 500 || random.suppressions < 500 || random.gatedOut < 500 || random.rowDecided < 500 {
		t.Errorf("random guards exercise too little: %+v", random)
	}
	if c.discharges == random.discharges || c.suppressions == random.suppressions {
		t.Errorf("catalogue guards never matched: %+v", c)
	}
}

// gateCounts tallies TestGuardGateIsNecessary's (guard, event, row) cases:
// how many matched an until guard, seeded a suppression, were stopped by
// the gate, and passed the gate only for the row half to refuse them.
type gateCounts struct {
	cases, discharges, suppressions, gatedOut, rowDecided int
}

// check draws, for every compiled guard of cp, the given number of random
// events: each until guard meets each event with a fresh random row, each
// sticky guard with the identity the event pins.
func (c *gateCounts) check(t *testing.T, cp *compiledProp, g *gateGen, events int) {
	t.Helper()
	for si := range cp.stages {
		cs := &cp.stages[si]
		for gi := range cs.guardIdx {
			gd := &cs.guardIdx[gi]
			checkGateIsLiteralHalf(t, cp, gd.preds, gd.gate)
			for i := 0; i < events; i++ {
				e := g.event()
				en := g.row(cp, e)
				gate := classMatches(gd.class, e) && predsHold(gd.gate, e, env{})
				matched := guardMatches(gd, e, en)
				c.count(gate, matched)
				if matched {
					c.discharges++
					if !gate {
						t.Fatalf("%s stage %d until-guard %d discharges on %s with its gate failing", cp.prop.Name, si, gi, e.Summary())
					}
				}
			}
		}
		for gi := range cs.stickyGuards {
			sg := &cs.stickyGuards[gi]
			checkGateIsLiteralHalf(t, cp, sg.rest, sg.gate)
			for i := 0; i < events; i++ {
				e := g.event()
				gate := classMatches(sg.class, e) && predsHold(sg.gate, e, env{})
				suppressed := suppresses(sg, e)
				c.count(gate, suppressed)
				if suppressed {
					c.suppressions++
					if !gate {
						t.Fatalf("%s stage %d sticky guard %d suppresses on %s with its gate failing", cp.prop.Name, si, gi, e.Summary())
					}
				}
			}
		}
	}
}

func (c *gateCounts) count(gate, matched bool) {
	c.cases++
	switch {
	case !gate:
		c.gatedOut++
	case !matched:
		c.rowDecided++
	}
}

// checkGateIsLiteralHalf requires gate to be exactly the literal-operand
// predicates of preds, in order: an empty gate is necessary too, and
// would test nothing.
func checkGateIsLiteralHalf(t *testing.T, cp *compiledProp, preds, gate []cpred) {
	t.Helper()
	var want []cpred
	for _, pr := range preds {
		if pr.Arg.Kind == property.OperandLit {
			want = append(want, pr)
		}
	}
	if len(gate) != len(want) {
		t.Fatalf("%s: gate has %d predicates, want the %d literal ones of %v", cp.prop.Name, len(gate), len(want), preds)
	}
	for i := range want {
		if gate[i].Pred != want[i].Pred {
			t.Fatalf("%s: gate predicate %d is %v, want %v", cp.prop.Name, i, gate[i].Pred, want[i].Pred)
		}
	}
}

// suppresses is suppress's condition for one sticky guard, without the
// gate: the guard's class, every pin present on the event, and the rest of
// its predicates on the identity the pins synthesize.
func suppresses(sg *stickyGuard, e *Event) bool {
	if !classMatches(sg.class, e) {
		return false
	}
	en := env{r: &row{}, s: &store{}}
	for _, pin := range sg.pins {
		v, ok := e.Field(pin.field)
		if !ok {
			return false
		}
		en.s.setValue(en.r, pin.slot, v)
	}
	return predsHold(sg.rest, e, en)
}

// gateGen draws guards, events and rows over small value pools, so that
// field values, literals and bound variables collide often. Predicates
// and binds read from fields, a few of each layer from switch metadata to
// L7; events carry every field their layers define.
type gateGen struct {
	rng    *rand.Rand
	nums   []uint64
	strs   []string
	fields []packet.Field
}

// newGateGen seeds the pools with a few small numbers and strings plus
// every literal a catalogue guard compares against.
func newGateGen(rng *rand.Rand) *gateGen {
	g := &gateGen{rng: rng, nums: []uint64{0, 1, 2}, strs: []string{"", "a", "b"},
		fields: []packet.Field{
			packet.FieldInPort, packet.FieldOutPort, packet.FieldDropped, packet.FieldMulticast,
			packet.FieldOOBKind, packet.FieldOOBPort, packet.FieldSwitchID, packet.FieldEthType,
			packet.FieldARPOp, packet.FieldIPSrc, packet.FieldIPDst, packet.FieldSrcPort, packet.FieldDstPort,
			packet.FieldTCPFin, packet.FieldTCPRst, packet.FieldICMPType, packet.FieldDHCPMsgType,
			packet.FieldDNSQName, packet.FieldFTPCommand,
		}}
	for _, ent := range property.Catalog(property.DefaultParams()) {
		for _, st := range ent.Prop.Stages {
			for _, gd := range st.Until {
				for _, pr := range gd.Preds {
					switch {
					case pr.Arg.Kind != property.OperandLit:
					case pr.Arg.Lit.IsStr():
						g.strs = append(g.strs, pr.Arg.Lit.Text())
					default:
						g.nums = append(g.nums, pr.Arg.Lit.Uint64())
					}
				}
			}
		}
	}
	return g
}

func (g *gateGen) num() uint64         { return g.nums[g.rng.Intn(len(g.nums))] }
func (g *gateGen) str() string         { return g.strs[g.rng.Intn(len(g.strs))] }
func (g *gateGen) mac() packet.MAC     { return packet.MACFromUint64(g.num()) }
func (g *gateGen) ip() packet.IPv4     { return packet.IPv4FromUint32(uint32(g.num())) }
func (g *gateGen) field() packet.Field { return g.fields[g.rng.Intn(len(g.fields))] }
func (g *gateGen) coin() bool          { return g.rng.Intn(2) == 0 }

func (g *gateGen) value() packet.Value {
	if g.rng.Intn(3) == 0 {
		return packet.Str(g.str())
	}
	return packet.Num(g.num())
}

func (g *gateGen) class() property.EventClass {
	return property.EventClass(g.rng.Intn(4)) // packet, arrival, egress, oob
}

// property builds a two-stage property: stage 0 binds up to three
// variables, and each stage carries random until and sticky guards.
// Stage 0's guards can reference no variable, so they are literal and
// hash only; a sticky guard at stage 1 pins every bound variable, as
// Validate requires.
func (g *gateGen) property() *property.Property {
	open := property.NewStage("open", g.class())
	vars := []property.Var{"A", "B", "C"}[:1+g.rng.Intn(3)]
	for _, v := range vars {
		open.Binds = append(open.Binds, property.Binding{Var: v, Field: g.field()})
	}
	open.Until = g.guards(nil, g.rng.Intn(3))
	wait := property.NewStage("wait", g.class())
	wait.Until = g.guards(vars, 1+g.rng.Intn(4))
	return &property.Property{Name: "gate", Stages: []property.Stage{open, wait}}
}

func (g *gateGen) guards(vars []property.Var, n int) []property.Guard {
	var out []property.Guard
	for i := 0; i < n; i++ {
		gd := property.Guard{Class: g.class(), Sticky: g.coin()}
		for j := 1 + g.rng.Intn(2); j > 0; j-- {
			gd.Preds = append(gd.Preds, g.pred(vars))
		}
		if gd.Sticky {
			for _, v := range vars {
				gd.Preds = append(gd.Preds, property.EqVar(g.field(), v))
			}
			g.rng.Shuffle(len(gd.Preds), func(a, b int) { gd.Preds[a], gd.Preds[b] = gd.Preds[b], gd.Preds[a] })
		}
		out = append(out, gd)
	}
	return out
}

// pred draws a predicate on a pool field with any operator: against a bound
// variable when there is one, a two-field symmetric hash, or a literal.
func (g *gateGen) pred(vars []property.Var) property.Pred {
	pr := property.Pred{Field: g.field(), Op: property.CmpOp(g.rng.Intn(6))}
	switch k := g.rng.Intn(4); {
	case k == 0 && len(vars) > 0:
		pr.Arg = property.Ref(vars[g.rng.Intn(len(vars))])
	case k == 1:
		pr.Arg = property.HashOf(3, 0, g.field(), g.field())
	default:
		pr.Arg = property.Lit(g.value())
	}
	return pr
}

// event draws an arrival, an egress (forwarded or dropped, so the egress
// metadata is sometimes absent), or an out-of-band event.
func (g *gateGen) event() *Event {
	e := &Event{SwitchID: g.num(), PacketID: PacketID(1 + g.rng.Intn(3))}
	switch g.rng.Intn(5) {
	case 0:
		e.Kind = KindOutOfBand
		e.OOBKind, e.OOBPort = packet.OOBKind(g.num()), g.num()
		return e
	case 1, 2:
		e.Kind, e.InPort = KindArrival, g.num()
	default:
		e.Kind, e.InPort, e.OutPort = KindEgress, g.num(), g.num()
		e.Dropped, e.Multicast = g.coin(), g.coin()
	}
	e.Packet = g.packet()
	return e
}

// packet draws a packet whose layers come and go independently: no packet
// at all, Ethernet alone, ARP, or IPv4 with or without TCP/UDP/ICMP, and
// any of the L7 layers or none.
func (g *gateGen) packet() *packet.Packet {
	if g.rng.Intn(8) == 0 {
		return nil
	}
	p := &packet.Packet{Eth: &packet.Ethernet{Src: g.mac(), Dst: g.mac(), Type: packet.EtherType(g.num())}}
	switch g.rng.Intn(3) {
	case 0:
		p.ARP = &packet.ARP{Op: packet.ARPOp(g.num()), SenderMAC: g.mac(), SenderIP: g.ip(), TargetMAC: g.mac(), TargetIP: g.ip()}
	case 1:
		p.IPv4 = &packet.IPv4Header{TTL: uint8(g.num()), Protocol: packet.IPProto(g.num()), Src: g.ip(), Dst: g.ip()}
		switch g.rng.Intn(4) {
		case 0:
			p.TCP = &packet.TCP{SrcPort: uint16(g.num()), DstPort: uint16(g.num()), Flags: packet.TCPFlags(g.rng.Intn(64))}
		case 1:
			p.UDP = &packet.UDP{SrcPort: uint16(g.num()), DstPort: uint16(g.num())}
		case 2:
			p.ICMP = &packet.ICMPv4{Type: packet.ICMPType(g.num()), Code: uint8(g.num()), ID: uint16(g.num()), Seq: uint16(g.num())}
		}
	}
	switch g.rng.Intn(4) {
	case 0:
		p.DHCP = &packet.DHCPv4{MsgType: packet.DHCPMsgType(g.num()), ClientMAC: g.mac(), YourIP: g.ip(),
			RequestedIP: g.ip(), ServerID: g.ip(), LeaseSecs: uint32(g.num()), Xid: uint32(g.num())}
	case 1:
		p.DNS = &packet.DNS{ID: uint16(g.num()), Response: g.coin(), QName: g.str()}
		if g.coin() {
			p.DNS.Answers = []packet.DNSAnswer{{Addr: g.ip()}}
		}
	case 2:
		p.FTP = &packet.FTPControl{Command: g.str(), ReplyCode: int(g.num()), DataIP: g.ip(), DataPort: uint16(g.num())}
	}
	return p
}

// row binds every variable of cp: half the slots to a pool value, half to
// a value the event carries, so variable predicates hold often.
func (g *gateGen) row(cp *compiledProp, e *Event) env {
	en := env{r: &row{}, s: &store{}}
	for slot := range cp.vars {
		v := g.value()
		if g.coin() {
			if fv, ok := e.Field(g.field()); ok {
				v = fv
			}
		}
		en.s.setValue(en.r, slot, v)
	}
	return en
}
