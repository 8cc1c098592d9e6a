package packet

import (
	"strings"
	"testing"
)

func TestFieldRegistryNamesUniqueAndResolvable(t *testing.T) {
	seen := map[string]Field{}
	for _, f := range AllFields() {
		name := f.String()
		if prev, dup := seen[name]; dup {
			t.Fatalf("duplicate field name %q for %d and %d", name, prev, f)
		}
		seen[name] = f
		got, ok := FieldByName(name)
		if !ok || got != f {
			t.Fatalf("FieldByName(%q) = (%v, %v), want (%v, true)", name, got, ok, f)
		}
		if !f.Valid() {
			t.Fatalf("registered field %v reports Valid() = false", f)
		}
	}
	if _, ok := FieldByName("no.such.field"); ok {
		t.Fatal("FieldByName resolved a nonexistent name")
	}
	if FieldInvalid.Valid() {
		t.Fatal("FieldInvalid reports valid")
	}
}

func TestFieldLayers(t *testing.T) {
	cases := map[Field]Layer{
		FieldInPort:      LayerMeta,
		FieldDropped:     LayerMeta,
		FieldEthSrc:      Layer2,
		FieldARPSenderIP: Layer3,
		FieldIPSrc:       Layer3,
		FieldSrcPort:     Layer4,
		FieldTCPFin:      Layer4,
		FieldDHCPYourIP:  Layer7,
		FieldFTPDataPort: Layer7,
	}
	for f, want := range cases {
		if got := f.Layer(); got != want {
			t.Errorf("%v.Layer() = %v, want %v", f, got, want)
		}
	}
	if Layer2.String() != "L2" || LayerMeta.String() != "meta" || Layer7.String() != "L7" {
		t.Error("Layer.String misrenders")
	}
}

func TestPacketFieldExtraction(t *testing.T) {
	p := NewTCP(macA, macB, ipA, ipB, 31337, 443, FlagSYN|FlagACK, nil)
	cases := []struct {
		f    Field
		want Value
	}{
		{FieldEthSrc, Num(macA.Uint64())},
		{FieldEthDst, Num(macB.Uint64())},
		{FieldEthType, Num(uint64(EtherTypeIPv4))},
		{FieldIPSrc, Num(ipA.Uint64())},
		{FieldIPDst, Num(ipB.Uint64())},
		{FieldIPProto, Num(uint64(ProtoTCP))},
		{FieldIPTTL, Num(64)},
		{FieldSrcPort, Num(31337)},
		{FieldDstPort, Num(443)},
		{FieldTCPSyn, Num(1)},
		{FieldTCPFin, Num(0)},
		{FieldTCPRst, Num(0)},
		{FieldTCPFlags, Num(uint64(FlagSYN | FlagACK))},
	}
	for _, c := range cases {
		got, ok := p.Field(c.f)
		if !ok || got != c.want {
			t.Errorf("Field(%v) = (%v, %v), want (%v, true)", c.f, got, ok, c.want)
		}
	}
	// Fields from absent layers.
	for _, f := range []Field{FieldARPOp, FieldDHCPMsgType, FieldICMPType, FieldDNSID, FieldInPort} {
		if _, ok := p.Field(f); ok {
			t.Errorf("Field(%v) present on a TCP packet", f)
		}
	}
}

func TestPacketFieldARPAndUDP(t *testing.T) {
	arp := NewARPRequest(macA, ipA, ipB)
	if v, ok := arp.Field(FieldARPOp); !ok || v != Num(uint64(ARPRequest)) {
		t.Errorf("arp.op = %v, %v", v, ok)
	}
	if v, ok := arp.Field(FieldARPTargetIP); !ok || v != Num(ipB.Uint64()) {
		t.Errorf("arp.target_ip = %v, %v", v, ok)
	}

	udp := NewUDP(macA, macB, ipA, ipB, 9999, 53, nil)
	if v, ok := udp.Field(FieldSrcPort); !ok || v != Num(9999) {
		t.Errorf("udp src port = %v, %v", v, ok)
	}
	if _, ok := udp.Field(FieldTCPSyn); ok {
		t.Error("tcp.syn extracted from UDP packet")
	}
}

func TestPacketFieldL7(t *testing.T) {
	msg := &DHCPv4{Op: DHCPBootReply, Xid: 77, MsgType: DHCPOffer, YourIP: MustIPv4("10.0.0.9"), ClientMAC: macA, LeaseSecs: 60}
	dhcp := NewDHCP(macB, macA, ipB, BroadcastIPv4, msg)
	checks := []struct {
		f    Field
		want Value
	}{
		{FieldDHCPMsgType, Num(uint64(DHCPOffer))},
		{FieldDHCPYourIP, Num(MustIPv4("10.0.0.9").Uint64())},
		{FieldDHCPClientMAC, Num(macA.Uint64())},
		{FieldDHCPLeaseSecs, Num(60)},
		{FieldDHCPXid, Num(77)},
	}
	for _, c := range checks {
		if v, ok := dhcp.Field(c.f); !ok || v != c.want {
			t.Errorf("Field(%v) = (%v, %v), want %v", c.f, v, ok, c.want)
		}
	}

	dns := NewDNSResponse(macB, macA, ipB, ipA, 5353, 42, "a.example", MustIPv4("1.2.3.4"))
	if v, ok := dns.Field(FieldDNSQName); !ok || v != Str("a.example") {
		t.Errorf("dns.qname = %v, %v", v, ok)
	}
	if v, ok := dns.Field(FieldDNSAnswerIP); !ok || v != Num(MustIPv4("1.2.3.4").Uint64()) {
		t.Errorf("dns.answer_ip = %v, %v", v, ok)
	}

	ftp := NewFTPCommand(macA, macB, ipA, ipB, 40000, "PORT", "10,0,0,1,0,21")
	if v, ok := ftp.Field(FieldFTPCommand); !ok || v != Str("PORT") {
		t.Errorf("ftp.command = %v, %v", v, ok)
	}
	if v, ok := ftp.Field(FieldFTPDataPort); !ok || v != Num(21) {
		t.Errorf("ftp.data_port = %v, %v", v, ok)
	}
}

func TestValueOrderingAndString(t *testing.T) {
	if !Num(1).Less(Num(2)) || Num(2).Less(Num(1)) {
		t.Error("numeric ordering broken")
	}
	if !Num(99).Less(Str("a")) {
		t.Error("numerics should order before strings")
	}
	if !Str("a").Less(Str("b")) {
		t.Error("string ordering broken")
	}
	if Num(5).String() != "5" || Str("x").String() != `"x"` {
		t.Error("Value.String misrenders")
	}
	if Num(5).IsStr() || !Str("x").IsStr() {
		t.Error("IsStr wrong")
	}
	if Num(5).Uint64() != 5 || Str("x").Text() != "x" {
		t.Error("accessors wrong")
	}
}

func TestValueComparable(t *testing.T) {
	m := map[Value]int{Num(1): 1, Str("1"): 2}
	if m[Num(1)] != 1 || m[Str("1")] != 2 {
		t.Fatal("Value does not behave as a map key")
	}
	if Num(1) == Str("1") {
		t.Fatal("numeric and string values compare equal")
	}
}

// TestFieldTable: every row of the field table has a name, a layer and
// a getter; exactly the seven rewritable fields have a setter, and
// SetField then Field reads a rewritten value back; every other field
// refuses SetField as not rewritable.
func TestFieldTable(t *testing.T) {
	rewritable := map[Field]bool{
		FieldEthSrc: true, FieldEthDst: true, FieldIPSrc: true, FieldIPDst: true,
		FieldIPTTL: true, FieldSrcPort: true, FieldDstPort: true,
	}
	for _, f := range AllFields() {
		row := fieldTable[f]
		if row.name == "" || row.get == nil {
			t.Errorf("field %d: name %q, getter set %v", f, row.name, row.get != nil)
		}
		if (row.layer == LayerMeta) != (f <= FieldSwitchID) {
			t.Errorf("%v: layer %v", f, row.layer)
		}
		if (row.set != nil) != rewritable[f] {
			t.Errorf("%v: setter present %v, want %v", f, row.set != nil, rewritable[f])
		}
		if !rewritable[f] {
			err := NewTCP(macA, macB, ipA, ipB, 1, 2, FlagSYN, nil).SetField(f, Num(7))
			if err == nil || !strings.Contains(err.Error(), "not rewritable") {
				t.Errorf("SetField(%v) = %v, want a not-rewritable error", f, err)
			}
			continue
		}
		for _, p := range []*Packet{NewTCP(macA, macB, ipA, ipB, 40000, 80, FlagSYN, nil), NewUDP(macA, macB, ipA, ipB, 40000, 80, nil)} {
			if v, ok := p.Field(f); !ok || v == Num(7) {
				t.Fatalf("%v reads %v, %v before the rewrite", f, v, ok)
			}
			if err := p.SetField(f, Num(7)); err != nil {
				t.Errorf("SetField(%v): %v", f, err)
			}
			if v, ok := p.Field(f); !ok || v != Num(7) {
				t.Errorf("%v reads %v, %v after SetField to 7", f, v, ok)
			}
		}
		if err := NewARPRequest(macA, ipA, ipB).SetField(f, Num(7)); (err == nil) == (f.Layer() != Layer2) {
			t.Errorf("SetField(%v) on an ARP packet: %v", f, err)
		}
	}
}
