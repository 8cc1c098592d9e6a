package packet

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// fmtSummary is the fmt rendering AppendSummary replaced, kept as the
// reference it must match byte for byte. Addresses and flags are spelled
// out here rather than read through their String methods, which now
// share AppendSummary's code.
func fmtSummary(p *Packet) string {
	var b strings.Builder
	switch {
	case p.ARP != nil:
		fmt.Fprintf(&b, "ARP %s %s(%s)->%s(%s)", p.ARP.Op,
			fmtIPv4(p.ARP.SenderIP), fmtMAC(p.ARP.SenderMAC), fmtIPv4(p.ARP.TargetIP), fmtMAC(p.ARP.TargetMAC))
	case p.IPv4 != nil:
		fmt.Fprintf(&b, "%s %s->%s", p.IPv4.Protocol, fmtIPv4(p.IPv4.Src), fmtIPv4(p.IPv4.Dst))
		switch {
		case p.TCP != nil:
			fmt.Fprintf(&b, " ports %d->%d flags %s", p.TCP.SrcPort, p.TCP.DstPort, fmtFlags(p.TCP.Flags))
		case p.UDP != nil:
			fmt.Fprintf(&b, " ports %d->%d", p.UDP.SrcPort, p.UDP.DstPort)
		case p.ICMP != nil:
			fmt.Fprintf(&b, " type %d", p.ICMP.Type)
		}
		switch {
		case p.DHCP != nil:
			fmt.Fprintf(&b, " DHCP %s", p.DHCP.MsgType)
		case p.DNS != nil:
			fmt.Fprintf(&b, " DNS id=%d %q", p.DNS.ID, p.DNS.QName)
		case p.FTP != nil && p.FTP.Command != "":
			fmt.Fprintf(&b, " FTP %s", p.FTP.Command)
		case p.FTP != nil:
			fmt.Fprintf(&b, " FTP reply %d", p.FTP.ReplyCode)
		}
	case p.Eth != nil:
		fmt.Fprintf(&b, "%s %s->%s", p.Eth.Type, fmtMAC(p.Eth.Src), fmtMAC(p.Eth.Dst))
	default:
		b.WriteString("empty packet")
	}
	return b.String()
}

func fmtMAC(m MAC) string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

func fmtIPv4(ip IPv4) string { return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3]) }

func fmtFlags(f TCPFlags) string {
	var names []string
	for i, n := range []string{"FIN", "SYN", "RST", "PSH", "ACK", "URG"} {
		if f&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, "|")
}

// The append-built renderings are the fmt ones, byte for byte: every
// layer Summary names, enum values with and without a name, flag sets
// from none to all (the two high bits have no name), a DNS name that
// needs quoting, and the bare address and value renderings over random
// inputs. FuzzCodecRoundTrip repeats the Summary comparison on every
// frame the codec accepts.
func TestSummaryMatchesFmtRendering(t *testing.T) {
	macS, macD := MustMAC("02:00:00:00:00:0a"), MustMAC("f0:9e:ab:cd:00:ff")
	ipS, ipD := MustIPv4("10.0.0.1"), MustIPv4("203.0.113.255")
	ftpReply := NewTCP(macD, macS, ipD, ipS, 21, 40000, FlagACK, nil)
	ftpReply.FTP = &FTPControl{ReplyCode: 227, ReplyText: "Entering Passive Mode"}
	pkts := []*Packet{
		{},
		{Eth: &Ethernet{Src: macS, Dst: BroadcastMAC, Type: EtherTypeIPv4}},
		{Eth: &Ethernet{Src: macS, Dst: macD, Type: 0x88cc}},
		NewARPRequest(macS, ipS, ipD),
		NewARPReply(macS, ipS, macD, ipD),
		{ARP: &ARP{Op: 9, SenderMAC: macS, SenderIP: ipS, TargetIP: ipD}},
		NewTCP(macS, macD, ipS, ipD, 40000, 80, 0, nil),
		NewTCP(macS, macD, ipS, ipD, 1, 65535, FlagSYN|FlagACK, nil),
		NewTCP(macS, macD, ipS, ipD, 0, 0, 0xff, nil),
		NewTCP(macS, macD, ipS, ipD, 7, 8, 0xc0, nil),
		NewUDP(macS, macD, ipS, ipD, 4000, 5000, []byte{1}),
		NewICMPEcho(macS, macD, ipS, ipD, 7, 1, true),
		{IPv4: &IPv4Header{Protocol: 99, Src: ipS, Dst: ipD}},
		NewDHCP(macS, macD, IPv4{}, BroadcastIPv4, &DHCPv4{Op: DHCPBootRequest, MsgType: DHCPRequest}),
		NewDHCP(macS, macD, IPv4{}, BroadcastIPv4, &DHCPv4{Op: DHCPBootReply, MsgType: 42}),
		NewDNSQuery(macS, macD, ipS, ipD, 5353, 65535, "ex\"ample\\.com\x00ü"),
		NewFTPCommand(macS, macD, ipS, ipD, 40000, "PORT", "10,0,0,1,156,64"),
		ftpReply,
	}
	for i, p := range pkts {
		if got, want := p.Summary(), fmtSummary(p); got != want {
			t.Errorf("packet %d: Summary() = %q, fmt rendering %q", i, got, want)
		}
		if got := string(p.AppendSummary([]byte("kept|"))); got != "kept|"+fmtSummary(p) {
			t.Errorf("packet %d: AppendSummary clobbered its buffer: %q", i, got)
		}
	}
	same := func(mac [6]byte, ip [4]byte, flags uint8, num uint64, str string) bool {
		return MAC(mac).String() == fmtMAC(mac) && IPv4(ip).String() == fmtIPv4(ip) &&
			TCPFlags(flags).String() == fmtFlags(TCPFlags(flags)) &&
			Num(num).String() == fmt.Sprintf("%d", num) && Str(str).String() == fmt.Sprintf("%q", str)
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
