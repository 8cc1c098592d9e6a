package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

var (
	macA = MustMAC("02:00:00:00:00:0a")
	macB = MustMAC("02:00:00:00:00:0b")
	ipA  = MustIPv4("10.0.0.1")
	ipB  = MustIPv4("192.168.1.9")
)

// roundTrip encodes p and decodes the bytes back, failing the test on any
// error.
func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	q, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v (packet %s)", err, p.Summary())
	}
	return q
}

func TestTCPRoundTrip(t *testing.T) {
	p := NewTCP(macA, macB, ipA, ipB, 31337, 80, FlagSYN|FlagACK, []byte("hello"))
	p.TCP.Seq, p.TCP.Ack = 1000, 2000
	q := roundTrip(t, p)
	if !reflect.DeepEqual(p.TCP, q.TCP) {
		t.Fatalf("TCP mismatch:\n  in  %+v\n  out %+v", p.TCP, q.TCP)
	}
	if !reflect.DeepEqual(p.IPv4, q.IPv4) || !reflect.DeepEqual(p.Eth, q.Eth) {
		t.Fatal("outer layers mismatch")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	p := NewUDP(macA, macB, ipA, ipB, 5000, 6000, []byte{1, 2, 3})
	q := roundTrip(t, p)
	if !reflect.DeepEqual(p.UDP, q.UDP) {
		t.Fatalf("UDP mismatch:\n  in  %+v\n  out %+v", p.UDP, q.UDP)
	}
}

func TestUDPEmptyPayloadRoundTrip(t *testing.T) {
	p := NewUDP(macA, macB, ipA, ipB, 1, 2, nil)
	q := roundTrip(t, p)
	if q.UDP.SrcPort != 1 || q.UDP.DstPort != 2 || len(q.UDP.Payload) != 0 {
		t.Fatalf("got %+v", q.UDP)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	p := NewICMPEcho(macA, macB, ipA, ipB, 7, 3, false)
	p.ICMP.Payload = []byte("ping payload")
	q := roundTrip(t, p)
	if !reflect.DeepEqual(p.ICMP, q.ICMP) {
		t.Fatalf("ICMP mismatch:\n  in  %+v\n  out %+v", p.ICMP, q.ICMP)
	}
}

func TestARPRoundTrip(t *testing.T) {
	p := NewARPRequest(macA, ipA, ipB)
	q := roundTrip(t, p)
	if !reflect.DeepEqual(p.ARP, q.ARP) {
		t.Fatalf("ARP mismatch:\n  in  %+v\n  out %+v", p.ARP, q.ARP)
	}
	r := NewARPReply(macB, ipB, macA, ipA)
	s := roundTrip(t, r)
	if s.ARP.Op != ARPReply || s.ARP.TargetMAC != macA {
		t.Fatalf("ARP reply mismatch: %+v", s.ARP)
	}
}

func TestDHCPRoundTrip(t *testing.T) {
	msg := &DHCPv4{
		Op:          DHCPBootRequest,
		Xid:         0xdeadbeef,
		ClientMAC:   macA,
		MsgType:     DHCPRequest,
		RequestedIP: MustIPv4("10.0.0.50"),
		ServerID:    MustIPv4("10.0.0.2"),
		LeaseSecs:   3600,
		Extra:       []DHCPOption{{Code: 12, Value: []byte("hostname")}},
	}
	p := NewDHCP(macA, BroadcastMAC, IPv4{}, BroadcastIPv4, msg)
	q := roundTrip(t, p)
	if q.DHCP == nil {
		t.Fatal("DHCP layer not recognized on decode")
	}
	if !reflect.DeepEqual(msg, q.DHCP) {
		t.Fatalf("DHCP mismatch:\n  in  %+v\n  out %+v", msg, q.DHCP)
	}
}

func TestDHCPReplyPortsAndDirection(t *testing.T) {
	msg := &DHCPv4{Op: DHCPBootReply, Xid: 1, MsgType: DHCPAck, YourIP: MustIPv4("10.0.0.50"), ClientMAC: macA}
	p := NewDHCP(macB, macA, ipB, MustIPv4("10.0.0.50"), msg)
	if p.UDP.SrcPort != PortDHCPServer || p.UDP.DstPort != PortDHCPClient {
		t.Fatalf("reply ports = %d->%d", p.UDP.SrcPort, p.UDP.DstPort)
	}
	q := roundTrip(t, p)
	if q.DHCP.MsgType != DHCPAck || q.DHCP.YourIP != MustIPv4("10.0.0.50") {
		t.Fatalf("decoded %+v", q.DHCP)
	}
}

func TestDNSRoundTrip(t *testing.T) {
	p := NewDNSQuery(macA, macB, ipA, ipB, 5353, 42, "example.com")
	q := roundTrip(t, p)
	if q.DNS == nil || q.DNS.QName != "example.com" || q.DNS.Response {
		t.Fatalf("decoded %+v", q.DNS)
	}
	r := NewDNSResponse(macB, macA, ipB, ipA, 5353, 42, "example.com", MustIPv4("93.184.216.34"))
	s := roundTrip(t, r)
	if !s.DNS.Response || len(s.DNS.Answers) != 1 || s.DNS.Answers[0].Addr != MustIPv4("93.184.216.34") {
		t.Fatalf("decoded %+v", s.DNS)
	}
}

func TestFTPRoundTrip(t *testing.T) {
	p := NewFTPCommand(macA, macB, ipA, ipB, 40000, "PORT", "10,0,0,1,156,64")
	if p.FTP.DataPort != 156<<8|64 {
		t.Fatalf("builder DataPort = %d", p.FTP.DataPort)
	}
	q := roundTrip(t, p)
	if q.FTP == nil || q.FTP.Command != "PORT" {
		t.Fatalf("decoded %+v", q.FTP)
	}
	if q.FTP.DataIP != ipA || q.FTP.DataPort != 156<<8|64 {
		t.Fatalf("PORT decode: ip=%v port=%d", q.FTP.DataIP, q.FTP.DataPort)
	}
}

func TestFTPPassiveReply(t *testing.T) {
	f, err := decodeFTPControl([]byte("227 Entering Passive Mode (192,168,1,9,19,137)\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.ReplyCode != 227 || f.DataIP != ipB || f.DataPort != 19<<8|137 {
		t.Fatalf("decoded %+v", f)
	}
}

func TestFTPBadPort(t *testing.T) {
	if _, err := decodeFTPControl([]byte("PORT 1,2,3\r\n")); err == nil {
		t.Fatal("malformed PORT accepted")
	}
}

// A payload that is not exactly one control line stays raw: decoding it
// as FTP would re-encode to different bytes.
func TestFTPRejectsEmbeddedLineBreaks(t *testing.T) {
	for _, data := range []string{"USER a\rb\r\n", "NOOP\nLIST\r\n", "LIST\r \r\rx"} {
		if _, err := decodeFTPControl([]byte(data)); err == nil {
			t.Errorf("%q decoded as one FTP control line", data)
		}
	}
}

func TestDecodeRejectsCorruptChecksums(t *testing.T) {
	p := NewTCP(macA, macB, ipA, ipB, 1, 2, FlagSYN, nil)
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte of the TCP header (sequence number).
	data[ethernetHeaderLen+ipv4HeaderLen+5] ^= 0xff
	if _, err := Decode(data); err == nil {
		t.Fatal("corrupt TCP checksum accepted")
	}
	// Corrupt the IP header.
	data2, _ := p.Encode()
	data2[ethernetHeaderLen+8] ^= 0xff // TTL
	if _, err := Decode(data2); err == nil {
		t.Fatal("corrupt IP checksum accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := NewUDP(macA, macB, ipA, ipB, 1000, 2000, []byte("payload"))
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			// Truncations that still satisfy the IP total length check can
			// decode; anything shorter than L3+L4 headers must not.
			if n < ethernetHeaderLen+ipv4HeaderLen+udpHeaderLen {
				t.Fatalf("truncated frame of %d bytes decoded", n)
			}
		}
	}
}

func TestInternetChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0x0001, 0xf203, 0xf4f5, 0xf6f7 -> sum 0xddf2,
	// checksum ^0xddf2 = 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := internetChecksum(data, 0); got != 0x220d {
		t.Fatalf("checksum = %#04x, want 0x220d", got)
	}
}

func TestInternetChecksumOddLength(t *testing.T) {
	if got := internetChecksum([]byte{0xab}, 0); got != ^uint16(0xab00) {
		t.Fatalf("odd-length checksum = %#04x", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := NewTCP(macA, macB, ipA, ipB, 1, 2, FlagSYN, []byte("data"))
	q := p.Clone()
	q.IPv4.Src = ipB
	q.TCP.Payload[0] = 'X'
	if p.IPv4.Src != ipA || p.TCP.Payload[0] != 'd' {
		t.Fatal("Clone shares storage with original")
	}
}

// Property: random valid TCP/UDP packets round-trip through encode/decode.
func TestRoundTripProperty(t *testing.T) {
	f := func(srcMAC, dstMAC [6]byte, src, dst [4]byte, sp, dp uint16, flags uint8, payload []byte) bool {
		if len(payload) > 1200 {
			payload = payload[:1200]
		}
		var p *Packet
		if sp%2 == 0 {
			p = NewTCP(MAC(srcMAC), MAC(dstMAC), IPv4(src), IPv4(dst), sp, dp, TCPFlags(flags&0x3f), payload)
		} else {
			// Avoid ports that trigger L7 decoding of random bytes.
			if sp == PortDNS || dp == PortDNS || sp == PortDHCPServer || dp == PortDHCPServer ||
				sp == PortDHCPClient || dp == PortDHCPClient || sp == PortFTPControl || dp == PortFTPControl {
				return true
			}
			p = NewUDP(MAC(srcMAC), MAC(dstMAC), IPv4(src), IPv4(dst), sp, dp, payload)
		}
		data, err := p.Encode()
		if err != nil {
			return false
		}
		q, err := Decode(data)
		if err != nil {
			return false
		}
		data2, err := q.Encode()
		if err != nil {
			return false
		}
		return bytes.Equal(data, data2)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryCoversLayers(t *testing.T) {
	cases := []struct {
		p    *Packet
		want string
	}{
		{NewARPRequest(macA, ipA, ipB), "ARP request"},
		{NewTCP(macA, macB, ipA, ipB, 1, 2, FlagSYN, nil), "TCP"},
		{NewICMPEcho(macA, macB, ipA, ipB, 1, 1, false), "ICMP"},
		{NewDNSQuery(macA, macB, ipA, ipB, 5353, 9, "x.test"), "DNS"},
	}
	for _, c := range cases {
		if got := c.p.Summary(); !bytes.Contains([]byte(got), []byte(c.want)) {
			t.Errorf("Summary() = %q, want substring %q", got, c.want)
		}
	}
}

// TestEncodeRefusesWhatDecodeCannotReadBack: encode fails on a DNS name,
// a DHCP option or an FTP line that decode would read back as a
// different packet (or not at all), and still encodes the longest
// values decode reads back.
func TestEncodeRefusesWhatDecodeCannotReadBack(t *testing.T) {
	label := func(n int) string { return strings.Repeat("a", n) }
	dhcp := func(extra ...DHCPOption) *Packet {
		return NewDHCP(macA, BroadcastMAC, IPv4{}, BroadcastIPv4, &DHCPv4{Op: DHCPBootRequest, Xid: 1, MsgType: DHCPDiscover, Extra: extra})
	}
	ftp := func(f FTPControl) *Packet {
		p := NewTCP(macA, macB, ipA, ipB, 40000, PortFTPControl, FlagACK, nil)
		p.FTP = &f
		return p
	}
	refused := map[string]*Packet{
		"dns empty label":           NewDNSQuery(macA, macB, ipA, ipB, 5353, 1, "a..b"),
		"dns trailing dot":          NewDNSQuery(macA, macB, ipA, ipB, 5353, 1, "example.com."),
		"dns 64-byte label":         NewDNSQuery(macA, macB, ipA, ipB, 5353, 1, label(64)),
		"dns 256-byte label":        NewDNSQuery(macA, macB, ipA, ipB, 5353, 1, label(256)),
		"dns 256-byte name":         NewDNSQuery(macA, macB, ipA, ipB, 5353, 1, strings.Repeat(label(63)+".", 3)+label(62)),
		"dns answer name":           NewDNSResponse(macB, macA, ipB, ipA, 5353, 1, "a..b", ipA),
		"dhcp 256-byte option":      dhcp(DHCPOption{Code: 12, Value: make([]byte, 256)}),
		"dhcp 300-byte option":      dhcp(DHCPOption{Code: 12, Value: make([]byte, 300)}),
		"dhcp extra message type":   dhcp(DHCPOption{Code: 53, Value: []byte{5}}),
		"dhcp extra pad":            dhcp(DHCPOption{Code: 0, Value: []byte{1}}),
		"ftp command line break":    ftp(FTPControl{Command: "US\r\nER", Arg: "a"}),
		"ftp argument line break":   ftp(FTPControl{Command: "USER", Arg: "a\nb"}),
		"ftp reply text line break": ftp(FTPControl{ReplyCode: 220, ReplyText: "hello\rworld"}),
	}
	for name, p := range refused {
		if b, err := p.Encode(); err == nil {
			t.Errorf("%s: encoded to %d bytes", name, len(b))
		}
	}
	longest := map[string]*Packet{
		"dns 63-byte label":    NewDNSQuery(macA, macB, ipA, ipB, 5353, 1, label(63)),
		"dns 255-byte name":    NewDNSQuery(macA, macB, ipA, ipB, 5353, 1, strings.Repeat(label(63)+".", 3)+label(61)),
		"dhcp 255-byte option": dhcp(DHCPOption{Code: 12, Value: bytes.Repeat([]byte{7}, 255)}),
	}
	for name, p := range longest {
		q := roundTrip(t, p)
		if !reflect.DeepEqual(q.DNS, p.DNS) || !reflect.DeepEqual(q.DHCP, p.DHCP) {
			t.Errorf("%s: decoded %+v %+v", name, q.DNS, q.DHCP)
		}
	}
}
