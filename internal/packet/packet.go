package packet

import (
	"fmt"
	"strconv"
)

// Packet is a fully decoded packet: one pointer per recognized layer, nil
// when the layer is absent. The monitor's field table reads from this
// representation; the dataplane serializes it back to bytes when needed.
//
// Packet values are treated as immutable once handed to the dataplane;
// functions that rewrite headers (e.g. NAT) operate on a Clone.
type Packet struct {
	Eth  *Ethernet
	ARP  *ARP
	IPv4 *IPv4Header
	ICMP *ICMPv4
	TCP  *TCP
	UDP  *UDP
	DHCP *DHCPv4
	DNS  *DNS
	FTP  *FTPControl
	// Payload is the undecoded remainder (application bytes for TCP/UDP
	// flows the L7 codecs don't recognize).
	Payload []byte
}

// Decode parses an Ethernet frame into a Packet, descending as deep as the
// codecs recognize. An error at any layer fails the whole decode: the
// simulator never produces half-valid frames, so tolerating them would only
// mask bugs.
//
// Decode is an Arena of one: the descent is Arena.Decode's, into an arena
// that is never Reset, so the returned packet owns its headers and its copy
// of the payload.
func Decode(data []byte) (*Packet, error) {
	var a Arena
	return a.Decode(data)
}

// decodeApp attempts L7 decoding by port. Failure is not an error: an
// unrecognized payload simply stays at L4, mirroring how a switch parser
// would give up at its maximum depth.
func (p *Packet) decodeApp(src, dst uint16, payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch {
	case src == PortDHCPServer || dst == PortDHCPServer || src == PortDHCPClient || dst == PortDHCPClient:
		d, c := new(DHCPv4), cursor{b: payload}
		if d.walk(&c); c.err == nil {
			p.DHCP = d
		}
	case src == PortDNS || dst == PortDNS:
		d, c := new(DNS), cursor{b: payload}
		if d.walk(&c); c.err == nil {
			p.DNS = d
		}
	case src == PortFTPControl || dst == PortFTPControl:
		if f, err := decodeFTPControl(payload); err == nil {
			p.FTP = f
		}
	}
}

// Encode serializes the packet to wire format, computing lengths and
// checksums. The L7 layer (or raw Payload) is serialized last, directly
// into the frame, and the enclosing headers are patched afterwards.
func (p *Packet) Encode() ([]byte, error) {
	return p.AppendEncode(make([]byte, 0, 128))
}

// AppendEncode is Encode appending to b, and the other driver of the
// layouts: each header's layout writes its fields in place, the payload
// lands, then each finish step writes its header's length and checksum,
// innermost first. Encoding performs no heap allocation once b has
// capacity; the wire exporter's hot path leans on this — one reusable
// buffer per connection, zero garbage per event. It refuses what Decode
// would read back differently or not at all: IPv4 flags or a fragment
// offset wider than their 3 and 13 bits, a DNS name outside RFC 1035's
// limits or an RCode wider than 4 bits, a DHCP Extra option decode would
// not keep in Extra, an FTP text with a line break, a command not in
// upper case or a reply code outside 100-599, an IPv4 datagram over
// 65535 bytes. A
// layout writes its constants rather than checks them, so on encode
// neither a layout nor a checksum can fail: their errors are decode's.
func (p *Packet) AppendEncode(b []byte) ([]byte, error) {
	if p.Eth == nil {
		return nil, fmt.Errorf("packet: cannot encode without an Ethernet layer")
	}
	var h []byte
	b, h = extend(b, ethernetHeaderLen)
	p.Eth.layout(h, true)
	switch {
	case p.ARP != nil:
		b, h = extend(b, arpLen)
		return b, p.ARP.layout(h, true)
	case p.IPv4 == nil:
		return append(b, p.Payload...), nil
	case p.IPv4.Flags > 7 || p.IPv4.FragOff > 0x1fff:
		return nil, fmt.Errorf("packet: IPv4 flags %d or fragment offset %d wider than 3 and 13 bits", p.IPv4.Flags, p.IPv4.FragOff)
	}
	ip := len(b)
	b, h = extend(b, ipv4HeaderLen)
	_ = p.IPv4.layout(h, true)
	seg := len(b)
	var err error
	switch p.IPv4.Protocol {
	case ProtoICMP:
		if p.ICMP == nil {
			return nil, fmt.Errorf("packet: IPv4 protocol ICMP but no ICMP layer")
		}
		b, h = extend(b, icmpHeaderLen)
		p.ICMP.layout(h, true)
		b = append(b, p.ICMP.Payload...)
		_ = p.ICMP.finish(b[seg:], true)
	case ProtoTCP:
		if p.TCP == nil {
			return nil, fmt.Errorf("packet: IPv4 protocol TCP but no TCP layer")
		}
		b, h = extend(b, tcpHeaderLen)
		_ = p.TCP.layout(h, true)
		if b, err = p.appendApp(b, p.TCP.Payload); err != nil {
			return nil, err
		}
		_ = p.TCP.finish(b[seg:], true, p.IPv4)
	case ProtoUDP:
		if p.UDP == nil {
			return nil, fmt.Errorf("packet: IPv4 protocol UDP but no UDP layer")
		}
		b, h = extend(b, udpHeaderLen)
		p.UDP.layout(h, true)
		if b, err = p.appendApp(b, p.UDP.Payload); err != nil {
			return nil, err
		}
		_, _ = p.UDP.finish(b[seg:], true, p.IPv4)
	default:
		b = append(b, p.Payload...)
	}
	if _, err := p.IPv4.finish(b[ip:], true); err != nil {
		return nil, err
	}
	return b, nil
}

// appendApp appends the L7 layer's serialization when a decoded L7
// layer is present, or the transport's raw payload bytes otherwise.
func (p *Packet) appendApp(b, raw []byte) ([]byte, error) {
	c := cursor{b: b, enc: true}
	switch {
	case p.DHCP != nil:
		p.DHCP.walk(&c)
	case p.DNS != nil:
		p.DNS.walk(&c)
	case p.FTP != nil:
		return p.FTP.appendLine(b)
	default:
		return append(b, raw...), nil
	}
	return c.b, c.err
}

// Clone returns a deep copy of the packet. Header-rewriting network
// functions (NAT) clone before mutating so other observers of the original
// packet are unaffected.
func (p *Packet) Clone() *Packet {
	q := &Packet{}
	if p.Eth != nil {
		e := *p.Eth
		q.Eth = &e
	}
	if p.ARP != nil {
		a := *p.ARP
		q.ARP = &a
	}
	if p.IPv4 != nil {
		h := *p.IPv4
		q.IPv4 = &h
	}
	if p.ICMP != nil {
		m := *p.ICMP
		m.Payload = append([]byte(nil), p.ICMP.Payload...)
		q.ICMP = &m
	}
	if p.TCP != nil {
		t := *p.TCP
		t.Payload = append([]byte(nil), p.TCP.Payload...)
		q.TCP = &t
	}
	if p.UDP != nil {
		u := *p.UDP
		u.Payload = append([]byte(nil), p.UDP.Payload...)
		q.UDP = &u
	}
	if p.DHCP != nil {
		d := *p.DHCP
		d.Extra = append([]DHCPOption(nil), p.DHCP.Extra...)
		q.DHCP = &d
	}
	if p.DNS != nil {
		d := *p.DNS
		d.Answers = append([]DNSAnswer(nil), p.DNS.Answers...)
		q.DNS = &d
	}
	if p.FTP != nil {
		f := *p.FTP
		q.FTP = &f
	}
	q.Payload = append([]byte(nil), p.Payload...)
	return q
}

// Summary renders a one-line human-readable description, used in traces
// and violation reports.
func (p *Packet) Summary() string { return string(p.AppendSummary(nil)) }

// AppendSummary appends Summary's rendering to b, so a caller rendering
// into a reused buffer allocates nothing.
func (p *Packet) AppendSummary(b []byte) []byte {
	switch {
	case p.ARP != nil:
		a := p.ARP
		b = append(b, "ARP "...)
		b = append(b, a.Op.String()...)
		b = append(b, ' ')
		b = a.SenderIP.appendTo(b)
		b = append(b, '(')
		b = a.SenderMAC.appendTo(b)
		b = append(b, ")->"...)
		b = a.TargetIP.appendTo(b)
		b = append(b, '(')
		b = a.TargetMAC.appendTo(b)
		b = append(b, ')')
	case p.IPv4 != nil:
		b = append(b, p.IPv4.Protocol.String()...)
		b = append(b, ' ')
		b = p.IPv4.Src.appendTo(b)
		b = append(b, "->"...)
		b = p.IPv4.Dst.appendTo(b)
		switch {
		case p.TCP != nil:
			b = appendPorts(b, p.TCP.SrcPort, p.TCP.DstPort)
			b = append(b, " flags "...)
			b = p.TCP.Flags.appendTo(b)
		case p.UDP != nil:
			b = appendPorts(b, p.UDP.SrcPort, p.UDP.DstPort)
		case p.ICMP != nil:
			b = append(b, " type "...)
			b = strconv.AppendUint(b, uint64(p.ICMP.Type), 10)
		}
		switch {
		case p.DHCP != nil:
			b = append(b, " DHCP "...)
			b = append(b, p.DHCP.MsgType.String()...)
		case p.DNS != nil:
			b = append(b, " DNS id="...)
			b = strconv.AppendUint(b, uint64(p.DNS.ID), 10)
			b = append(b, ' ')
			b = strconv.AppendQuote(b, p.DNS.QName)
		case p.FTP != nil && p.FTP.Command != "":
			b = append(b, " FTP "...)
			b = append(b, p.FTP.Command...)
		case p.FTP != nil:
			b = append(b, " FTP reply "...)
			b = strconv.AppendInt(b, int64(p.FTP.ReplyCode), 10)
		}
	case p.Eth != nil:
		b = append(b, p.Eth.Type.String()...)
		b = append(b, ' ')
		b = p.Eth.Src.appendTo(b)
		b = append(b, "->"...)
		b = p.Eth.Dst.appendTo(b)
	default:
		b = append(b, "empty packet"...)
	}
	return b
}

// appendPorts appends a transport header's " ports src->dst".
func appendPorts(b []byte, src, dst uint16) []byte {
	b = append(b, " ports "...)
	b = strconv.AppendUint(b, uint64(src), 10)
	b = append(b, "->"...)
	return strconv.AppendUint(b, uint64(dst), 10)
}
