package packet

import "fmt"

// Arena is a slab allocator for decoded packets, and Arena.Decode is the
// package's one header descent: Decode is an arena of one. One Arena per
// wire batch amortizes header allocation across every packet in the batch:
// each layer struct lands in a typed slab and payload bytes in one
// shared buffer, so a steady state of same-shaped batches decodes with
// zero per-packet heap allocations once the slabs have grown to the
// batch's working set.
//
// Packets decoded through an Arena stay valid until the owner calls
// Reset. That contract is safe for the monitoring engine because it
// retains only value copies of what it reads — field bindings are
// packet.Value copies and provenance records are Summary strings —
// never *Packet or layer pointers (see DESIGN.md §5g for the full
// borrow/release lifecycle).
//
// Slab growth is append-based: when a slab grows, future headers move
// to a new backing array while pointers already handed out keep the old
// one alive, so earlier packets in the batch are never invalidated.
type Arena struct {
	pkts  []Packet
	eths  []Ethernet
	arps  []ARP
	ips   []IPv4Header
	icmps []ICMPv4
	tcps  []TCP
	udps  []UDP
	bytes []byte
}

// Reset truncates every slab for reuse, keeping the final backing
// arrays. Every packet previously decoded through the arena becomes
// invalid.
func (a *Arena) Reset() {
	a.pkts = a.pkts[:0]
	a.eths = a.eths[:0]
	a.arps = a.arps[:0]
	a.ips = a.ips[:0]
	a.icmps = a.icmps[:0]
	a.tcps = a.tcps[:0]
	a.udps = a.udps[:0]
	a.bytes = a.bytes[:0]
}

// grab appends a zero value to the slab and returns its address. The
// zero-then-parse order means a half-parsed entry never leaks stale
// fields from a previous batch.
func grab[T any](s *[]T) *T {
	if cap(*s) == 0 {
		// An empty slab (a fresh arena, such as Decode's arena of one)
		// starts from a one-element array: the same allocation append
		// would make, without growslice's cost.
		one := new([1]T)
		*s = one[:]
		return &one[0]
	}
	var zero T
	*s = append(*s, zero)
	return &(*s)[len(*s)-1]
}

// copyBytes copies src into the shared byte slab, returning a
// capacity-clamped view (so later appends cannot scribble on it).
func (a *Arena) copyBytes(src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	n := len(a.bytes)
	a.bytes = append(a.bytes, src...)
	return a.bytes[n:len(a.bytes):len(a.bytes)]
}

// Decode parses an Ethernet frame into a Packet whose headers and
// payload bytes live in the arena (packet.Decode is this descent into a
// fresh arena), driving each header's layout and then its finish step.
// The L7 layers (DHCP, DNS, FTP) still heap-allocate — they are
// string-heavy, rare, and outside every hot path — but L2–L4 headers and
// payload bytes all come from the slabs.
func (a *Arena) Decode(data []byte) (*Packet, error) {
	if len(data) < ethernetHeaderLen {
		return nil, short("ethernet frame", data)
	}
	p := grab(&a.pkts)
	p.Eth = grab(&a.eths)
	p.Eth.layout(data[:ethernetHeaderLen], false)
	rest := data[ethernetHeaderLen:]
	switch p.Eth.Type {
	case EtherTypeARP:
		if len(rest) < arpLen {
			return nil, short("ARP message", rest)
		}
		p.ARP = grab(&a.arps)
		if err := p.ARP.layout(rest[:arpLen], false); err != nil {
			return nil, err
		}
	case EtherTypeIPv4:
		if len(rest) < ipv4HeaderLen {
			return nil, short("IPv4 header", rest)
		}
		p.IPv4 = grab(&a.ips)
		if err := p.IPv4.layout(rest[:ipv4HeaderLen], false); err != nil {
			return nil, err
		}
		d, err := p.IPv4.finish(rest, false)
		if err != nil {
			return nil, err
		}
		if err := a.transport(p, d[ipv4HeaderLen:]); err != nil {
			return nil, err
		}
	default:
		p.Payload = a.copyBytes(rest)
	}
	return p, nil
}

// transport decodes the IPv4 payload seg by the header's protocol.
func (a *Arena) transport(p *Packet, seg []byte) error {
	switch p.IPv4.Protocol {
	case ProtoICMP:
		if len(seg) < icmpHeaderLen {
			return short("ICMP message", seg)
		}
		p.ICMP = grab(&a.icmps)
		p.ICMP.layout(seg[:icmpHeaderLen], false)
		if err := p.ICMP.finish(seg, false); err != nil {
			return err
		}
		p.ICMP.Payload = a.copyBytes(seg[icmpHeaderLen:])
	case ProtoTCP:
		if len(seg) < tcpHeaderLen {
			return short("TCP segment", seg)
		}
		t := grab(&a.tcps)
		if err := t.layout(seg[:tcpHeaderLen], false); err != nil {
			return err
		}
		if err := t.finish(seg, false, p.IPv4); err != nil {
			return err
		}
		t.Payload = a.copyBytes(seg[tcpHeaderLen:])
		p.TCP = t
		p.decodeApp(t.SrcPort, t.DstPort, t.Payload)
	case ProtoUDP:
		if len(seg) < udpHeaderLen {
			return short("UDP datagram", seg)
		}
		u := grab(&a.udps)
		u.layout(seg[:udpHeaderLen], false)
		d, err := u.finish(seg, false, p.IPv4)
		if err != nil {
			return err
		}
		u.Payload = a.copyBytes(d[udpHeaderLen:])
		p.UDP = u
		p.decodeApp(u.SrcPort, u.DstPort, u.Payload)
	default:
		p.Payload = a.copyBytes(seg)
	}
	return nil
}

// short reports a layer that ends before its fixed header does.
func short(layer string, data []byte) error {
	return fmt.Errorf("packet: %s too short (%d bytes)", layer, len(data))
}
