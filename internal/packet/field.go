package packet

import (
	"fmt"
	"strconv"
)

// Layer classifies how deep a parser must reach to produce a field. The
// paper's Table 1 uses the maximum required layer of each property as a
// complexity indicator; LayerMeta marks switch metadata (ports, drop
// decisions) that is not in the packet at all — the parsing gap Sec. 3.2
// highlights.
type Layer uint8

// Parsing depths.
const (
	LayerMeta Layer = 0 // switch metadata, not packet bytes
	Layer2    Layer = 2
	Layer3    Layer = 3
	Layer4    Layer = 4
	Layer7    Layer = 7
)

// String renders the conventional "L2".."L7" notation; metadata renders as
// "meta".
func (l Layer) String() string {
	if l == LayerMeta {
		return "meta"
	}
	return fmt.Sprintf("L%d", uint8(l))
}

// Field names a single matchable quantity — a packet header field or a
// piece of switch metadata. Properties are written in terms of Fields; the
// monitor extracts them from events (Feature 1).
type Field uint16

// The fields, grouped by required parsing layer.
const (
	FieldInvalid Field = iota

	// Switch metadata (LayerMeta).
	FieldInPort    // ingress port of an arrival
	FieldOutPort   // egress port of a departure
	FieldDropped   // 1 if the switch dropped the packet, else 0
	FieldMulticast // 1 if the departure went to more than one port
	FieldOOBKind   // out-of-band event kind (link down/up, ...)
	FieldOOBPort   // port an out-of-band event concerns
	FieldSwitchID  // datapath id of the switch that emitted the event

	// Layer 2.
	FieldEthSrc
	FieldEthDst
	FieldEthType

	// Layer 3.
	FieldARPOp
	FieldARPSenderMAC
	FieldARPSenderIP
	FieldARPTargetMAC
	FieldARPTargetIP
	FieldIPSrc
	FieldIPDst
	FieldIPProto
	FieldIPTTL

	// Layer 4.
	FieldSrcPort
	FieldDstPort
	FieldTCPFlags
	FieldTCPSyn
	FieldTCPFin
	FieldTCPRst
	FieldICMPType
	FieldICMPCode
	FieldICMPID
	FieldICMPSeq

	// Layer 7.
	FieldDHCPMsgType
	FieldDHCPClientMAC
	FieldDHCPYourIP
	FieldDHCPRequestedIP
	FieldDHCPServerID
	FieldDHCPLeaseSecs
	FieldDHCPXid
	FieldDNSID
	FieldDNSResponse
	FieldDNSQName
	FieldDNSAnswerIP
	FieldFTPCommand
	FieldFTPReplyCode
	FieldFTPDataIP
	FieldFTPDataPort

	numFields // sentinel
)

// fieldInfo is one row of the field table: the field's name, the layer
// a parser must reach for it, its getter and, for a field a rule may
// rewrite, its setter.
type fieldInfo struct {
	name  string
	layer Layer
	get   func(*Packet) (Value, bool)
	set   func(*Packet, Value) bool
}

// on reads a field from layer l, which is nil when the packet lacks it.
// An absent field reads as the zero Value.
func on[L any](l *L, read func(*L) (Value, bool)) (Value, bool) {
	if l != nil {
		if v, ok := read(l); ok {
			return v, true
		}
	}
	return Value{}, false
}

// to writes a field into layer l, reporting false when the packet lacks
// it.
func to[L any](l *L, write func(*L)) bool {
	if l != nil {
		write(l)
	}
	return l != nil
}

// onEvent is the getter of switch metadata, which lives on events
// (core.Event.Field), never in a packet, and of FieldInvalid.
func onEvent(*Packet) (Value, bool) { return Value{}, false }

// port is the transport header's source or destination port, TCP's or
// UDP's, nil when the packet carries neither.
func (p *Packet) port(dst bool) *uint16 {
	switch {
	case p.TCP != nil && dst:
		return &p.TCP.DstPort
	case p.TCP != nil:
		return &p.TCP.SrcPort
	case p.UDP != nil && dst:
		return &p.UDP.DstPort
	case p.UDP != nil:
		return &p.UDP.SrcPort
	}
	return nil
}

// fieldTable is the field table: one row per field, in declaration
// order.
var fieldTable = [numFields]fieldInfo{
	FieldInvalid:   {"", LayerMeta, onEvent, nil},
	FieldInPort:    {"in_port", LayerMeta, onEvent, nil},
	FieldOutPort:   {"out_port", LayerMeta, onEvent, nil},
	FieldDropped:   {"dropped", LayerMeta, onEvent, nil},
	FieldMulticast: {"multicast", LayerMeta, onEvent, nil},
	FieldOOBKind:   {"oob.kind", LayerMeta, onEvent, nil},
	FieldOOBPort:   {"oob.port", LayerMeta, onEvent, nil},
	FieldSwitchID:  {"switch.id", LayerMeta, onEvent, nil},

	FieldEthSrc: {"eth.src", Layer2, func(p *Packet) (Value, bool) {
		return on(p.Eth, func(e *Ethernet) (Value, bool) { return Num(e.Src.Uint64()), true })
	}, func(p *Packet, v Value) bool {
		return to(p.Eth, func(e *Ethernet) { e.Src = MACFromUint64(v.Uint64()) })
	}},
	FieldEthDst: {"eth.dst", Layer2, func(p *Packet) (Value, bool) {
		return on(p.Eth, func(e *Ethernet) (Value, bool) { return Num(e.Dst.Uint64()), true })
	}, func(p *Packet, v Value) bool {
		return to(p.Eth, func(e *Ethernet) { e.Dst = MACFromUint64(v.Uint64()) })
	}},
	FieldEthType: {"eth.type", Layer2, func(p *Packet) (Value, bool) {
		return on(p.Eth, func(e *Ethernet) (Value, bool) { return Num(uint64(e.Type)), true })
	}, nil},

	FieldARPOp: {"arp.op", Layer3, func(p *Packet) (Value, bool) {
		return on(p.ARP, func(a *ARP) (Value, bool) { return Num(uint64(a.Op)), true })
	}, nil},
	FieldARPSenderMAC: {"arp.sender_mac", Layer3, func(p *Packet) (Value, bool) {
		return on(p.ARP, func(a *ARP) (Value, bool) { return Num(a.SenderMAC.Uint64()), true })
	}, nil},
	FieldARPSenderIP: {"arp.sender_ip", Layer3, func(p *Packet) (Value, bool) {
		return on(p.ARP, func(a *ARP) (Value, bool) { return Num(a.SenderIP.Uint64()), true })
	}, nil},
	FieldARPTargetMAC: {"arp.target_mac", Layer3, func(p *Packet) (Value, bool) {
		return on(p.ARP, func(a *ARP) (Value, bool) { return Num(a.TargetMAC.Uint64()), true })
	}, nil},
	FieldARPTargetIP: {"arp.target_ip", Layer3, func(p *Packet) (Value, bool) {
		return on(p.ARP, func(a *ARP) (Value, bool) { return Num(a.TargetIP.Uint64()), true })
	}, nil},
	FieldIPSrc: {"ip.src", Layer3, func(p *Packet) (Value, bool) {
		return on(p.IPv4, func(h *IPv4Header) (Value, bool) { return Num(h.Src.Uint64()), true })
	}, func(p *Packet, v Value) bool {
		return to(p.IPv4, func(h *IPv4Header) { h.Src = IPv4FromUint32(uint32(v.Uint64())) })
	}},
	FieldIPDst: {"ip.dst", Layer3, func(p *Packet) (Value, bool) {
		return on(p.IPv4, func(h *IPv4Header) (Value, bool) { return Num(h.Dst.Uint64()), true })
	}, func(p *Packet, v Value) bool {
		return to(p.IPv4, func(h *IPv4Header) { h.Dst = IPv4FromUint32(uint32(v.Uint64())) })
	}},
	FieldIPProto: {"ip.proto", Layer3, func(p *Packet) (Value, bool) {
		return on(p.IPv4, func(h *IPv4Header) (Value, bool) { return Num(uint64(h.Protocol)), true })
	}, nil},
	FieldIPTTL: {"ip.ttl", Layer3, func(p *Packet) (Value, bool) {
		return on(p.IPv4, func(h *IPv4Header) (Value, bool) { return Num(uint64(h.TTL)), true })
	}, func(p *Packet, v Value) bool {
		return to(p.IPv4, func(h *IPv4Header) { h.TTL = uint8(v.Uint64()) })
	}},

	FieldSrcPort: {"l4.src_port", Layer4, func(p *Packet) (Value, bool) {
		return on(p.port(false), func(x *uint16) (Value, bool) { return Num(uint64(*x)), true })
	}, func(p *Packet, v Value) bool {
		return to(p.port(false), func(x *uint16) { *x = uint16(v.Uint64()) })
	}},
	FieldDstPort: {"l4.dst_port", Layer4, func(p *Packet) (Value, bool) {
		return on(p.port(true), func(x *uint16) (Value, bool) { return Num(uint64(*x)), true })
	}, func(p *Packet, v Value) bool {
		return to(p.port(true), func(x *uint16) { *x = uint16(v.Uint64()) })
	}},
	FieldTCPFlags: {"tcp.flags", Layer4, func(p *Packet) (Value, bool) {
		return on(p.TCP, func(t *TCP) (Value, bool) { return Num(uint64(t.Flags)), true })
	}, nil},
	FieldTCPSyn: {"tcp.syn", Layer4, func(p *Packet) (Value, bool) {
		return on(p.TCP, func(t *TCP) (Value, bool) { return boolValue(t.Flags.Has(FlagSYN)), true })
	}, nil},
	FieldTCPFin: {"tcp.fin", Layer4, func(p *Packet) (Value, bool) {
		return on(p.TCP, func(t *TCP) (Value, bool) { return boolValue(t.Flags.Has(FlagFIN)), true })
	}, nil},
	FieldTCPRst: {"tcp.rst", Layer4, func(p *Packet) (Value, bool) {
		return on(p.TCP, func(t *TCP) (Value, bool) { return boolValue(t.Flags.Has(FlagRST)), true })
	}, nil},
	FieldICMPType: {"icmp.type", Layer4, func(p *Packet) (Value, bool) {
		return on(p.ICMP, func(m *ICMPv4) (Value, bool) { return Num(uint64(m.Type)), true })
	}, nil},
	FieldICMPCode: {"icmp.code", Layer4, func(p *Packet) (Value, bool) {
		return on(p.ICMP, func(m *ICMPv4) (Value, bool) { return Num(uint64(m.Code)), true })
	}, nil},
	FieldICMPID: {"icmp.id", Layer4, func(p *Packet) (Value, bool) {
		return on(p.ICMP, func(m *ICMPv4) (Value, bool) { return Num(uint64(m.ID)), true })
	}, nil},
	FieldICMPSeq: {"icmp.seq", Layer4, func(p *Packet) (Value, bool) {
		return on(p.ICMP, func(m *ICMPv4) (Value, bool) { return Num(uint64(m.Seq)), true })
	}, nil},

	FieldDHCPMsgType: {"dhcp.msg_type", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DHCP, func(d *DHCPv4) (Value, bool) { return Num(uint64(d.MsgType)), true })
	}, nil},
	FieldDHCPClientMAC: {"dhcp.client_mac", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DHCP, func(d *DHCPv4) (Value, bool) { return Num(d.ClientMAC.Uint64()), true })
	}, nil},
	FieldDHCPYourIP: {"dhcp.your_ip", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DHCP, func(d *DHCPv4) (Value, bool) { return Num(d.YourIP.Uint64()), true })
	}, nil},
	FieldDHCPRequestedIP: {"dhcp.requested_ip", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DHCP, func(d *DHCPv4) (Value, bool) { return Num(d.RequestedIP.Uint64()), true })
	}, nil},
	FieldDHCPServerID: {"dhcp.server_id", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DHCP, func(d *DHCPv4) (Value, bool) { return Num(d.ServerID.Uint64()), true })
	}, nil},
	FieldDHCPLeaseSecs: {"dhcp.lease_secs", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DHCP, func(d *DHCPv4) (Value, bool) { return Num(uint64(d.LeaseSecs)), true })
	}, nil},
	FieldDHCPXid: {"dhcp.xid", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DHCP, func(d *DHCPv4) (Value, bool) { return Num(uint64(d.Xid)), true })
	}, nil},
	FieldDNSID: {"dns.id", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DNS, func(d *DNS) (Value, bool) { return Num(uint64(d.ID)), true })
	}, nil},
	FieldDNSResponse: {"dns.response", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DNS, func(d *DNS) (Value, bool) { return boolValue(d.Response), true })
	}, nil},
	FieldDNSQName: {"dns.qname", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DNS, func(d *DNS) (Value, bool) { return Str(d.QName), true })
	}, nil},
	FieldDNSAnswerIP: {"dns.answer_ip", Layer7, func(p *Packet) (Value, bool) {
		return on(p.DNS, func(d *DNS) (Value, bool) {
			if len(d.Answers) == 0 {
				return Value{}, false
			}
			return Num(d.Answers[0].Addr.Uint64()), true
		})
	}, nil},
	FieldFTPCommand: {"ftp.command", Layer7, func(p *Packet) (Value, bool) {
		return on(p.FTP, func(f *FTPControl) (Value, bool) { return Str(f.Command), f.Command != "" })
	}, nil},
	FieldFTPReplyCode: {"ftp.reply_code", Layer7, func(p *Packet) (Value, bool) {
		return on(p.FTP, func(f *FTPControl) (Value, bool) { return Num(uint64(f.ReplyCode)), f.ReplyCode != 0 })
	}, nil},
	FieldFTPDataIP: {"ftp.data_ip", Layer7, func(p *Packet) (Value, bool) {
		return on(p.FTP, func(f *FTPControl) (Value, bool) { return Num(f.DataIP.Uint64()), f.DataPort != 0 })
	}, nil},
	FieldFTPDataPort: {"ftp.data_port", Layer7, func(p *Packet) (Value, bool) {
		return on(p.FTP, func(f *FTPControl) (Value, bool) { return Num(uint64(f.DataPort)), f.DataPort != 0 })
	}, nil},
}

// String returns the canonical dotted name used by the DSL.
func (f Field) String() string {
	if f < numFields && fieldTable[f].name != "" {
		return fieldTable[f].name
	}
	return fmt.Sprintf("Field(%d)", uint16(f))
}

// Layer reports the parsing depth required to extract f.
func (f Field) Layer() Layer {
	if f < numFields {
		return fieldTable[f].layer
	}
	return LayerMeta
}

// Valid reports whether f names a registered field.
func (f Field) Valid() bool {
	return f > FieldInvalid && f < numFields && fieldTable[f].name != ""
}

// FieldByName resolves a canonical dotted name to its Field.
func FieldByName(name string) (Field, bool) {
	f, ok := fieldsByName[name]
	return f, ok
}

// AllFields returns every registered field, in declaration order.
func AllFields() []Field {
	out := make([]Field, 0, int(numFields)-1)
	for f := Field(1); f < numFields; f++ {
		if fieldTable[f].name != "" {
			out = append(out, f)
		}
	}
	return out
}

var fieldsByName = func() map[string]Field {
	m := make(map[string]Field, numFields)
	for f := Field(1); f < numFields; f++ {
		if n := fieldTable[f].name; n != "" {
			m[n] = f
		}
	}
	return m
}()

// Value is a field value: either a number (addresses, ports, flags —
// everything that packs into 64 bits) or a string (names, FTP verbs).
// Value is comparable with ==, so it serves directly as a map key in the
// monitor's instance indexes.
type Value struct {
	str   string
	num   uint64
	isStr bool
}

// Num returns a numeric Value.
func Num(v uint64) Value { return Value{num: v} }

// Str returns a string Value.
func Str(s string) Value { return Value{str: s, isStr: true} }

// IsStr reports whether v holds a string.
func (v Value) IsStr() bool { return v.isStr }

// Uint64 returns the numeric content (0 for string values).
func (v Value) Uint64() uint64 { return v.num }

// Text returns the string content ("" for numeric values).
func (v Value) Text() string { return v.str }

// Less orders values: numerics before strings, then by content. Used for
// deterministic iteration in reports.
func (v Value) Less(o Value) bool {
	if v.isStr != o.isStr {
		return !v.isStr
	}
	if v.isStr {
		return v.str < o.str
	}
	return v.num < o.num
}

// String renders the value for reports.
func (v Value) String() string {
	if v.isStr {
		return strconv.Quote(v.str)
	}
	return strconv.FormatUint(v.num, 10)
}

// boolValue converts a bool to the numeric 0/1 Value convention.
func boolValue(b bool) Value {
	if b {
		return Num(1)
	}
	return Num(0)
}

// Field extracts a packet field. The second result is false when the
// packet does not carry the field's layer (or the field is switch
// metadata, which lives on events, not packets).
func (p *Packet) Field(f Field) (Value, bool) {
	if f >= numFields {
		return Value{}, false
	}
	return fieldTable[f].get(p)
}

// SetField rewrites field f of p in place. It fails for a field no rule
// may rewrite and for a packet without the field's layer.
func (p *Packet) SetField(f Field, v Value) error {
	if !f.Valid() || fieldTable[f].set == nil {
		return fmt.Errorf("packet: field %v is not rewritable", f)
	}
	if !fieldTable[f].set(p, v) {
		return fmt.Errorf("packet: set %v on a packet without its %v layer", f, f.Layer())
	}
	return nil
}
