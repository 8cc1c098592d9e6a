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

// The field registry. Grouped by required parsing layer.
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

// fieldInfo is the registry metadata for one field.
type fieldInfo struct {
	name  string
	layer Layer
}

var fieldRegistry = [numFields]fieldInfo{
	FieldInPort:    {"in_port", LayerMeta},
	FieldOutPort:   {"out_port", LayerMeta},
	FieldDropped:   {"dropped", LayerMeta},
	FieldMulticast: {"multicast", LayerMeta},
	FieldOOBKind:   {"oob.kind", LayerMeta},
	FieldOOBPort:   {"oob.port", LayerMeta},
	FieldSwitchID:  {"switch.id", LayerMeta},

	FieldEthSrc:  {"eth.src", Layer2},
	FieldEthDst:  {"eth.dst", Layer2},
	FieldEthType: {"eth.type", Layer2},

	FieldARPOp:        {"arp.op", Layer3},
	FieldARPSenderMAC: {"arp.sender_mac", Layer3},
	FieldARPSenderIP:  {"arp.sender_ip", Layer3},
	FieldARPTargetMAC: {"arp.target_mac", Layer3},
	FieldARPTargetIP:  {"arp.target_ip", Layer3},
	FieldIPSrc:        {"ip.src", Layer3},
	FieldIPDst:        {"ip.dst", Layer3},
	FieldIPProto:      {"ip.proto", Layer3},
	FieldIPTTL:        {"ip.ttl", Layer3},

	FieldSrcPort:  {"l4.src_port", Layer4},
	FieldDstPort:  {"l4.dst_port", Layer4},
	FieldTCPFlags: {"tcp.flags", Layer4},
	FieldTCPSyn:   {"tcp.syn", Layer4},
	FieldTCPFin:   {"tcp.fin", Layer4},
	FieldTCPRst:   {"tcp.rst", Layer4},
	FieldICMPType: {"icmp.type", Layer4},
	FieldICMPCode: {"icmp.code", Layer4},
	FieldICMPID:   {"icmp.id", Layer4},
	FieldICMPSeq:  {"icmp.seq", Layer4},

	FieldDHCPMsgType:     {"dhcp.msg_type", Layer7},
	FieldDHCPClientMAC:   {"dhcp.client_mac", Layer7},
	FieldDHCPYourIP:      {"dhcp.your_ip", Layer7},
	FieldDHCPRequestedIP: {"dhcp.requested_ip", Layer7},
	FieldDHCPServerID:    {"dhcp.server_id", Layer7},
	FieldDHCPLeaseSecs:   {"dhcp.lease_secs", Layer7},
	FieldDHCPXid:         {"dhcp.xid", Layer7},
	FieldDNSID:           {"dns.id", Layer7},
	FieldDNSResponse:     {"dns.response", Layer7},
	FieldDNSQName:        {"dns.qname", Layer7},
	FieldDNSAnswerIP:     {"dns.answer_ip", Layer7},
	FieldFTPCommand:      {"ftp.command", Layer7},
	FieldFTPReplyCode:    {"ftp.reply_code", Layer7},
	FieldFTPDataIP:       {"ftp.data_ip", Layer7},
	FieldFTPDataPort:     {"ftp.data_port", Layer7},
}

// String returns the canonical dotted name used by the DSL.
func (f Field) String() string {
	if f < numFields && fieldRegistry[f].name != "" {
		return fieldRegistry[f].name
	}
	return fmt.Sprintf("Field(%d)", uint16(f))
}

// Layer reports the parsing depth required to extract f.
func (f Field) Layer() Layer {
	if f < numFields {
		return fieldRegistry[f].layer
	}
	return LayerMeta
}

// Valid reports whether f names a registered field.
func (f Field) Valid() bool {
	return f > FieldInvalid && f < numFields && fieldRegistry[f].name != ""
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
		if fieldRegistry[f].name != "" {
			out = append(out, f)
		}
	}
	return out
}

var fieldsByName = func() map[string]Field {
	m := make(map[string]Field, numFields)
	for f := Field(1); f < numFields; f++ {
		if n := fieldRegistry[f].name; n != "" {
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
	switch f {
	case FieldEthSrc:
		if p.Eth != nil {
			return Num(p.Eth.Src.Uint64()), true
		}
	case FieldEthDst:
		if p.Eth != nil {
			return Num(p.Eth.Dst.Uint64()), true
		}
	case FieldEthType:
		if p.Eth != nil {
			return Num(uint64(p.Eth.Type)), true
		}
	case FieldARPOp:
		if p.ARP != nil {
			return Num(uint64(p.ARP.Op)), true
		}
	case FieldARPSenderMAC:
		if p.ARP != nil {
			return Num(p.ARP.SenderMAC.Uint64()), true
		}
	case FieldARPSenderIP:
		if p.ARP != nil {
			return Num(p.ARP.SenderIP.Uint64()), true
		}
	case FieldARPTargetMAC:
		if p.ARP != nil {
			return Num(p.ARP.TargetMAC.Uint64()), true
		}
	case FieldARPTargetIP:
		if p.ARP != nil {
			return Num(p.ARP.TargetIP.Uint64()), true
		}
	case FieldIPSrc:
		if p.IPv4 != nil {
			return Num(p.IPv4.Src.Uint64()), true
		}
	case FieldIPDst:
		if p.IPv4 != nil {
			return Num(p.IPv4.Dst.Uint64()), true
		}
	case FieldIPProto:
		if p.IPv4 != nil {
			return Num(uint64(p.IPv4.Protocol)), true
		}
	case FieldIPTTL:
		if p.IPv4 != nil {
			return Num(uint64(p.IPv4.TTL)), true
		}
	case FieldSrcPort:
		switch {
		case p.TCP != nil:
			return Num(uint64(p.TCP.SrcPort)), true
		case p.UDP != nil:
			return Num(uint64(p.UDP.SrcPort)), true
		}
	case FieldDstPort:
		switch {
		case p.TCP != nil:
			return Num(uint64(p.TCP.DstPort)), true
		case p.UDP != nil:
			return Num(uint64(p.UDP.DstPort)), true
		}
	case FieldTCPFlags:
		if p.TCP != nil {
			return Num(uint64(p.TCP.Flags)), true
		}
	case FieldTCPSyn:
		if p.TCP != nil {
			return boolValue(p.TCP.Flags.Has(FlagSYN)), true
		}
	case FieldTCPFin:
		if p.TCP != nil {
			return boolValue(p.TCP.Flags.Has(FlagFIN)), true
		}
	case FieldTCPRst:
		if p.TCP != nil {
			return boolValue(p.TCP.Flags.Has(FlagRST)), true
		}
	case FieldICMPType:
		if p.ICMP != nil {
			return Num(uint64(p.ICMP.Type)), true
		}
	case FieldICMPCode:
		if p.ICMP != nil {
			return Num(uint64(p.ICMP.Code)), true
		}
	case FieldICMPID:
		if p.ICMP != nil {
			return Num(uint64(p.ICMP.ID)), true
		}
	case FieldICMPSeq:
		if p.ICMP != nil {
			return Num(uint64(p.ICMP.Seq)), true
		}
	case FieldDHCPMsgType:
		if p.DHCP != nil {
			return Num(uint64(p.DHCP.MsgType)), true
		}
	case FieldDHCPClientMAC:
		if p.DHCP != nil {
			return Num(p.DHCP.ClientMAC.Uint64()), true
		}
	case FieldDHCPYourIP:
		if p.DHCP != nil {
			return Num(p.DHCP.YourIP.Uint64()), true
		}
	case FieldDHCPRequestedIP:
		if p.DHCP != nil {
			return Num(p.DHCP.RequestedIP.Uint64()), true
		}
	case FieldDHCPServerID:
		if p.DHCP != nil {
			return Num(p.DHCP.ServerID.Uint64()), true
		}
	case FieldDHCPLeaseSecs:
		if p.DHCP != nil {
			return Num(uint64(p.DHCP.LeaseSecs)), true
		}
	case FieldDHCPXid:
		if p.DHCP != nil {
			return Num(uint64(p.DHCP.Xid)), true
		}
	case FieldDNSID:
		if p.DNS != nil {
			return Num(uint64(p.DNS.ID)), true
		}
	case FieldDNSResponse:
		if p.DNS != nil {
			return boolValue(p.DNS.Response), true
		}
	case FieldDNSQName:
		if p.DNS != nil {
			return Str(p.DNS.QName), true
		}
	case FieldDNSAnswerIP:
		if p.DNS != nil && len(p.DNS.Answers) > 0 {
			return Num(p.DNS.Answers[0].Addr.Uint64()), true
		}
	case FieldFTPCommand:
		if p.FTP != nil && p.FTP.Command != "" {
			return Str(p.FTP.Command), true
		}
	case FieldFTPReplyCode:
		if p.FTP != nil && p.FTP.ReplyCode != 0 {
			return Num(uint64(p.FTP.ReplyCode)), true
		}
	case FieldFTPDataIP:
		if p.FTP != nil && p.FTP.DataPort != 0 {
			return Num(p.FTP.DataIP.Uint64()), true
		}
	case FieldFTPDataPort:
		if p.FTP != nil && p.FTP.DataPort != 0 {
			return Num(uint64(p.FTP.DataPort)), true
		}
	}
	return Value{}, false
}
