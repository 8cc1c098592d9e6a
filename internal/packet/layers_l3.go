package packet

import (
	"encoding/binary"
	"fmt"
)

// IPProto identifies the transport protocol of an IPv4 packet.
type IPProto uint8

// IP protocol numbers used in this repository.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

// String names well-known protocols.
func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("IPProto(%d)", uint8(p))
	}
}

// IPv4Header is an IPv4 header without options (IHL=5). The monitor's
// properties never match on IP options, and the simulated network functions
// never emit them, so the codec rejects them explicitly rather than
// mis-parsing.
type IPv4Header struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol IPProto
	Src      IPv4
	Dst      IPv4
}

const ipv4HeaderLen = 20

// layout moves the header's fields between h and b, its 20 bytes. The
// total length (b[2:4]) and the checksum (b[10:12]) are finish's.
func (h *IPv4Header) layout(b []byte, enc bool) error {
	u8(b[1:2], &h.TOS, enc)
	u16(b[4:6], &h.ID, enc)
	frag := uint16(h.Flags)<<13 | h.FragOff&0x1fff
	u16(b[6:8], &frag, enc)
	if !enc {
		h.Flags, h.FragOff = uint8(frag>>13), frag&0x1fff
	}
	u8(b[8:9], &h.TTL, enc)
	u8(b[9:10], &h.Protocol, enc)
	addr(b[12:16], h.Src[:], enc)
	addr(b[16:20], h.Dst[:], enc)
	return constant(b[0:1], "\x45", "IPv4 version/IHL (version 4, no options)", enc)
}

// finish is the step after the fields, over the datagram d (this header
// first): encode writes its total length, len(d), and the header
// checksum; decode checks both and returns d cut to the total length.
func (h *IPv4Header) finish(d []byte, enc bool) ([]byte, error) {
	if enc {
		if len(d) > 0xffff {
			return nil, fmt.Errorf("packet: IPv4 datagram of %d bytes exceeds 65535", len(d))
		}
		binary.BigEndian.PutUint16(d[2:4], uint16(len(d)))
	} else if total := int(binary.BigEndian.Uint16(d[2:4])); total >= ipv4HeaderLen && total <= len(d) {
		d = d[:total]
	} else {
		return nil, fmt.Errorf("packet: IPv4 total length %d outside frame of %d", total, len(d))
	}
	if !checksum(d[:ipv4HeaderLen], 10, 0, enc) {
		return nil, fmt.Errorf("packet: bad IPv4 header checksum")
	}
	return d, nil
}

// internetChecksum computes the RFC 1071 ones-complement checksum of data,
// folded with the initial partial sum. A data slice of odd length is padded
// with a zero byte. Verifying a message that embeds its own checksum yields
// zero.
func internetChecksum(data []byte, initial uint32) uint16 {
	sum := initial
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum computes the partial sum of the IPv4 pseudo-header used
// by TCP and UDP checksums.
func pseudoHeaderSum(src, dst IPv4, proto IPProto, length int) uint32 {
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(src[0:2]))
	sum += uint32(binary.BigEndian.Uint16(src[2:4]))
	sum += uint32(binary.BigEndian.Uint16(dst[0:2]))
	sum += uint32(binary.BigEndian.Uint16(dst[2:4]))
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// ICMPType is the ICMPv4 message type.
type ICMPType uint8

// ICMPv4 message types used in this repository.
const (
	ICMPEchoReply   ICMPType = 0
	ICMPUnreachable ICMPType = 3
	ICMPEchoRequest ICMPType = 8
	ICMPTimeExceed  ICMPType = 11
)

// ICMPv4 is an ICMPv4 message. For echo messages, ID and Seq are
// meaningful; for others they carry the "rest of header" word.
type ICMPv4 struct {
	Type    ICMPType
	Code    uint8
	ID      uint16
	Seq     uint16
	Payload []byte
}

const icmpHeaderLen = 8

// layout moves the header's fields between m and b, its 8 bytes. The
// checksum (b[2:4]) is finish's.
func (m *ICMPv4) layout(b []byte, enc bool) {
	u8(b[0:1], &m.Type, enc)
	u8(b[1:2], &m.Code, enc)
	u16(b[4:6], &m.ID, enc)
	u16(b[6:8], &m.Seq, enc)
}

// finish is the step after the fields, over the whole message msg:
// encode writes its checksum, decode verifies it.
func (m *ICMPv4) finish(msg []byte, enc bool) error {
	if !checksum(msg, 2, 0, enc) {
		return fmt.Errorf("packet: bad ICMP checksum")
	}
	return nil
}
