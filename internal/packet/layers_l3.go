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

// encodeTo appends the header plus payload length bookkeeping; payloadLen
// is the length of everything after the header.
func (h *IPv4Header) encodeTo(b []byte, payloadLen int) []byte {
	start := len(b)
	b = append(b, 0x45, h.TOS) // version 4, IHL 5
	b = binary.BigEndian.AppendUint16(b, uint16(ipv4HeaderLen+payloadLen))
	b = binary.BigEndian.AppendUint16(b, h.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b = append(b, h.TTL, byte(h.Protocol))
	b = append(b, 0, 0) // checksum, written below once the header is complete
	b = append(b, h.Src[:]...)
	b = append(b, h.Dst[:]...)
	sum := internetChecksum(b[start:], 0)
	binary.BigEndian.PutUint16(b[start+10:start+12], sum)
	return b
}

// patchIPv4 rewrites an already-appended header's total length for the
// actual payload size and recomputes the header checksum in place. hdr
// is the 20-byte header region within the frame buffer.
func patchIPv4(hdr []byte, payloadLen int) {
	binary.BigEndian.PutUint16(hdr[2:4], uint16(ipv4HeaderLen+payloadLen))
	hdr[10], hdr[11] = 0, 0
	binary.BigEndian.PutUint16(hdr[10:12], internetChecksum(hdr[:ipv4HeaderLen], 0))
}

func parseIPv4(h *IPv4Header, data []byte) ([]byte, error) {
	if len(data) < ipv4HeaderLen {
		return nil, fmt.Errorf("packet: IPv4 header too short (%d bytes)", len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return nil, fmt.Errorf("packet: IP version %d, want 4", v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl != ipv4HeaderLen {
		return nil, fmt.Errorf("packet: IPv4 options unsupported (IHL=%d bytes)", ihl)
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl || total > len(data) {
		return nil, fmt.Errorf("packet: IPv4 total length %d outside frame of %d", total, len(data))
	}
	if sum := internetChecksum(data[:ihl], 0); sum != 0 {
		return nil, fmt.Errorf("packet: bad IPv4 header checksum")
	}
	*h = IPv4Header{
		TOS:      data[1],
		ID:       binary.BigEndian.Uint16(data[4:6]),
		Flags:    data[6] >> 5,
		FragOff:  binary.BigEndian.Uint16(data[6:8]) & 0x1fff,
		TTL:      data[8],
		Protocol: IPProto(data[9]),
	}
	copy(h.Src[:], data[12:16])
	copy(h.Dst[:], data[16:20])
	return data[ihl:total], nil
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

func (m *ICMPv4) encodeTo(b []byte) []byte {
	start := len(b)
	b = append(b, byte(m.Type), m.Code, 0, 0)
	b = binary.BigEndian.AppendUint16(b, m.ID)
	b = binary.BigEndian.AppendUint16(b, m.Seq)
	b = append(b, m.Payload...)
	sum := internetChecksum(b[start:], 0)
	binary.BigEndian.PutUint16(b[start+2:start+4], sum)
	return b
}

// parseICMPv4 decodes into m, leaving Payload aliasing data —
// Arena.Decode copies it into the arena's byte slab.
func parseICMPv4(m *ICMPv4, data []byte) error {
	if len(data) < icmpHeaderLen {
		return fmt.Errorf("packet: ICMP message too short (%d bytes)", len(data))
	}
	if sum := internetChecksum(data, 0); sum != 0 {
		return fmt.Errorf("packet: bad ICMP checksum")
	}
	*m = ICMPv4{
		Type: ICMPType(data[0]),
		Code: data[1],
		ID:   binary.BigEndian.Uint16(data[4:6]),
		Seq:  binary.BigEndian.Uint16(data[6:8]),
	}
	if len(data) > icmpHeaderLen {
		m.Payload = data[icmpHeaderLen:]
	}
	return nil
}
