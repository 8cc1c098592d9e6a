package packet

import (
	"encoding/binary"
	"fmt"
)

// TCPFlags is the TCP flag byte (we model the low 8 flag bits).
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Has reports whether all flags in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// tcpFlagNames names the flag bits, lowest first.
var tcpFlagNames = [...]string{"FIN", "SYN", "RST", "PSH", "ACK", "URG"}

// String renders the set flags, e.g. "SYN|ACK".
func (f TCPFlags) String() string { return string(f.appendTo(nil)) }

// appendTo appends String's rendering to b.
func (f TCPFlags) appendTo(b []byte) []byte {
	start := len(b)
	for i, name := range tcpFlagNames {
		if f&(1<<i) != 0 {
			if len(b) > start {
				b = append(b, '|')
			}
			b = append(b, name...)
		}
	}
	if len(b) == start {
		b = append(b, "none"...)
	}
	return b
}

// TCP is a TCP segment header (no options; DataOffset is fixed at 5) plus
// payload.
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   TCPFlags
	Window  uint16
	Urgent  uint16
	Payload []byte
}

const tcpHeaderLen = 20

// appendHeader appends the 20-byte TCP header with the checksum field
// zeroed; the caller appends the payload directly into the buffer and
// then calls fillChecksum over the whole segment. The two-phase shape
// keeps encoding zero-alloc: the payload never passes through a
// temporary buffer just to be summed.
func (t *TCP) appendHeader(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b, 5<<4, byte(t.Flags)) // data offset 5 words
	b = binary.BigEndian.AppendUint16(b, t.Window)
	b = append(b, 0, 0) // checksum, written by fillChecksum
	b = binary.BigEndian.AppendUint16(b, t.Urgent)
	return b
}

// fillChecksum computes the RFC 793 segment checksum — pseudo-header
// plus seg (header and payload, checksum field still zero) — and writes
// it into the header in place.
func (t *TCP) fillChecksum(seg []byte, src, dst IPv4) {
	sum := internetChecksum(seg, pseudoHeaderSum(src, dst, ProtoTCP, len(seg)))
	binary.BigEndian.PutUint16(seg[16:18], sum)
}

// parseTCP decodes into t, leaving Payload aliasing data —
// Arena.Decode copies it into the arena's byte slab.
func parseTCP(t *TCP, data []byte, src, dst IPv4) error {
	if len(data) < tcpHeaderLen {
		return fmt.Errorf("packet: TCP segment too short (%d bytes)", len(data))
	}
	off := int(data[12]>>4) * 4
	if off < tcpHeaderLen || off > len(data) {
		return fmt.Errorf("packet: bad TCP data offset %d", off)
	}
	if sum := internetChecksum(data, pseudoHeaderSum(src, dst, ProtoTCP, len(data))); sum != 0 {
		return fmt.Errorf("packet: bad TCP checksum")
	}
	*t = TCP{
		SrcPort: binary.BigEndian.Uint16(data[0:2]),
		DstPort: binary.BigEndian.Uint16(data[2:4]),
		Seq:     binary.BigEndian.Uint32(data[4:8]),
		Ack:     binary.BigEndian.Uint32(data[8:12]),
		Flags:   TCPFlags(data[13]),
		Window:  binary.BigEndian.Uint16(data[14:16]),
		Urgent:  binary.BigEndian.Uint16(data[18:20]),
	}
	if len(data) > off {
		t.Payload = data[off:]
	}
	return nil
}

// UDP is a UDP datagram header plus payload.
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

const udpHeaderLen = 8

// appendHeader appends the 8-byte UDP header with the length and
// checksum fields zeroed; the caller appends the payload directly into
// the buffer and then calls fillChecksum over the whole datagram.
func (u *UDP) appendHeader(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = append(b, 0, 0) // length, written by fillChecksum
	b = append(b, 0, 0) // checksum, written by fillChecksum
	return b
}

// fillChecksum writes the datagram length and the RFC 768 checksum
// (pseudo-header plus header and payload) into dg in place. A computed
// sum of zero transmits as 0xffff: on the wire, zero means "no
// checksum".
func (u *UDP) fillChecksum(dg []byte, src, dst IPv4) {
	binary.BigEndian.PutUint16(dg[4:6], uint16(len(dg)))
	sum := internetChecksum(dg, pseudoHeaderSum(src, dst, ProtoUDP, len(dg)))
	if sum == 0 {
		sum = 0xffff
	}
	binary.BigEndian.PutUint16(dg[6:8], sum)
}

// parseUDP decodes into u, leaving Payload aliasing data —
// Arena.Decode copies it into the arena's byte slab.
func parseUDP(u *UDP, data []byte, src, dst IPv4) error {
	if len(data) < udpHeaderLen {
		return fmt.Errorf("packet: UDP datagram too short (%d bytes)", len(data))
	}
	length := int(binary.BigEndian.Uint16(data[4:6]))
	if length < udpHeaderLen || length > len(data) {
		return fmt.Errorf("packet: UDP length %d outside datagram of %d", length, len(data))
	}
	data = data[:length]
	if binary.BigEndian.Uint16(data[6:8]) != 0 {
		if sum := internetChecksum(data, pseudoHeaderSum(src, dst, ProtoUDP, len(data))); sum != 0 {
			return fmt.Errorf("packet: bad UDP checksum")
		}
	}
	*u = UDP{
		SrcPort: binary.BigEndian.Uint16(data[0:2]),
		DstPort: binary.BigEndian.Uint16(data[2:4]),
	}
	if length > udpHeaderLen {
		u.Payload = data[udpHeaderLen:length]
	}
	return nil
}
