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

// layout moves the header's fields between t and b, its 20 bytes. The
// checksum (b[16:18]) is finish's.
func (t *TCP) layout(b []byte, enc bool) error {
	u16(b[0:2], &t.SrcPort, enc)
	u16(b[2:4], &t.DstPort, enc)
	u32(b[4:8], &t.Seq, enc)
	u32(b[8:12], &t.Ack, enc)
	u8(b[13:14], &t.Flags, enc)
	u16(b[14:16], &t.Window, enc)
	u16(b[18:20], &t.Urgent, enc)
	return constant(b[12:13], "\x50", "TCP data offset (five words, no options)", enc)
}

// finish is the step after the fields, over the whole segment seg:
// encode writes its checksum (RFC 793, with ip's pseudo-header), decode
// verifies it.
func (t *TCP) finish(seg []byte, enc bool, ip *IPv4Header) error {
	if !checksum(seg, 16, pseudoHeaderSum(ip.Src, ip.Dst, ProtoTCP, len(seg)), enc) {
		return fmt.Errorf("packet: bad TCP checksum")
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

// layout moves the header's fields between u and b, its 8 bytes. The
// length (b[4:6]) and the checksum (b[6:8]) are finish's.
func (u *UDP) layout(b []byte, enc bool) {
	u16(b[0:2], &u.SrcPort, enc)
	u16(b[2:4], &u.DstPort, enc)
}

// finish is the step after the fields, over the datagram d (this header
// first): encode writes its length, len(d), and its checksum (RFC 768,
// with ip's pseudo-header); decode checks both and returns d cut to the
// UDP length. A zero checksum means none: decode skips it, and encode
// sends a computed zero as 0xffff.
func (u *UDP) finish(d []byte, enc bool, ip *IPv4Header) ([]byte, error) {
	if enc {
		binary.BigEndian.PutUint16(d[4:6], uint16(len(d)))
	} else if length := int(binary.BigEndian.Uint16(d[4:6])); length >= udpHeaderLen && length <= len(d) {
		d = d[:length]
	} else {
		return nil, fmt.Errorf("packet: UDP length %d outside datagram of %d", length, len(d))
	}
	if !enc && d[6] == 0 && d[7] == 0 {
		return d, nil
	}
	if !checksum(d, 6, pseudoHeaderSum(ip.Src, ip.Dst, ProtoUDP, len(d)), enc) {
		return nil, fmt.Errorf("packet: bad UDP checksum")
	}
	if enc && d[6] == 0 && d[7] == 0 {
		d[6], d[7] = 0xff, 0xff
	}
	return d, nil
}
