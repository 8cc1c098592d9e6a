package packet

import "fmt"

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes used in this repository.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
)

// String names well-known EtherTypes and prints others in hex.
func (t EtherType) String() string {
	switch t {
	case EtherTypeIPv4:
		return "IPv4"
	case EtherTypeARP:
		return "ARP"
	default:
		return fmt.Sprintf("EtherType(0x%04x)", uint16(t))
	}
}

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	Src  MAC
	Dst  MAC
	Type EtherType
}

const ethernetHeaderLen = 14

// layout moves the header between e and b, its 14 bytes.
func (e *Ethernet) layout(b []byte, enc bool) {
	addr(b[0:6], e.Dst[:], enc)
	addr(b[6:12], e.Src[:], enc)
	u16(b[12:14], &e.Type, enc)
}

// ARPOp is the ARP operation code.
type ARPOp uint16

// ARP operation codes.
const (
	ARPRequest ARPOp = 1
	ARPReply   ARPOp = 2
)

// String names the operation.
func (op ARPOp) String() string {
	switch op {
	case ARPRequest:
		return "request"
	case ARPReply:
		return "reply"
	default:
		return fmt.Sprintf("ARPOp(%d)", uint16(op))
	}
}

// ARP is an ARP message for IPv4 over Ethernet (HTYPE=1, PTYPE=0x0800).
type ARP struct {
	Op        ARPOp
	SenderMAC MAC
	SenderIP  IPv4
	TargetMAC MAC
	TargetIP  IPv4
}

const arpLen = 28

// layout moves the message between a and b, its 28 bytes. It opens with
// HTYPE 1 (Ethernet), PTYPE 0x0800 (IPv4), HLEN 6 and PLEN 4.
func (a *ARP) layout(b []byte, enc bool) error {
	u16(b[6:8], &a.Op, enc)
	addr(b[8:14], a.SenderMAC[:], enc)
	addr(b[14:18], a.SenderIP[:], enc)
	addr(b[18:24], a.TargetMAC[:], enc)
	addr(b[24:28], a.TargetIP[:], enc)
	return constant(b[0:6], "\x00\x01\x08\x00\x06\x04", "ARP hardware/protocol types and lengths", enc)
}
