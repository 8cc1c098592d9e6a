package packet

import (
	"encoding/binary"
	"fmt"
)

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

// encodeTo appends the wire form of the header to b.
func (e *Ethernet) encodeTo(b []byte) []byte {
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	return binary.BigEndian.AppendUint16(b, uint16(e.Type))
}

// parseEthernet decodes an Ethernet II header into a caller-supplied
// struct, returning the payload; Arena.Decode supplies the struct from
// its slab.
func parseEthernet(e *Ethernet, data []byte) ([]byte, error) {
	if len(data) < ethernetHeaderLen {
		return nil, fmt.Errorf("packet: ethernet frame too short (%d bytes)", len(data))
	}
	*e = Ethernet{Type: EtherType(binary.BigEndian.Uint16(data[12:14]))}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	return data[ethernetHeaderLen:], nil
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

func (a *ARP) encodeTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, 1)      // HTYPE: Ethernet
	b = binary.BigEndian.AppendUint16(b, 0x0800) // PTYPE: IPv4
	b = append(b, 6, 4)                          // HLEN, PLEN
	b = binary.BigEndian.AppendUint16(b, uint16(a.Op))
	b = append(b, a.SenderMAC[:]...)
	b = append(b, a.SenderIP[:]...)
	b = append(b, a.TargetMAC[:]...)
	b = append(b, a.TargetIP[:]...)
	return b
}

func parseARP(a *ARP, data []byte) error {
	if len(data) < arpLen {
		return fmt.Errorf("packet: ARP message too short (%d bytes)", len(data))
	}
	if htype := binary.BigEndian.Uint16(data[0:2]); htype != 1 {
		return fmt.Errorf("packet: unsupported ARP hardware type %d", htype)
	}
	if ptype := binary.BigEndian.Uint16(data[2:4]); ptype != 0x0800 {
		return fmt.Errorf("packet: unsupported ARP protocol type 0x%04x", ptype)
	}
	if data[4] != 6 || data[5] != 4 {
		return fmt.Errorf("packet: unsupported ARP address lengths %d/%d", data[4], data[5])
	}
	*a = ARP{Op: ARPOp(binary.BigEndian.Uint16(data[6:8]))}
	copy(a.SenderMAC[:], data[8:14])
	copy(a.SenderIP[:], data[14:18])
	copy(a.TargetMAC[:], data[18:24])
	copy(a.TargetIP[:], data[24:28])
	return nil
}
