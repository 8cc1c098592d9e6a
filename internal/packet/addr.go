// Package packet implements the protocol substrate for the monitor: a
// from-scratch packet model with encode/decode for Ethernet, ARP, IPv4,
// ICMPv4, UDP, TCP, DHCPv4, DNS and FTP control traffic, a named field
// table spanning L2-L7 (the paper's Feature 1, "access to necessary
// fields"), and flow/endpoint abstractions with a symmetric hash.
//
// The design follows gopacket's layering model (one struct per protocol
// layer, fixed-size comparable endpoint values) but is implemented with the
// standard library only.
package packet

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// MAC is an Ethernet hardware address. Being an array it is comparable and
// usable as a map key.
type MAC [6]byte

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// ParseMAC parses the colon-separated hexadecimal form, e.g.
// "00:11:22:33:44:55".
func ParseMAC(s string) (MAC, error) {
	var m MAC
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return m, fmt.Errorf("packet: invalid MAC %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return m, fmt.Errorf("packet: invalid MAC %q: %v", s, err)
		}
		m[i] = byte(v)
	}
	return m, nil
}

// MustMAC is ParseMAC for constants in tests and examples; it panics on a
// malformed address.
func MustMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

// String returns the colon-separated hexadecimal form.
func (m MAC) String() string { return string(m.appendTo(nil)) }

// appendTo appends String's rendering to b.
func (m MAC) appendTo(b []byte) []byte {
	const hex = "0123456789abcdef"
	for i, x := range m {
		if i > 0 {
			b = append(b, ':')
		}
		b = append(b, hex[x>>4], hex[x&0xf])
	}
	return b
}

// IsBroadcast reports whether m is the Ethernet broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// Uint64 packs the address into the low 48 bits of a uint64, for use as a
// field value in monitor predicates.
func (m MAC) Uint64() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// MACFromUint64 unpacks the low 48 bits of v into a MAC.
func MACFromUint64(v uint64) MAC {
	return MAC{byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// IPv4 is an IPv4 address. Being an array it is comparable and usable as a
// map key.
type IPv4 [4]byte

// ParseIPv4 parses dotted-quad notation, e.g. "10.0.0.1".
func ParseIPv4(s string) (IPv4, error) {
	var ip IPv4
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return ip, fmt.Errorf("packet: invalid IPv4 %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return ip, fmt.Errorf("packet: invalid IPv4 %q: %v", s, err)
		}
		ip[i] = byte(v)
	}
	return ip, nil
}

// MustIPv4 is ParseIPv4 for constants in tests and examples; it panics on a
// malformed address.
func MustIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String returns dotted-quad notation.
func (ip IPv4) String() string { return string(ip.appendTo(nil)) }

// appendTo appends String's rendering to b.
func (ip IPv4) appendTo(b []byte) []byte {
	for i, x := range ip {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(x), 10)
	}
	return b
}

// Uint32 returns the address as a big-endian uint32.
func (ip IPv4) Uint32() uint32 { return binary.BigEndian.Uint32(ip[:]) }

// Uint64 returns the address widened to uint64, for use as a field value.
func (ip IPv4) Uint64() uint64 { return uint64(ip.Uint32()) }

// IPv4FromUint32 builds an address from its big-endian uint32 form.
func IPv4FromUint32(v uint32) IPv4 {
	var ip IPv4
	binary.BigEndian.PutUint32(ip[:], v)
	return ip
}

// IsZero reports whether ip is 0.0.0.0, the unspecified address.
func (ip IPv4) IsZero() bool { return ip == IPv4{} }

// BroadcastIPv4 is the limited broadcast address 255.255.255.255.
var BroadcastIPv4 = IPv4{255, 255, 255, 255}
