package packet

import (
	"encoding/binary"
	"testing"
)

// Checksum correctness tests: every serialized frame must carry real,
// independently verifiable checksums in the bytes the encoders zero
// before filling — IPv4 header, TCP and UDP with their pseudo-headers,
// ICMP. The verification property used throughout is the RFC 1071 one:
// summing a region that embeds its own correct checksum folds to zero.

// transportRegion encodes p and slices the transport region out of the
// Ethernet frame (IHL is fixed at 5, no options).
func transportRegion(t *testing.T, p *Packet) ([]byte, []byte) {
	t.Helper()
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data, data[ethernetHeaderLen+ipv4HeaderLen:]
}

func TestEncodedChecksumsVerify(t *testing.T) {
	tcp := NewTCP(macA, macB, ipA, ipB, 40000, 80, FlagSYN|FlagACK, []byte("checksum me"))
	udp := NewUDP(macA, macB, ipA, ipB, 40000, 5000, []byte{0xaa, 0xbb, 0xcc})
	icmp := NewICMPEcho(macA, macB, ipA, ipB, 7, 3, false)
	icmp.ICMP.Payload = []byte("ping")

	for _, tc := range []struct {
		name  string
		p     *Packet
		proto IPProto
	}{
		{"tcp", tcp, ProtoTCP},
		{"udp", udp, ProtoUDP},
		{"icmp", icmp, ProtoICMP},
	} {
		data, seg := transportRegion(t, tc.p)
		ip := data[ethernetHeaderLen : ethernetHeaderLen+ipv4HeaderLen]
		if got := internetChecksum(ip, 0); got != 0 {
			t.Errorf("%s: IPv4 header checksum does not verify (residual %#04x)", tc.name, got)
		}
		if binary.BigEndian.Uint16(ip[10:12]) == 0 {
			t.Errorf("%s: IPv4 checksum bytes left zero", tc.name)
		}
		var initial uint32
		if tc.proto != ProtoICMP { // ICMP has no pseudo-header
			initial = pseudoHeaderSum(tc.p.IPv4.Src, tc.p.IPv4.Dst, tc.proto, len(seg))
		}
		if got := internetChecksum(seg, initial); got != 0 {
			t.Errorf("%s: transport checksum does not verify (residual %#04x)", tc.name, got)
		}
	}
}

// The transport checksum bytes themselves must be non-zero for these
// payloads (a zero TCP checksum here would mean the field was never
// filled; UDP's zero-means-absent rule is tested separately).
func TestChecksumBytesFilled(t *testing.T) {
	_, seg := transportRegion(t, NewTCP(macA, macB, ipA, ipB, 1, 2, FlagSYN, nil))
	if binary.BigEndian.Uint16(seg[16:18]) == 0 {
		t.Error("TCP checksum bytes left zero")
	}
	_, dg := transportRegion(t, NewUDP(macA, macB, ipA, ipB, 1, 2, []byte{1}))
	if binary.BigEndian.Uint16(dg[6:8]) == 0 {
		t.Error("UDP checksum bytes left zero")
	}
	if got := binary.BigEndian.Uint16(dg[4:6]); got != udpHeaderLen+1 {
		t.Errorf("UDP length = %d, want %d", got, udpHeaderLen+1)
	}
	_, msg := transportRegion(t, NewICMPEcho(macA, macB, ipA, ipB, 9, 9, true))
	if binary.BigEndian.Uint16(msg[2:4]) == 0 {
		t.Error("ICMP checksum bytes left zero")
	}
}

// RFC 768: a datagram whose checksum computes to zero transmits 0xffff,
// and a receiver treats an on-wire zero as "no checksum present".
func TestUDPZeroChecksumRule(t *testing.T) {
	// Engineer a computed sum of zero: with src=dst=0.0.0.0 the pseudo
	// header contributes proto(17) + length(8), the header contributes
	// ports + length(8), so srcPort = ^uint16(17+8+8) makes the
	// ones-complement total fold to 0xffff and the checksum to zero.
	var zero IPv4
	_, dg := transportRegion(t, NewUDP(MAC{}, MAC{}, zero, zero, ^uint16(17+8+8), 0, nil))
	if got := binary.BigEndian.Uint16(dg[6:8]); got != 0xffff {
		t.Fatalf("computed-zero checksum transmitted as %#04x, want 0xffff", got)
	}
	if got := internetChecksum(dg, pseudoHeaderSum(zero, zero, ProtoUDP, len(dg))); got != 0 {
		t.Fatalf("0xffff substitute does not verify (residual %#04x)", got)
	}

	// On-wire zero disables verification: corrupting the payload of a
	// checksum-less datagram must still decode.
	p := NewUDP(macA, macB, ipA, ipB, 1000, 2000, []byte("no checksum"))
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	off := ethernetHeaderLen + ipv4HeaderLen
	data[off+6], data[off+7] = 0, 0 // strip the checksum
	data[off+udpHeaderLen] ^= 0xff  // corrupt the payload
	if _, err := Decode(data); err != nil {
		t.Fatalf("checksum-less datagram rejected: %v", err)
	}
}

// Corruption coverage for the layers TestDecodeRejectsCorruptChecksums
// leaves out: UDP payloads and ICMP headers.
func TestDecodeRejectsCorruptUDPAndICMP(t *testing.T) {
	udp := NewUDP(macA, macB, ipA, ipB, 1000, 2000, []byte("payload"))
	data, err := udp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // last payload byte
	if _, err := Decode(data); err == nil {
		t.Error("corrupt UDP payload accepted")
	}

	icmp := NewICMPEcho(macA, macB, ipA, ipB, 7, 3, false)
	data, err = icmp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	data[ethernetHeaderLen+ipv4HeaderLen+4] ^= 0xff // echo ID
	if _, err := Decode(data); err == nil {
		t.Error("corrupt ICMP header accepted")
	}
}

// The TCP and UDP checksums must cover the pseudo-header: rewriting the
// IP addresses (and fixing the IP header checksum, as NAT would) without
// updating the transport checksum must fail transport verification.
func TestTransportChecksumCoversPseudoHeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Packet
	}{
		{"tcp", NewTCP(macA, macB, ipA, ipB, 1, 2, FlagSYN, nil)},
		{"udp", NewUDP(macA, macB, ipA, ipB, 1, 2, []byte{1, 2})},
	} {
		data, err := tc.p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		ip := data[ethernetHeaderLen : ethernetHeaderLen+ipv4HeaderLen]
		natted := MustIPv4("172.16.0.1")
		copy(ip[12:16], natted[:]) // rewrite source
		ip[10], ip[11] = 0, 0
		binary.BigEndian.PutUint16(ip[10:12], internetChecksum(ip, 0))
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: address rewrite without checksum update accepted", tc.name)
		}
	}
}
