package packet

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzCodecRoundTrip checks the codec's fixed-point property on
// arbitrary byte input: any frame Decode accepts must re-encode, and
// the re-encoded bytes must decode and encode again to the identical
// byte string. Raw input bytes are not required to survive (Decode
// normalizes — recomputed checksums, canonical lengths, dropped
// padding); the *second* encode is where the representation must have
// stabilized. The seed corpus covers every builder, so the fuzzer
// starts from deep, fully-layered frames rather than flailing at the
// Ethernet header. scripts/check.sh runs this briefly on every check;
// go test -fuzz gives it real time.
//
// Each input is also decoded into an arena kept across iterations, so
// the previous input's slabs are dirty; that decode must equal the
// fresh one, error for error. Each accepted frame's Summary must be its
// fmt rendering (fmtSummary), and every registered field must read the
// same from the decoded packet as from its encode decoded again.
func FuzzCodecRoundTrip(f *testing.F) {
	macS := MustMAC("02:00:00:00:00:0a")
	macD := MustMAC("02:00:00:00:00:0b")
	ipS := MustIPv4("10.0.0.1")
	ipD := MustIPv4("203.0.113.9")
	seeds := []*Packet{
		NewTCP(macS, macD, ipS, ipD, 40000, 80, FlagSYN|FlagACK, []byte("payload")),
		NewUDP(macS, macD, ipS, ipD, 40000, 53, []byte{1, 2, 3}),
		NewICMPEcho(macS, macD, ipS, ipD, 7, 1, false),
		NewARPRequest(macS, ipS, ipD),
		NewARPReply(macS, ipS, macD, ipD),
		NewDHCP(macS, macD, MustIPv4("0.0.0.0"), MustIPv4("255.255.255.255"), &DHCPv4{
			Op: DHCPBootRequest, Xid: 42, MsgType: DHCPDiscover, ClientMAC: macS,
			RequestedIP: MustIPv4("10.0.0.50"), LeaseSecs: 3600,
		}),
		NewDNSQuery(macS, macD, ipS, ipD, 40000, 99, "example.com"),
		NewDNSResponse(macD, macS, ipD, ipS, 40000, 99, "example.com", MustIPv4("93.184.216.34")),
		NewFTPCommand(macS, macD, ipS, ipD, 40000, "PORT", "10,0,0,1,156,64"),
	}
	for _, k := range pinnedPackets() {
		seeds = append(seeds, k.p)
	}
	for _, p := range seeds {
		b, err := p.Encode()
		if err != nil {
			f.Fatalf("seed %s failed to encode: %v", p.Summary(), err)
		}
		f.Add(b)
	}

	var reused Arena
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		reused.Reset()
		q, qerr := reused.Decode(data)
		if (err == nil) != (qerr == nil) || (err == nil && !reflect.DeepEqual(p, q)) {
			t.Fatalf("reused-arena decode differs from fresh decode (fresh err %v, reused err %v)\nbytes: %x", err, qerr, data)
		}
		if err != nil {
			return // rejected input is fine; crashing on it is not
		}
		if got, want := p.Summary(), fmtSummary(p); got != want {
			t.Fatalf("Summary() = %q, fmt rendering %q\nbytes: %x", got, want, data)
		}
		b1, err := p.Encode()
		if err != nil {
			t.Fatalf("decoded packet %s failed to encode: %v", p.Summary(), err)
		}
		p2, err := Decode(b1)
		if err != nil {
			t.Fatalf("re-encoded bytes failed to decode: %v\npacket: %s\nbytes: %x", err, p.Summary(), b1)
		}
		for _, f := range AllFields() {
			v, ok := p.Field(f)
			if v2, ok2 := p2.Field(f); v2 != v || ok2 != ok {
				t.Fatalf("%v reads (%v, %v) from the decoded packet but (%v, %v) after encode and decode\nbytes: %x", f, v, ok, v2, ok2, data)
			}
		}
		b2, err := p2.Encode()
		if err != nil {
			t.Fatalf("second encode failed: %v\npacket: %s", err, p2.Summary())
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encode is not a fixed point after one decode:\nfirst:  %x\nsecond: %x\npacket: %s", b1, b2, p2.Summary())
		}
	})
}
