package packet

import (
	"reflect"
	"testing"
)

var (
	arenaMACA = MAC{0x02, 0, 0, 0, 0, 0x0a}
	arenaMACB = MAC{0x02, 0, 0, 0, 0, 0x0b}
	arenaIPA  = IPv4{10, 0, 0, 1}
	arenaIPB  = IPv4{10, 0, 0, 2}
)

// arenaSamples covers every L2–L4 shape the decoder handles, plus L7
// cases (DHCP, DNS) that exercise the still-allocating app path.
func arenaSamples(t *testing.T) [][]byte {
	t.Helper()
	pkts := []*Packet{
		NewTCP(arenaMACA, arenaMACB, arenaIPA, arenaIPB, 1234, 80, FlagSYN, nil),
		NewTCP(arenaMACA, arenaMACB, arenaIPA, arenaIPB, 1234, 80, FlagPSH|FlagACK, []byte("hello")),
		NewUDP(arenaMACA, arenaMACB, arenaIPA, arenaIPB, 4000, 5000, []byte{1, 2, 3}),
		NewICMPEcho(arenaMACA, arenaMACB, arenaIPA, arenaIPB, 7, 1, false),
		NewARPRequest(arenaMACA, arenaIPA, arenaIPB),
		NewDNSQuery(arenaMACA, arenaMACB, arenaIPA, arenaIPB, 5353, 42, "example.com"),
		NewDHCP(arenaMACA, BroadcastMAC, IPv4{}, IPv4{255, 255, 255, 255}, &DHCPv4{
			Op: DHCPBootRequest, Xid: 7, MsgType: DHCPDiscover, ClientMAC: arenaMACA,
		}),
	}
	frames := make([][]byte, len(pkts))
	for i, p := range pkts {
		b, err := p.Encode()
		if err != nil {
			t.Fatalf("encode sample %d: %v", i, err)
		}
		frames[i] = b
	}
	return frames
}

// A dirty, reused arena must decode exactly as a fresh one: Decode's
// arena of one is the reference. Dirty means the arena first decoded a
// batch of frames of every other shape, including a failed decode that
// left half-parsed entries on the slabs, and was then Reset.
func TestReusedArenaDecodeMatchesFreshDecode(t *testing.T) {
	frames := arenaSamples(t)
	corrupt := append([]byte(nil), frames[0]...)
	corrupt[len(corrupt)-1] ^= 0xff // bad TCP checksum after L2/L3 parsed
	var a Arena
	for i, frame := range frames {
		a.Reset()
		for j, other := range frames {
			if j != i {
				if _, err := a.Decode(other); err != nil {
					t.Fatalf("frame %d: dirtying decode %d: %v", i, j, err)
				}
			}
		}
		if _, err := a.Decode(corrupt); err == nil {
			t.Fatal("corrupt frame decoded")
		}
		a.Reset()
		want, err := Decode(frame)
		if err != nil {
			t.Fatalf("frame %d: fresh decode: %v", i, err)
		}
		got, err := a.Decode(frame)
		if err != nil {
			t.Fatalf("frame %d: reused-arena decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: reused-arena decode differs:\n got %s\nwant %s",
				i, got.Summary(), want.Summary())
		}
	}
}

// A failed decode must fail identically through a reused arena, and
// not poison subsequent decodes.
func TestArenaDecodeErrors(t *testing.T) {
	var a Arena
	bad := [][]byte{
		{},               // too short for Ethernet
		make([]byte, 20), // EtherType 0: raw payload, no error — skip below
		func() []byte { // corrupted IPv4 checksum
			b, _ := NewTCP(arenaMACA, arenaMACB, arenaIPA, arenaIPB, 1, 2, FlagSYN, nil).Encode()
			b[24] ^= 0xff
			return b
		}(),
	}
	for i, frame := range bad {
		_, freshErr := Decode(frame)
		_, arenaErr := a.Decode(frame)
		if (freshErr == nil) != (arenaErr == nil) {
			t.Fatalf("frame %d: fresh err %v, arena err %v", i, freshErr, arenaErr)
		}
	}
	// The arena still decodes cleanly after errors.
	frame, _ := NewTCP(arenaMACA, arenaMACB, arenaIPA, arenaIPB, 1, 2, FlagSYN, nil).Encode()
	if _, err := a.Decode(frame); err != nil {
		t.Fatalf("decode after errors: %v", err)
	}
}

// Steady state: decoding the same shape of packet through a reused
// arena must not allocate.
func TestArenaDecodeZeroAllocSteadyState(t *testing.T) {
	frame, err := NewTCP(arenaMACA, arenaMACB, arenaIPA, arenaIPB, 1234, 80, FlagACK, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	// Warm the slabs.
	for i := 0; i < 4; i++ {
		a.Reset()
		if _, err := a.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		a.Reset()
		if _, err := a.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("arena decode allocates %.2f/packet in steady state, want 0", avg)
	}
}
