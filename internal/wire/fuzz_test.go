package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
)

// FuzzWireRoundTrip is the codec's canonicality contract, the same
// fixed-point shape as the packet codec's FuzzCodecRoundTrip: any input
// Reader.Next accepts must re-encode to bytes that decode to the same
// frame and re-encode identically. Non-minimal varints in a fuzzed
// input normalize at the first re-encode; from then on the bytes are a
// fixed point. This is what lets the collector deduplicate replayed
// batches and the ledger trust sequence arithmetic: there is exactly
// one wire form per frame.
func FuzzWireRoundTrip(f *testing.F) {
	seed := func(frame any) []byte { return frameBytes(f, frame) }
	macS := packet.MustMAC("02:00:00:00:00:0a")
	macD := packet.MustMAC("02:00:00:00:00:0b")
	ipS := packet.MustIPv4("10.0.0.1")
	ipD := packet.MustIPv4("10.0.0.2")
	tcp := packet.NewTCP(macS, macD, ipS, ipD, 40000, 80, packet.FlagSYN, []byte("hi"))
	udp := packet.NewUDP(macS, macD, ipS, ipD, 40000, 53, []byte{1, 2})
	base := time.Unix(1700000000, 0)

	f.Add(seed(Hello{DPID: 1, NextSeq: 1}))
	f.Add(seed(Hello{DPID: 1<<64 - 1, NextSeq: 1 << 40}))
	f.Add(seed(Hello{DPID: 7, NextSeq: 3, Features: FeatureTrace | ConfigFleet.Feature(), SentNs: -1}))
	f.Add(seed(HelloAck{AckSeq: 0}))
	f.Add(seed(HelloAck{AckSeq: 6, Features: FeatureTrace, RecvNs: 1000, SentNs: 2000}))
	f.Add(seed(Ack{AckSeq: 123456, SentNs: 1700000000000000000}))
	f.Add(seed(Ack{AckSeq: 123456})) // a zero timestamp encodes like any other
	f.Add(seed(&Batch{FirstSeq: 1, Events: []core.Event{
		{Kind: core.KindArrival, Time: base, SwitchID: 2, PacketID: 9, Packet: tcp, InPort: 1},
		{Kind: core.KindEgress, Time: base.Add(time.Millisecond), SwitchID: 2, PacketID: 9, Packet: tcp, InPort: 1, OutPort: 3},
	}}))
	f.Add(seed(&Batch{FirstSeq: 7, Events: []core.Event{
		{Kind: core.KindEgress, Time: base, SwitchID: 1, PacketID: 4, Packet: udp, InPort: 2, Dropped: true},
		{Kind: core.KindEgress, Time: base, SwitchID: 1, PacketID: 5, Packet: udp, InPort: 2, OutPort: 6, Multicast: true},
		{Kind: core.KindOutOfBand, Time: base, SwitchID: 1, OOBKind: packet.OOBLinkUp, OOBPort: 6},
	}}))
	// An empty batch is the sequence-advance marker exporters use to
	// surface tail loss.
	f.Add(seed(&Batch{FirstSeq: 99}))
	// Traced batches: the trace block is the frame's trailing section,
	// empty or carrying spans.
	f.Add(seed(&Batch{FirstSeq: 99, Traced: true, ClockOffsetNs: 5}))
	f.Add(seed(&Batch{FirstSeq: 11, Events: traceEvents(), Traced: true, ClockOffsetNs: -12345, ClockDispNs: 678}))
	// The last events the sequence space holds.
	f.Add(seed(&Batch{FirstSeq: 1<<64 - 2, Events: traceEvents()[:2]}))
	// A metadata-only event (no packet) exercises the hasPacket=0 path.
	f.Add(seed(&Batch{FirstSeq: 3, Events: []core.Event{
		{Kind: core.KindArrival, Time: base, SwitchID: 5, PacketID: 11, InPort: 4},
	}}))
	// Control frames: both config kinds, empty and populated, at the
	// extreme epochs, and the retired config ack (type 11, kind and
	// epoch) at the same epochs, which must be rejected, not decoded.
	for _, epoch := range []uint64{0, 1<<64 - 1} {
		f.Add(seed(&Config{Kind: ConfigProperties, Epoch: epoch}))
		f.Add(seed(&Config{Kind: ConfigProperties, Epoch: epoch,
			Props: []PropMeta{{Name: "fw", Tenant: "t1"}, {Name: "nat"}}, Source: "property \"fw\" {}\n"}))
		f.Add(seed(&Config{Kind: ConfigFleet, Epoch: epoch}))
		f.Add(seed(&Config{Kind: ConfigFleet, Epoch: epoch,
			Members: []FleetMember{{Addr: "10.0.0.1:9190", Weight: 1000}, {Addr: "10.0.0.2:9190"}}}))
		for _, kind := range []ConfigKind{ConfigProperties, ConfigFleet} {
			f.Add(rawFrame(binary.AppendUvarint([]byte{11, byte(kind)}, epoch)))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		f1, _, err := nextFrame(data)
		if err != nil {
			return // invalid inputs are rejected, not round-tripped
		}
		e1 := frameBytes(t, f1)
		f2, n2, err := nextFrame(e1)
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v\ne1: %x", err, e1)
		}
		if n2 != len(e1) {
			t.Fatalf("re-encoded frame not fully consumed: %d of %d", n2, len(e1))
		}
		if e2 := frameBytes(t, f2); !bytes.Equal(e1, e2) {
			t.Fatalf("encoding not a fixed point\ne1: %x\ne2: %x", e1, e2)
		}
	})
}
