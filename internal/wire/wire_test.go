package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
)

func testEvents(t testing.TB) []core.Event {
	t.Helper()
	macS := packet.MustMAC("02:00:00:00:00:0a")
	macD := packet.MustMAC("02:00:00:00:00:0b")
	ipS := packet.MustIPv4("10.0.0.1")
	ipD := packet.MustIPv4("10.0.0.2")
	tcp := packet.NewTCP(macS, macD, ipS, ipD, 40000, 80, packet.FlagSYN, []byte("hi"))
	arp := packet.NewARPRequest(macS, ipS, ipD)
	base := time.Unix(1700000000, 123456789)
	return []core.Event{
		{Kind: core.KindArrival, Time: base, SwitchID: 3, PacketID: 101, Packet: tcp, InPort: 2},
		{Kind: core.KindEgress, Time: base.Add(time.Millisecond), SwitchID: 3, PacketID: 101, Packet: tcp, InPort: 2, OutPort: 7},
		{Kind: core.KindEgress, Time: base.Add(2 * time.Millisecond), SwitchID: 3, PacketID: 102, Packet: arp, InPort: 2, OutPort: 4, Multicast: true},
		{Kind: core.KindEgress, Time: base.Add(3 * time.Millisecond), SwitchID: 3, PacketID: 103, Packet: tcp, InPort: 5, Dropped: true},
		{Kind: core.KindOutOfBand, Time: base.Add(4 * time.Millisecond), SwitchID: 3, OOBKind: packet.OOBLinkDown, OOBPort: 9},
	}
}

// frameBytes encodes any frame value Reader.Next returns through its
// Append function.
func frameBytes(t testing.TB, frame any) []byte {
	t.Helper()
	var enc []byte
	var err error
	switch f := frame.(type) {
	case Hello:
		enc = AppendHello(nil, f)
	case HelloAck:
		enc = AppendHelloAck(nil, f)
	case Ack:
		enc = AppendAck(nil, f)
	case *Batch:
		enc, err = AppendBatch(nil, f)
	case *Config:
		enc, err = AppendConfig(nil, f)
	default:
		t.Fatalf("no Append function for %T", frame)
	}
	if err != nil {
		t.Fatalf("encode %T: %v", frame, err)
	}
	return enc
}

// nextFrame decodes the first frame in data through a Reader, returning
// it and the bytes the Reader consumed.
func nextFrame(data []byte) (any, int, error) {
	br := bytes.NewReader(data)
	f, err := NewPooledReader(br).Next()
	return f, len(data) - br.Len(), err
}

// TestFrameRoundTrips encodes and decodes every frame type and checks
// field-level equality plus byte-level stability on re-encode.
func TestFrameRoundTrips(t *testing.T) {
	// The kinds' feature bits are wire format: peers negotiate them.
	if ConfigProperties.Feature() != 1<<1 || ConfigFleet.Feature() != 1<<2 {
		t.Fatalf("config feature bits %b %b, want 1<<1 and 1<<2", ConfigProperties.Feature(), ConfigFleet.Feature())
	}
	frames := []any{
		Hello{DPID: 42, NextSeq: 7, Features: FeatureTrace, SentNs: 123456789},
		HelloAck{AckSeq: 6, Features: FeatureTrace, RecvNs: 1000, SentNs: 2000},
		Ack{AckSeq: 9000},
		Ack{AckSeq: 9001, SentNs: 77777},
		&Batch{FirstSeq: 11, Events: testEvents(t)},
		&Config{Kind: ConfigFleet, Epoch: 3},
		&Config{Kind: ConfigFleet, Epoch: 4, Members: []FleetMember{{Addr: "10.0.0.1:9190", Weight: 1}, {Addr: "10.0.0.2:9190", Weight: 2}}},
		&Config{Kind: ConfigProperties},
		&Config{Kind: ConfigProperties, Epoch: 2, Props: []PropMeta{{Name: "fw", Tenant: "t1"}, {Name: "nat"}},
			Source: "property \"fw\" {}\n"},
	}
	for _, f := range frames {
		enc := frameBytes(t, f)
		dec, n, err := nextFrame(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", f, err)
		}
		if n != len(enc) {
			t.Fatalf("%T: consumed %d of %d bytes", f, n, len(enc))
		}
		if re := frameBytes(t, dec); !bytes.Equal(enc, re) {
			t.Fatalf("%T: decode/re-encode changed bytes\nenc: %x\nre:  %x", f, enc, re)
		}
		switch want := f.(type) {
		case Hello:
			if got := dec.(Hello); got != want {
				t.Fatalf("hello round-trip: got %+v want %+v", got, want)
			}
		case HelloAck:
			if got := dec.(HelloAck); got != want {
				t.Fatalf("hello-ack round-trip: got %+v want %+v", got, want)
			}
		case Ack:
			if got := dec.(Ack); got != want {
				t.Fatalf("ack round-trip: got %+v want %+v", got, want)
			}
		case *Config:
			got := dec.(*Config)
			if got.Kind != want.Kind || got.Epoch != want.Epoch || got.Source != want.Source ||
				len(got.Props) != len(want.Props) || len(got.Members) != len(want.Members) {
				t.Fatalf("config round-trip: got %+v want %+v", got, want)
			}
			for i := range got.Props {
				if got.Props[i] != want.Props[i] {
					t.Fatalf("property %d round-trip: got %+v want %+v", i, got.Props[i], want.Props[i])
				}
			}
			for i := range got.Members {
				if got.Members[i] != want.Members[i] {
					t.Fatalf("fleet member %d round-trip: got %+v want %+v", i, got.Members[i], want.Members[i])
				}
			}
		case *Batch:
			got := dec.(*Batch)
			if got.FirstSeq != want.FirstSeq || len(got.Events) != len(want.Events) {
				t.Fatalf("batch header round-trip: got seq=%d n=%d want seq=%d n=%d",
					got.FirstSeq, len(got.Events), want.FirstSeq, len(want.Events))
			}
			if got.LastSeq() != want.FirstSeq+uint64(len(want.Events))-1 {
				t.Fatalf("LastSeq = %d", got.LastSeq())
			}
			for i := range got.Events {
				g, w := &got.Events[i], &want.Events[i]
				if g.Kind != w.Kind || !g.Time.Equal(w.Time) || g.SwitchID != w.SwitchID ||
					g.PacketID != w.PacketID || g.InPort != w.InPort || g.OutPort != w.OutPort ||
					g.Dropped != w.Dropped || g.Multicast != w.Multicast ||
					g.OOBKind != w.OOBKind || g.OOBPort != w.OOBPort {
					t.Fatalf("event %d metadata round-trip: got %+v want %+v", i, g, w)
				}
				if (g.Packet == nil) != (w.Packet == nil) {
					t.Fatalf("event %d packet presence mismatch", i)
				}
				if w.Packet != nil && g.Packet.Summary() != w.Packet.Summary() {
					t.Fatalf("event %d packet: got %s want %s", i, g.Packet.Summary(), w.Packet.Summary())
				}
			}
		}
	}
}

// TestReaderStream feeds several frames through one Reader over a byte
// stream and checks clean EOF at the end and ErrUnexpectedEOF mid-frame.
func TestReaderStream(t *testing.T) {
	var stream []byte
	stream = AppendHello(stream, Hello{DPID: 1, NextSeq: 1})
	b, err := AppendBatch(stream, &Batch{FirstSeq: 1, Events: testEvents(t)})
	if err != nil {
		t.Fatal(err)
	}
	stream = AppendAck(b, Ack{AckSeq: 5})

	r := NewPooledReader(bytes.NewReader(stream))
	if f, err := r.Next(); err != nil {
		t.Fatal(err)
	} else if h, ok := f.(Hello); !ok || h.DPID != 1 {
		t.Fatalf("frame 1: %#v", f)
	}
	if f, err := r.Next(); err != nil {
		t.Fatal(err)
	} else if bt, ok := f.(*Batch); !ok || len(bt.Events) != 5 {
		t.Fatalf("frame 2: %#v", f)
	}
	if f, err := r.Next(); err != nil {
		t.Fatal(err)
	} else if a, ok := f.(Ack); !ok || a.AckSeq != 5 {
		t.Fatalf("frame 3: %#v", f)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}

	cut := NewPooledReader(bytes.NewReader(stream[:len(stream)-1]))
	cut.Next() // hello
	cut.Next() // batch
	if _, err := cut.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-frame cut: want ErrUnexpectedEOF, got %v", err)
	}
}

// TestDecodeRejects exercises the strict-decode error paths.
func TestDecodeRejects(t *testing.T) {
	hello := AppendHello(nil, Hello{DPID: 1, NextSeq: 1})

	t.Run("partial", func(t *testing.T) {
		if _, _, err := nextFrame(hello[:3]); err != io.ErrUnexpectedEOF {
			t.Fatalf("short prefix: %v", err)
		}
		if _, _, err := nextFrame(hello[:len(hello)-2]); err != io.ErrUnexpectedEOF {
			t.Fatalf("short payload: %v", err)
		}
	})
	t.Run("oversize", func(t *testing.T) {
		bad := []byte{0xff, 0xff, 0xff, 0xff}
		if _, _, err := nextFrame(bad); err == nil || err == io.ErrUnexpectedEOF {
			t.Fatalf("oversize length accepted: %v", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), hello...)
		bad[5] ^= 0xff // first magic byte
		if _, _, err := nextFrame(bad); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), hello...)
		bad[9], bad[10] = 0xff, 0xfe // version field
		if _, _, err := nextFrame(bad); err == nil {
			t.Fatal("bad version accepted")
		}
	})
	t.Run("v1-hello", func(t *testing.T) {
		// Version 1's layout: magic, version, dpid, next seq — no
		// features, no timestamp.
		p := binary.BigEndian.AppendUint32([]byte{byte(FrameHello)}, helloMagic)
		p = binary.BigEndian.AppendUint16(p, 1)
		if f, _, err := nextFrame(rawFrame(append(p, 1, 1))); err == nil {
			t.Fatalf("v1 hello accepted: %+v", f)
		}
	})
	t.Run("v1-hello-ack", func(t *testing.T) {
		// Version 1's layout: version, ack seq.
		p := binary.BigEndian.AppendUint16([]byte{byte(FrameHelloAck)}, 1)
		if f, _, err := nextFrame(rawFrame(append(p, 6))); err == nil {
			t.Fatalf("v1 hello-ack accepted: %+v", f)
		}
	})
	t.Run("unknown-type", func(t *testing.T) {
		bad := append([]byte(nil), hello...)
		bad[4] = 200
		if _, _, err := nextFrame(bad); err == nil {
			t.Fatal("unknown frame type accepted")
		}
	})
	t.Run("seq-overflow", func(t *testing.T) {
		// Two events from seq MaxUint64: the second would wrap to 0, and
		// a collector applying it acks backwards.
		b := &Batch{FirstSeq: 1<<64 - 1, Events: testEvents(t)[:2]}
		if _, err := AppendBatch(nil, b); err == nil {
			t.Fatal("AppendBatch encoded a batch overflowing the sequence space")
		}
		enc, err := AppendBatch(nil, &Batch{FirstSeq: 1<<64 - 2, Events: b.Events})
		if err != nil {
			t.Fatalf("a batch ending at seq MaxUint64 must encode: %v", err)
		}
		enc[5]++ // the FirstSeq varint's low byte: 1<<64-2 becomes 1<<64-1
		if f, _, err := nextFrame(enc); err == nil {
			t.Fatalf("batch overflowing the sequence space accepted: %+v", f)
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		bad := append(append([]byte(nil), hello...), 0)
		bad[3]++ // grow declared payload to cover the junk byte
		if _, _, err := nextFrame(bad); err == nil {
			t.Fatal("trailing payload bytes accepted")
		}
	})
	t.Run("advance-marker", func(t *testing.T) {
		// An empty batch is legal: it is the sequence-advance marker that
		// surfaces a loss at the tail of an exporter's stream.
		enc, err := AppendBatch(nil, &Batch{FirstSeq: 42})
		if err != nil {
			t.Fatal(err)
		}
		f, n, err := nextFrame(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("marker decode: %v (consumed %d of %d)", err, n, len(enc))
		}
		b, ok := f.(*Batch)
		if !ok || b.FirstSeq != 42 || len(b.Events) != 0 {
			t.Fatalf("marker round-trip = %#v", f)
		}
		if b.LastSeq() != 41 {
			t.Fatalf("marker LastSeq = %d, want FirstSeq-1", b.LastSeq())
		}
	})
	t.Run("unknown-flags", func(t *testing.T) {
		b, err := AppendBatch(nil, &Batch{FirstSeq: 1, Events: testEvents(t)[:1]})
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), b...)
		// payload: type(1) firstSeq(1) count(1) kind(1) flags — flags at
		// offset 4+4.
		bad[8] |= 0x80
		if _, _, err := nextFrame(bad); err == nil {
			t.Fatal("unknown event flags accepted")
		}
	})
	t.Run("flags-on-arrival", func(t *testing.T) {
		evs := testEvents(t)[:1] // arrival
		b, err := AppendBatch(nil, &Batch{FirstSeq: 1, Events: evs})
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), b...)
		bad[8] |= flagDropped // the flags byte, as in unknown-flags
		if _, _, err := nextFrame(bad); err == nil {
			t.Fatal("dropped flag on arrival accepted")
		}
		evs[0].Dropped = true
		if _, err := AppendBatch(nil, &Batch{FirstSeq: 1, Events: evs}); err == nil {
			t.Fatal("AppendBatch encoded a dropped flag on an arrival")
		}
	})
	t.Run("oob-kind-over-255", func(t *testing.T) {
		// packet.OOBKind is a byte: a wider kind on the wire must not
		// wrap onto a real one (258 would read as OOBLinkUp).
		for _, kind := range []uint64{258, 300, 1 << 40} {
			p := []byte{byte(FrameBatch), 1, 1, byte(core.KindOutOfBand), 0}
			p = binary.AppendVarint(p, 5)     // time
			p = append(p, 3, 0, 0, 0)         // switch, packet id, in, out
			p = binary.AppendUvarint(p, kind) // oob kind
			p = append(p, 9)                  // oob port
			if f, _, err := nextFrame(rawFrame(p)); err == nil {
				t.Fatalf("out-of-band kind %d accepted: %+v", kind, f.(*Batch).Events[0])
			}
		}
	})

	// Config payloads: type, kind, epoch, props, source, members.
	const cfgT = byte(FrameConfig)
	rejects := func(t *testing.T, what string, payloads ...[]byte) {
		t.Helper()
		for _, p := range payloads {
			if f, _, err := nextFrame(rawFrame(p)); err == nil {
				t.Fatalf("%s accepted: payload %x decoded to %+v", what, p, f)
			}
		}
	}
	t.Run("config-unknown-kind", func(t *testing.T) {
		rejects(t, "kind 3", []byte{cfgT, 3, 0, 0, 0, 0})
		rejects(t, "kind 200", []byte{cfgT, 200, 0, 0, 0, 0})
		if _, err := AppendConfig(nil, &Config{Kind: NumConfigKinds}); err == nil {
			t.Fatal("AppendConfig encoded an unknown kind")
		}
	})
	t.Run("config-kind-zero", func(t *testing.T) {
		rejects(t, "kind 0", []byte{cfgT, 0, 0, 0, 0, 0})
		if _, err := AppendConfig(nil, &Config{}); err == nil {
			t.Fatal("AppendConfig encoded kind 0")
		}
	})
	t.Run("config-foreign-field", func(t *testing.T) {
		rejects(t, "fleet config with a property",
			[]byte{cfgT, byte(ConfigFleet), 1, 1, 1, 'p', 0, 0, 0})
		rejects(t, "fleet config with a source",
			[]byte{cfgT, byte(ConfigFleet), 1, 0, 1, 's', 0})
		rejects(t, "property config with a member",
			[]byte{cfgT, byte(ConfigProperties), 1, 0, 0, 1, 1, 'm', 0})
		for _, cfg := range []*Config{
			{Kind: ConfigFleet, Props: []PropMeta{{Name: "p"}}},
			{Kind: ConfigFleet, Source: "s"},
			{Kind: ConfigProperties, Members: []FleetMember{{Addr: "m"}}},
		} {
			if _, err := AppendConfig(nil, cfg); err == nil {
				t.Fatalf("AppendConfig encoded a foreign field: %+v", cfg)
			}
		}
	})
	t.Run("retired-types", func(t *testing.T) {
		// Types 6–9 and 11 in the layouts they once had: property-set
		// update (epoch, count, source), its ack (epoch), fleet config
		// (epoch, count), its ack (epoch), and the config ack (kind,
		// epoch).
		rejects(t, "retired frame type",
			[]byte{6, 5, 0, 0}, []byte{7, 5}, []byte{8, 5, 0}, []byte{9, 5}, []byte{11, 1, 5})
		// Type 5 is the traced batch: traceEvents at FirstSeq 11 as the
		// frame type 5 encoding wrote it, before the trace block became
		// the Batch frame's trailing section.
		if f, _, err := nextFrame(mustHex(t, tracedBatchType5)); err == nil {
			t.Fatalf("frame type 5 accepted: %+v", f)
		}
	})
	t.Run("config-oversized-count", func(t *testing.T) {
		over := binary.AppendUvarint(nil, maxConfigEntries+1)
		props := append([]byte{cfgT, byte(ConfigProperties), 1}, over...)
		members := append([]byte{cfgT, byte(ConfigFleet), 1, 0, 0}, over...)
		pad := make([]byte, 4*maxConfigEntries) // enough bytes that only the bound trips
		rejects(t, "count over the bound", append(props, pad...), append(members, pad...))
		rejects(t, "count over the bytes left",
			[]byte{cfgT, byte(ConfigProperties), 1, 5, 0}, []byte{cfgT, byte(ConfigFleet), 1, 0, 0, 5, 0})
		if _, err := AppendConfig(nil, &Config{Kind: ConfigFleet, Members: make([]FleetMember, maxConfigEntries+1)}); err == nil {
			t.Fatal("AppendConfig encoded an oversized member list")
		}
	})
}

// untracedBatchBytes is testEvents at FirstSeq 11 as the encoding with
// two protocol versions and a separate traced-batch frame type wrote it.
// Folding the trace block into the Batch frame left untraced bytes as
// they were.
const untracedBatchBytes = "0000013a030b050004aab4aed8c7bfce972f0365020000000000003802000000000b02000000000a08004500002a00000000400666cc0a0000010a0000029c40005000000000000000005002ffff96e4000068690104aabda8d9c7bfce972f0365020700000000003802000000000b02000000000a08004500002a00000000400666cc0a0000010a0000029c40005000000000000000005002ffff96e4000068690106aac6a2dac7bfce972f0366020400000000002affffffffffff02000000000a0806000108000604000102000000000a0a0000010000000000000a0000020105aacf9cdbc7bfce972f0367050000000000003802000000000b02000000000a08004500002a00000000400666cc0a0000010a0000029c40005000000000000000005002ffff96e4000068690200aad896dcc7bfce972f030000000109"

// tracedBatchType5 is traceEvents at FirstSeq 11, clock offset -12345
// and dispersion 678, as frame type 5 carried it.
const tracedBatchType5 = "0000005c050b0300008080d0e2c6bfce972f03650200000001008080d0e2c6bfce972f03650207000001018080d0e2c6bfce972f036602000000f1c001a6050200e34dcb18721acd8f0fd00fe012b817c81a02e3439a18721225c70ae820f823"

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUntracedBatchBytesPinned: an untraced batch encodes to exactly the
// bytes the two-version codec wrote, and a traced one differs from frame
// type 5 in the type byte alone.
func TestUntracedBatchBytesPinned(t *testing.T) {
	if enc := frameBytes(t, &Batch{FirstSeq: 11, Events: testEvents(t)}); !bytes.Equal(enc, mustHex(t, untracedBatchBytes)) {
		t.Fatalf("untraced batch encoding changed\ngot:  %x\nwant: %s", enc, untracedBatchBytes)
	}
	enc := frameBytes(t, &Batch{FirstSeq: 11, Events: traceEvents(), Traced: true, ClockOffsetNs: -12345, ClockDispNs: 678})
	want := mustHex(t, tracedBatchType5)
	want[4] = byte(FrameBatch)
	if !bytes.Equal(enc, want) {
		t.Fatalf("traced batch is not frame type 5's bytes under FrameBatch\ngot:  %x\nwant: %x", enc, want)
	}
}

// rawFrame prefixes a hand-built payload with its length.
func rawFrame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestAppendBatchZeroAlloc gates the exporter's hot path: with a warm
// destination buffer, serializing a batch must not allocate.
func TestAppendBatchZeroAlloc(t *testing.T) {
	evs := testEvents(t)
	b := &Batch{FirstSeq: 1, Events: evs}
	buf := make([]byte, 0, 8192)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendBatch(buf[:0], b)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendBatch allocates %.1f/op, want 0", allocs)
	}
}

// pinnedFrames is every frame the link carries besides the event
// batches TestUntracedBatchBytesPinned covers, with its exact bytes:
// peers of this Version must keep agreeing on them byte for byte.
var pinnedFrames = []struct {
	name  string
	frame any
	hex   string
}{
	{"hello", Hello{DPID: 42, NextSeq: 7, Features: FeatureTrace | ConfigProperties.Feature() | ConfigFleet.Feature(), SentNs: -123456789}, "0000000e0153574d4600022a0707a9b4de75"},
	{"hello-ack", HelloAck{AckSeq: 6, Features: FeatureTrace, RecvNs: 1000, SentNs: -2000}, "000000090200020601d00f9f1f"},
	{"ack", Ack{AckSeq: 9001, SentNs: 1700000000000000000}, "0000000c04a9468080d0e2c6bfce972f"},
	{"config-properties", &Config{Kind: ConfigProperties, Epoch: 2, Props: []PropMeta{{Name: "fw", Tenant: "t1"}, {Name: "nat"}},
		Source: "property \"fw\" {}\n"}, "000000220a010202026677027431036e6174001170726f70657274792022667722207b7d0a00"},
	{"config-properties-max-epoch", &Config{Kind: ConfigProperties, Epoch: 1<<64 - 1}, "0000000f0a01ffffffffffffffffff01000000"},
	{"config-fleet", &Config{Kind: ConfigFleet, Epoch: 4, Members: []FleetMember{{Addr: "10.0.0.1:9190", Weight: 1000}, {Addr: "10.0.0.2:9190"}}}, "000000250a02040000020d31302e302e302e313a39313930e8070d31302e302e302e323a3931393000"},
	{"config-fleet-max-epoch", &Config{Kind: ConfigFleet, Epoch: 1<<64 - 1}, "0000000f0a02ffffffffffffffffff01000000"},
	{"advance-marker", &Batch{FirstSeq: 42}, "00000003032a00"},
}

// TestFrameBytesPinned: every control frame and the empty
// sequence-advance batch encode to their pinned bytes, and those bytes
// decode back to a frame that re-encodes to them.
func TestFrameBytesPinned(t *testing.T) {
	for _, pf := range pinnedFrames {
		enc := frameBytes(t, pf.frame)
		if hex.EncodeToString(enc) != pf.hex {
			t.Errorf("%s encoding changed\ngot:  %x\nwant: %s", pf.name, enc, pf.hex)
			continue
		}
		dec, n, err := nextFrame(enc)
		if err != nil || n != len(enc) {
			t.Errorf("%s: decode: %v (consumed %d of %d)", pf.name, err, n, len(enc))
			continue
		}
		if re := frameBytes(t, dec); !bytes.Equal(re, enc) {
			t.Errorf("%s: decode/re-encode changed bytes\nenc: %x\nre:  %x", pf.name, enc, re)
		}
	}
}
