package wire

import (
	"bytes"
	"io"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
)

func testEvents(t *testing.T) []core.Event {
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
	case *PropertySetUpdate:
		enc, err = AppendPropertySetUpdate(nil, f)
	case PropertySetAck:
		enc = AppendPropertySetAck(nil, f)
	case *FleetConfig:
		enc, err = AppendFleetConfig(nil, f)
	case FleetConfigAck:
		enc = AppendFleetConfigAck(nil, f)
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
	frames := []any{
		Hello{DPID: 42, NextSeq: 7, Version: 1},
		Hello{DPID: 42, NextSeq: 7, Version: 2, Features: FeatureTrace, SentNs: 123456789},
		HelloAck{AckSeq: 6, Version: 1},
		HelloAck{AckSeq: 6, Version: 2, Features: FeatureTrace, RecvNs: 1000, SentNs: 2000},
		Ack{AckSeq: 9000},
		Ack{AckSeq: 9001, SentNs: 77777},
		&Batch{FirstSeq: 11, Events: testEvents(t)},
		&FleetConfig{Epoch: 3},
		&FleetConfig{Epoch: 4, Members: []FleetMember{{Addr: "10.0.0.1:9190", Weight: 1}, {Addr: "10.0.0.2:9190", Weight: 2}}},
		FleetConfigAck{Epoch: 4},
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
		case *FleetConfig:
			got := dec.(*FleetConfig)
			if got.Epoch != want.Epoch || len(got.Members) != len(want.Members) {
				t.Fatalf("fleet-config round-trip: got %+v want %+v", got, want)
			}
			for i := range got.Members {
				if got.Members[i] != want.Members[i] {
					t.Fatalf("fleet member %d round-trip: got %+v want %+v", i, got.Members[i], want.Members[i])
				}
			}
		case FleetConfigAck:
			if got := dec.(FleetConfigAck); got != want {
				t.Fatalf("fleet-config-ack round-trip: got %+v want %+v", got, want)
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
	t.Run("unknown-type", func(t *testing.T) {
		bad := append([]byte(nil), hello...)
		bad[4] = 200
		if _, _, err := nextFrame(bad); err == nil {
			t.Fatal("unknown frame type accepted")
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
		evs[0].Dropped = true    // nonsense the encoder will serialize
		b, err := AppendBatch(nil, &Batch{FirstSeq: 1, Events: evs})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := nextFrame(b); err == nil {
			t.Fatal("dropped flag on arrival accepted")
		}
	})
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
