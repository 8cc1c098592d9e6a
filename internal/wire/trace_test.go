package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs/tracer"
)

// traceEvents returns packetless events with spans on 0 and 2: one
// fully switch-stamped, one partially, plus a collector-side stamp the
// wire must mask out. Event 1 is unsampled.
func traceEvents() []core.Event {
	base := time.Unix(1700000000, 0)
	evs := []core.Event{
		{Kind: core.KindArrival, Time: base, SwitchID: 3, PacketID: 101, InPort: 2},
		{Kind: core.KindEgress, Time: base, SwitchID: 3, PacketID: 101, InPort: 2, OutPort: 7},
		{Kind: core.KindEgress, Time: base, SwitchID: 3, PacketID: 102, InPort: 2, Dropped: true},
	}
	s0 := &tracer.Span{Key: tracer.Key(3, 101, 0), DPID: 3, PacketID: 101}
	s0.StampAt(tracer.StageIngress, 1000)
	s0.StampAt(tracer.StageEnqueue, 1200)
	s0.StampAt(tracer.StageBatchSeal, 1500)
	s0.StampAt(tracer.StageWireSend, 1700)
	s0.StampAt(tracer.StageVerdict, 1900) // local engine: must not ship
	evs[0].Trace = s0
	s2 := &tracer.Span{Key: tracer.Key(3, 102, 1), DPID: 3, PacketID: 102, Kind: 1}
	s2.StampAt(tracer.StageEnqueue, 2100)
	s2.StampAt(tracer.StageWireSend, 2300)
	evs[2].Trace = s2
	return evs
}

func TestTracedBatchRoundTrip(t *testing.T) {
	b := &Batch{FirstSeq: 11, Events: traceEvents(), Traced: true,
		ClockOffsetNs: -12345, ClockDispNs: 678}
	enc := frameBytes(t, b)
	if FrameType(enc[4]) != FrameBatch {
		t.Fatalf("traced batch encodes as %s, want a batch frame", FrameType(enc[4]))
	}
	dec, n, err := nextFrame(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %v (consumed %d of %d)", err, n, len(enc))
	}
	got, ok := dec.(*Batch)
	if !ok || !got.Traced {
		t.Fatalf("decoded %#v, want traced batch", dec)
	}
	if got.ClockOffsetNs != -12345 || got.ClockDispNs != 678 {
		t.Fatalf("clock = %d/%d", got.ClockOffsetNs, got.ClockDispNs)
	}
	if re := frameBytes(t, got); !bytes.Equal(enc, re) {
		t.Fatalf("traced batch not byte-stable\nenc: %x\nre:  %x", enc, re)
	}
	// Span adoption: marks survive, flagged remote, non-switch stages
	// masked out, unsampled events stay span-less.
	sp := got.Events[0].Trace
	if sp == nil || sp.Key != tracer.Key(3, 101, 0) {
		t.Fatalf("event 0 span = %+v", sp)
	}
	if sp.Mark(tracer.StageIngress) != 1000 || sp.Mark(tracer.StageWireSend) != 1700 {
		t.Fatalf("event 0 marks: ingress=%d wire_send=%d",
			sp.Mark(tracer.StageIngress), sp.Mark(tracer.StageWireSend))
	}
	if sp.Mark(tracer.StageVerdict) != 0 {
		t.Fatal("local verdict stamp leaked onto the wire")
	}
	if sp.StageMask() != tracer.SwitchStageMask {
		t.Fatalf("event 0 mask = %08b", sp.StageMask())
	}
	if got.Events[1].Trace != nil {
		t.Fatal("unsampled event grew a span")
	}
	s2 := got.Events[2].Trace
	if s2 == nil || s2.Mark(tracer.StageEnqueue) != 2100 || s2.Mark(tracer.StageBatchSeal) != 0 {
		t.Fatalf("event 2 span = %+v", s2)
	}
	// Adopted spans must honor the clock estimate: the deltas computed
	// at Finish shift remote marks by the shipped offset.
	s2.SetClock(got.ClockOffsetNs, got.ClockDispNs)
	tr := tracer.New(tracer.Config{SampleN: 1})
	s2.StampAt(tracer.StageCollectorRecv, 2300-12345+500)
	tr.Finish(s2)
	if recs := tr.Snapshot(); recs[0].StageNs["collector_recv"] != 500 {
		t.Fatalf("wire flight = %d, want 500", recs[0].StageNs["collector_recv"])
	}
}

// TestTracedBatchUnsampled: Traced batches with no sampled events (and
// sequence-advance markers) still carry a well-formed, empty block.
func TestTracedBatchUnsampled(t *testing.T) {
	for _, b := range []*Batch{
		{FirstSeq: 5, Traced: true, ClockOffsetNs: 9},
		{FirstSeq: 5, Traced: true, Events: []core.Event{
			{Kind: core.KindArrival, Time: time.Unix(1, 0), SwitchID: 1, PacketID: 1, InPort: 1},
		}},
	} {
		dec, _, err := nextFrame(frameBytes(t, b))
		if err != nil {
			t.Fatal(err)
		}
		got := dec.(*Batch)
		if !got.Traced || got.ClockOffsetNs != b.ClockOffsetNs || len(got.Events) != len(b.Events) {
			t.Fatalf("round-trip = %+v", got)
		}
		for i := range got.Events {
			if got.Events[i].Trace != nil {
				t.Fatal("span materialized from empty trace block")
			}
		}
	}
}

// buildTraced assembles a Batch frame around one packetless event,
// followed by block, so reject tests can plant precise corruption in the
// trace block.
func buildTraced(t *testing.T, block []byte) []byte {
	t.Helper()
	ev := core.Event{Kind: core.KindArrival, Time: time.Unix(0, 5), SwitchID: 1, PacketID: 1, InPort: 1}
	frame, err := AppendBatch(nil, &Batch{FirstSeq: 1, Events: []core.Event{ev}})
	if err != nil {
		t.Fatal(err)
	}
	return rawFrame(append(frame[4:], block...))
}

func TestTraceBlockRejects(t *testing.T) {
	entry := func(idx uint64, mask byte, marks ...int64) []byte {
		b := binary.AppendUvarint(nil, idx)
		b = binary.BigEndian.AppendUint64(b, 0xdeadbeef)
		b = append(b, mask)
		for _, m := range marks {
			b = binary.AppendVarint(b, m)
		}
		return b
	}
	header := func(count uint64) []byte {
		b := binary.AppendVarint(nil, 0) // offset
		b = binary.AppendUvarint(b, 0)   // dispersion
		return binary.AppendUvarint(b, count)
	}
	cases := map[string][]byte{
		"count-exceeds-events": header(2),
		"index-out-of-range":   append(header(1), entry(1, 1<<tracer.StageEnqueue, 9)...),
		"zero-mask":            append(header(1), entry(0, 0)...),
		"non-switch-stage":     append(header(1), entry(0, 1<<tracer.StageVerdict, 9)...),
		"zero-mark":            append(header(1), entry(0, 1<<tracer.StageEnqueue, 0)...),
		"truncated-marks":      append(header(1), entry(0, tracer.SwitchStageMask, 9)...),
		"truncated-header":     binary.AppendVarint(nil, 0),
	}
	for name, block := range cases {
		if _, _, err := nextFrame(buildTraced(t, block)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Control: the same scaffolding with a valid block decodes traced,
	// and with no block untraced.
	ok := append(header(1), entry(0, 1<<tracer.StageEnqueue, 9)...)
	for _, block := range [][]byte{ok, nil} {
		f, _, err := nextFrame(buildTraced(t, block))
		if err != nil {
			t.Fatalf("control frame rejected: %v", err)
		}
		if got := f.(*Batch).Traced; got != (block != nil) {
			t.Fatalf("block %x decoded Traced=%v", block, got)
		}
	}
}

// FuzzTraceBlockRoundTrip extends the codec's canonicality contract to
// Batch frames with a trace block: any accepted input re-encodes to a
// fixed point, spans included. check.sh runs it as a smoke alongside
// FuzzWireRoundTrip.
func FuzzTraceBlockRoundTrip(f *testing.F) {
	seed := func(frame any) []byte { return frameBytes(f, frame) }
	f.Add(seed(&Batch{FirstSeq: 11, Events: traceEvents(), Traced: true,
		ClockOffsetNs: -12345, ClockDispNs: 678}))
	f.Add(seed(&Batch{FirstSeq: 5, Traced: true}))
	f.Add(seed(&Batch{FirstSeq: 1, Events: traceEvents(), Traced: true}))

	f.Fuzz(func(t *testing.T, data []byte) {
		f1, _, err := nextFrame(data)
		if err != nil {
			return
		}
		e1 := frameBytes(t, f1)
		f2, n2, err := nextFrame(e1)
		if err != nil || n2 != len(e1) {
			t.Fatalf("decode of re-encoded frame: %v (%d of %d)", err, n2, len(e1))
		}
		if e2 := frameBytes(t, f2); !bytes.Equal(e1, e2) {
			t.Fatalf("encoding not a fixed point\ne1: %x\ne2: %x", e1, e2)
		}
	})
}
