package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/wire"
)

func sampleEvents(t *testing.T) []core.Event {
	t.Helper()
	p := packet.NewTCP(wlMACInternal, wlMACExternal,
		packet.MustIPv4("10.0.0.1"), packet.MustIPv4("203.0.113.9"), 1000, 80, packet.FlagSYN, []byte("hi"))
	arp := packet.NewARPRequest(wlMACInternal, packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2"))
	at := sim.Epoch
	return []core.Event{
		{Kind: core.KindArrival, Time: at, SwitchID: 2, PacketID: 1, Packet: p, InPort: 1},
		{Kind: core.KindEgress, Time: at.Add(time.Millisecond), PacketID: 1, Packet: p, InPort: 1, OutPort: 2},
		{Kind: core.KindEgress, Time: at.Add(2 * time.Millisecond), PacketID: 2, Packet: arp, InPort: 3, Dropped: true},
		{Kind: core.KindEgress, Time: at.Add(3 * time.Millisecond), PacketID: 3, Packet: arp, InPort: 3, OutPort: 4, Multicast: true},
		{Kind: core.KindOutOfBand, Time: at.Add(4 * time.Millisecond), OOBKind: packet.OOBLinkDown, OOBPort: 7},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	events := sampleEvents(t)
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip: %d events, want %d", len(back), len(events))
	}
	for i := range events {
		a, b := events[i], back[i]
		if a.Kind != b.Kind || !a.Time.Equal(b.Time) || a.SwitchID != b.SwitchID || a.PacketID != b.PacketID ||
			a.InPort != b.InPort || a.OutPort != b.OutPort || a.Dropped != b.Dropped ||
			a.Multicast != b.Multicast || a.OOBKind != b.OOBKind || a.OOBPort != b.OOBPort {
			t.Errorf("event %d header mismatch:\n  %+v\n  %+v", i, a, b)
		}
		if a.Packet != nil && !reflect.DeepEqual(normalize(a.Packet), b.Packet) {
			t.Errorf("event %d packet mismatch", i)
		}
	}
}

// normalize re-decodes a packet through its wire form, since the trace
// stores wire bytes (nil payloads become empty, etc.).
func normalize(p *packet.Packet) *packet.Packet {
	data, err := p.Encode()
	if err != nil {
		panic(err)
	}
	q, err := packet.Decode(data)
	if err != nil {
		panic(err)
	}
	return q
}

// TestTraceFileIsLinkBytes: a trace file is the recording Hello, then
// untraced batches of at most batchEvents events, contiguous from seq 1
// — the frames an exporter would send — and an empty trace is the Hello
// alone.
func TestTraceFileIsLinkBytes(t *testing.T) {
	var empty bytes.Buffer
	if err := WriteAll(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(empty.Bytes(), wire.AppendHello(nil, fileHello)) {
		t.Fatalf("empty trace = %x, want the recording hello alone", empty.Bytes())
	}
	if events, err := ReadAll(&empty); err != nil || len(events) != 0 {
		t.Fatalf("empty trace read back %d events, %v", len(events), err)
	}

	events := FirewallWorkload{Flows: 100, ReturnsPerFlow: 2, ViolationEvery: 3, Gap: time.Millisecond}.Events(sim.Epoch)
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	r := wire.NewPooledReader(bytes.NewReader(buf.Bytes()))
	if f, err := r.Next(); err != nil || f != any(fileHello) {
		t.Fatalf("first frame %+v, %v; want the recording hello", f, err)
	}
	next := uint64(1)
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		b := f.(*wire.Batch)
		if b.Traced || b.FirstSeq != next || len(b.Events) == 0 || len(b.Events) > batchEvents {
			t.Fatalf("batch seq %d with %d events (traced %v), want seq %d with 1..%d", b.FirstSeq, len(b.Events), b.Traced, next, batchEvents)
		}
		next += uint64(len(b.Events))
	}
	if next != uint64(len(events))+1 || len(events) <= batchEvents {
		t.Fatalf("batches carried %d of %d events", next-1, len(events))
	}
}

func TestReadAllErrors(t *testing.T) {
	events := sampleEvents(t)
	batch := func(first uint64, evs []core.Event, traced bool) []byte {
		b, err := wire.AppendBatch(nil, &wire.Batch{FirstSeq: first, Events: evs, Traced: traced})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	hello := wire.AppendHello(nil, fileHello)
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	cases := map[string][]byte{
		"empty":          nil,
		"text-format":    []byte("O 0 3 1 5\n"),
		"no-hello":       batch(1, events, false),
		"exporter-hello": wire.AppendHello(nil, wire.Hello{DPID: 7, NextSeq: 1}),
		"resumed-hello":  wire.AppendHello(nil, wire.Hello{NextSeq: 5}),
		"traced-batch":   cat(hello, batch(1, events, true)),
		"gap":            cat(hello, batch(1, events[:2], false), batch(4, events[2:], false)),
		"overlap":        cat(hello, batch(1, events[:2], false), batch(2, events[2:], false)),
		"not-from-one":   cat(hello, batch(2, events, false)),
		"other-frame":    cat(hello, wire.AppendAck(nil, wire.Ack{AckSeq: 1})),
		"second-hello":   cat(hello, batch(1, events, false), hello),
		"truncated":      cat(hello, batch(1, events, false))[:len(hello)+10],
		"bad-magic":      append([]byte{0, 0, 0, 14, byte(wire.FrameHello), 'X'}, hello[6:]...),
	}
	for name, data := range cases {
		if _, err := ReadAll(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadAll accepted %x", name, data)
		}
	}
}

func TestRecorderAndReplay(t *testing.T) {
	events := sampleEvents(t)
	rec := &Recorder{}
	for _, e := range events {
		rec.Observe(e)
	}
	if len(rec.Events) != len(events) {
		t.Fatalf("recorder has %d events", len(rec.Events))
	}
	sched := sim.NewScheduler()
	var seen int
	var lastTime time.Time
	Replay(sched, rec.Events, func(e core.Event) {
		seen++
		lastTime = sched.Now()
	})
	if seen != len(events) {
		t.Fatalf("replayed %d events", seen)
	}
	if !lastTime.Equal(events[len(events)-1].Time) {
		t.Fatalf("replay clock = %v, want %v", lastTime, events[len(events)-1].Time)
	}
}

func TestFirewallWorkloadShape(t *testing.T) {
	w := FirewallWorkload{Flows: 10, ReturnsPerFlow: 3, ViolationEvery: 5, Gap: time.Millisecond}
	events := w.Events(sim.Epoch)
	// 10 opens (2 events each) + 30 returns (2 events each).
	if len(events) != 20+60 {
		t.Fatalf("events = %d, want 80", len(events))
	}
	drops := 0
	for _, e := range events {
		if e.Kind == core.KindEgress && e.Dropped {
			drops++
		}
	}
	if drops != 6 {
		t.Fatalf("drops = %d, want 6 (30 returns / every 5)", drops)
	}
	// Determinism.
	again := w.Events(sim.Epoch)
	if len(again) != len(events) {
		t.Fatal("workload not deterministic")
	}
}

func TestFirewallWorkloadDrivesMonitor(t *testing.T) {
	sched := sim.NewScheduler()
	var viols int
	mon := core.NewMonitor(sched, core.Config{OnViolation: func(*core.Violation) { viols++ }})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	w := FirewallWorkload{Flows: 20, ReturnsPerFlow: 2, ViolationEvery: 4, Gap: time.Millisecond}
	events := w.Events(sim.Epoch)
	Replay(sched, events, mon.HandleEvent)
	// 40 returns, every 4th dropped = 10 wrongful drops. Each drop
	// consumes its pair's instance; the pair re-arms only on the next
	// outgoing packet, which this workload doesn't send — but distinct
	// flows are distinct instances, so every dropped return on a distinct
	// flow alerts.
	if viols == 0 {
		t.Fatal("workload produced no violations")
	}
	if viols > 10 {
		t.Fatalf("viols = %d, want <= 10", viols)
	}
}

func TestNATWorkloadDrivesMonitor(t *testing.T) {
	sched := sim.NewScheduler()
	var viols int
	mon := core.NewMonitor(sched, core.Config{OnViolation: func(*core.Violation) { viols++ }})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "nat-reverse")); err != nil {
		t.Fatal(err)
	}
	w := NATWorkload{Flows: 30, MistranslateEvery: 10, Gap: time.Millisecond}
	Replay(sched, w.Events(sim.Epoch), mon.HandleEvent)
	if viols != 3 {
		t.Fatalf("viols = %d, want 3 (30 flows / every 10)", viols)
	}
}

func TestLearningWorkloadVolume(t *testing.T) {
	w := LearningWorkload{Hosts: 8, PacketsPerHost: 5, PayloadBytes: 100, Gap: time.Microsecond}
	events := w.Events(sim.Epoch)
	if len(events) != 8*5*2 {
		t.Fatalf("events = %d, want 80", len(events))
	}
	for _, e := range events {
		if e.Kind == core.KindArrival && len(e.Packet.TCP.Payload) != 100 {
			t.Fatal("payload size not honored")
		}
	}
	// Deterministic across calls despite internal rand: fixed seed.
	a, b := w.Events(sim.Epoch), w.Events(sim.Epoch)
	for i := range a {
		if a[i].Packet.Eth.Dst != b[i].Packet.Eth.Dst {
			t.Fatal("learning workload not deterministic")
		}
	}
}
