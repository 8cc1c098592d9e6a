package collector

import (
	"net"
	"sync"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/wire"
)

// recSink records everything the collector feeds it.
type recSink struct {
	mu     sync.Mutex
	events []core.Event
	losses []lossRec
	ticks  []time.Time
}

type lossRec struct {
	reason core.UnsoundReason
	n      uint64
	detail string
}

func (s *recSink) SubmitBatch(evs []core.Event, release func()) error {
	s.mu.Lock()
	// Copy before release: borrowed events are invalid afterwards. The
	// shallow copy is enough here — assertions only read scalar fields.
	s.events = append(s.events, evs...)
	s.mu.Unlock()
	if release != nil {
		release()
	}
	return nil
}

func (s *recSink) Tick(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ticks = append(s.ticks, t)
}

func (s *recSink) MarkLoss(reason core.UnsoundReason, at time.Time, n uint64, detail string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.losses = append(s.losses, lossRec{reason, n, detail})
}

func (s *recSink) snapshot() ([]core.Event, []lossRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.Event(nil), s.events...), append([]lossRec(nil), s.losses...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func ev(sw uint64, n int) core.Event {
	return core.Event{Kind: core.KindArrival, Time: time.Unix(1700000000, int64(n)), SwitchID: sw, InPort: uint64(n)}
}

func startCollector(t *testing.T, sink Sink) *Collector {
	t.Helper()
	c, err := New(Config{Addr: "127.0.0.1:0"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	c.Serve()
	t.Cleanup(c.Close)
	return c
}

func TestTwoExportersMergeLosslessly(t *testing.T) {
	sink := &recSink{}
	c := startCollector(t, sink)
	var exps []*exporter.Exporter
	for dpid := uint64(1); dpid <= 2; dpid++ {
		x, err := exporter.New(exporter.Config{Addr: c.Addr().String(), DPID: dpid, BatchSizeMax: 8})
		if err != nil {
			t.Fatal(err)
		}
		x.Start()
		exps = append(exps, x)
	}
	const perSwitch = 50
	for i := 1; i <= perSwitch; i++ {
		exps[0].Publish(ev(0, i)) // SwitchID stamped from DPID 1
		exps[1].Publish(ev(0, i))
	}
	for _, x := range exps {
		x.Flush()
		if abandoned := x.Close(2 * time.Second); abandoned != 0 {
			t.Fatalf("abandoned %d", abandoned)
		}
	}
	waitFor(t, "all events applied", func() bool {
		evs, _ := sink.snapshot()
		return len(evs) == 2*perSwitch
	})
	evs, losses := sink.snapshot()
	if len(losses) != 0 {
		t.Fatalf("lossless run marked loss: %+v", losses)
	}
	// Per-switch order must be preserved and every event applied once.
	perDP := map[uint64][]uint64{}
	for _, e := range evs {
		perDP[e.SwitchID] = append(perDP[e.SwitchID], e.InPort)
	}
	for dpid, ports := range perDP {
		if len(ports) != perSwitch {
			t.Fatalf("dpid %d: %d events, want %d", dpid, len(ports), perSwitch)
		}
		for i, p := range ports {
			if p != uint64(i+1) {
				t.Fatalf("dpid %d: event %d has port %d", dpid, i, p)
			}
		}
	}
	st := c.Stats()
	if st.Datapaths != 2 || st.Events != 2*perSwitch || st.GapEvents != 0 || st.Deduped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes == 0 || st.Batches == 0 {
		t.Fatalf("byte/batch accounting missing: %+v", st)
	}
}

func TestSequenceGapMarksWireLoss(t *testing.T) {
	sink := &recSink{}
	c := startCollector(t, sink)
	x, err := exporter.New(exporter.Config{Addr: c.Addr().String(), DPID: 9, BatchSizeMax: 64})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	x.Publish(ev(0, 1))
	x.NoteLoss(4) // a fault injector ate four events on the link
	x.Publish(ev(0, 2))
	x.Flush()
	x.Close(2 * time.Second)
	waitFor(t, "events and loss mark", func() bool {
		evs, losses := sink.snapshot()
		return len(evs) == 2 && len(losses) == 1
	})
	_, losses := sink.snapshot()
	if losses[0].reason != core.UnsoundWireLoss || losses[0].n != 4 {
		t.Fatalf("loss = %+v", losses[0])
	}
	if st := c.Stats(); st.GapEvents != 4 {
		t.Fatalf("GapEvents = %d, want 4", st.GapEvents)
	}
}

// rawConn speaks the wire protocol directly, to script replays the real
// exporter would only produce under races.
type rawConn struct {
	t *testing.T
	c net.Conn
	r *wire.Reader
}

func dialRaw(t *testing.T, addr string, dpid, nextSeq uint64) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rc := &rawConn{t: t, c: conn, r: wire.NewPooledReader(conn)}
	if _, err := conn.Write(wire.AppendHello(nil, wire.Hello{DPID: dpid, NextSeq: nextSeq})); err != nil {
		t.Fatal(err)
	}
	f, err := rc.r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(wire.HelloAck); !ok {
		t.Fatalf("handshake answer = %#v", f)
	}
	return rc
}

func (rc *rawConn) sendBatch(firstSeq uint64, evs []core.Event) wire.Ack {
	rc.t.Helper()
	enc, err := wire.AppendBatch(nil, &wire.Batch{FirstSeq: firstSeq, Events: evs})
	if err != nil {
		rc.t.Fatal(err)
	}
	if _, err := rc.c.Write(enc); err != nil {
		rc.t.Fatal(err)
	}
	f, err := rc.r.Next()
	if err != nil {
		rc.t.Fatal(err)
	}
	a, ok := f.(wire.Ack)
	if !ok {
		rc.t.Fatalf("batch answer = %#v", f)
	}
	return a
}

// expectDrop writes frame and requires the collector to close the
// connection without answering it.
func (rc *rawConn) expectDrop(frame []byte) {
	rc.t.Helper()
	if _, err := rc.c.Write(frame); err != nil {
		rc.t.Fatal(err)
	}
	rc.c.SetReadDeadline(time.Now().Add(3 * time.Second))
	if f, err := rc.r.Next(); err == nil {
		rc.t.Fatalf("collector answered %#v, want the connection dropped", f)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		rc.t.Fatal("collector kept the connection open")
	}
}

// TestSequenceOverflowBatchRejected: a batch whose sequence range runs
// past MaxUint64 is malformed. The collector applies none of it, books no
// gap and never acks below what it acked before.
func TestSequenceOverflowBatchRejected(t *testing.T) {
	sink := &recSink{}
	c := startCollector(t, sink)
	rc := dialRaw(t, c.Addr().String(), 4, 1)
	if a := rc.sendBatch(1, []core.Event{ev(4, 1), ev(4, 2)}); a.AckSeq != 2 {
		t.Fatalf("ack = %d, want 2", a.AckSeq)
	}
	// Two events from seq MaxUint64: encode them from MaxUint64-1, which
	// is legal, then raise the FirstSeq varint's low byte by one.
	enc, err := wire.AppendBatch(nil, &wire.Batch{FirstSeq: 1<<64 - 2, Events: []core.Event{ev(4, 3), ev(4, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	enc[5]++
	rc.expectDrop(enc)

	rc2 := dialRaw(t, c.Addr().String(), 4, 3)
	if a := rc2.sendBatch(3, []core.Event{ev(4, 3)}); a.AckSeq != 3 {
		t.Fatalf("ack after the malformed batch = %d, want 3", a.AckSeq)
	}
	applied, losses := sink.snapshot()
	if len(applied) != 3 || len(losses) != 0 {
		t.Fatalf("applied %d events and %d losses, want 3 and 0", len(applied), len(losses))
	}
	if st := c.Stats(); st.GapEvents != 0 {
		t.Fatalf("GapEvents = %d, want 0", st.GapEvents)
	}
}

// TestUnnegotiatedTraceBlockRejected: a batch carrying a trace block on
// a connection whose handshake negotiated no FeatureTrace is a protocol
// error.
func TestUnnegotiatedTraceBlockRejected(t *testing.T) {
	sink := &recSink{}
	c := startCollector(t, sink)
	rc := dialRaw(t, c.Addr().String(), 6, 1)
	enc, err := wire.AppendBatch(nil, &wire.Batch{FirstSeq: 1, Events: []core.Event{ev(6, 1)}, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	rc.expectDrop(enc)
	if applied, _ := sink.snapshot(); len(applied) != 0 {
		t.Fatalf("applied %d events from an un-negotiated traced batch", len(applied))
	}
}

func TestReplayedBatchesDeduplicate(t *testing.T) {
	sink := &recSink{}
	c := startCollector(t, sink)
	evs := []core.Event{ev(5, 1), ev(5, 2), ev(5, 3)}

	rc := dialRaw(t, c.Addr().String(), 5, 1)
	if a := rc.sendBatch(1, evs); a.AckSeq != 3 {
		t.Fatalf("ack = %d, want 3", a.AckSeq)
	}
	// Full replay (reconnect race): nothing new applied, same ack.
	if a := rc.sendBatch(1, evs); a.AckSeq != 3 {
		t.Fatalf("replay ack = %d, want 3", a.AckSeq)
	}
	// Partial overlap: only seq 4 is new.
	overlap := []core.Event{ev(5, 3), ev(5, 4)}
	if a := rc.sendBatch(3, overlap); a.AckSeq != 4 {
		t.Fatalf("overlap ack = %d, want 4", a.AckSeq)
	}
	applied, losses := sink.snapshot()
	if len(applied) != 4 {
		t.Fatalf("applied %d events, want 4 (dedup failed)", len(applied))
	}
	for i, e := range applied {
		if e.InPort != uint64(i+1) {
			t.Fatalf("event %d has port %d", i, e.InPort)
		}
	}
	if len(losses) != 0 {
		t.Fatalf("replay marked loss: %+v", losses)
	}
	if st := c.Stats(); st.Deduped != 4 {
		t.Fatalf("Deduped = %d, want 4", st.Deduped)
	}
}

func TestReconnectResumeAcrossConnections(t *testing.T) {
	sink := &recSink{}
	c := startCollector(t, sink)

	rc1 := dialRaw(t, c.Addr().String(), 8, 1)
	rc1.sendBatch(1, []core.Event{ev(8, 1), ev(8, 2)})
	rc1.c.Close()

	// The second connection's HelloAck must resume at what was applied.
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendHello(nil, wire.Hello{DPID: 8, NextSeq: 1})); err != nil {
		t.Fatal(err)
	}
	r := wire.NewPooledReader(conn)
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	ha := f.(wire.HelloAck)
	if ha.AckSeq != 2 {
		t.Fatalf("resume ack = %d, want 2", ha.AckSeq)
	}
	waitFor(t, "reconnect counted", func() bool { return c.Stats().Reconnects == 1 })
}

func TestHelloBeyondExpectationMarksLoss(t *testing.T) {
	sink := &recSink{}
	c := startCollector(t, sink)
	// A fresh datapath announcing NextSeq 11 has lost 1..10 for good
	// (shed before ever being sent).
	dialRaw(t, c.Addr().String(), 3, 11)
	waitFor(t, "hello gap mark", func() bool { _, l := sink.snapshot(); return len(l) == 1 })
	_, losses := sink.snapshot()
	if losses[0].reason != core.UnsoundWireLoss || losses[0].n != 10 {
		t.Fatalf("loss = %+v", losses[0])
	}
}

// slowSink is recSink behind a per-batch delay: the collector acks a
// batch only after the sink has taken it, so the exporter's queue stays
// full and its seals park for room.
type slowSink struct {
	recSink
	delay time.Duration
}

func (s *slowSink) SubmitBatch(evs []core.Event, release func()) error {
	time.Sleep(s.delay)
	return s.recSink.SubmitBatch(evs, release)
}

// TestBlockedSealsKeepSequenceOrder is the regression for seals
// overtaking each other at a full ShedBlock queue: a seal that has
// detached its batch parks for room, and a later seal enqueued ahead of
// it would send a later FirstSeq first — read at the collector as a gap
// (the earlier events declared lost) followed by a replay (the same
// events dropped as duplicates). The schedule keeps the one-batch queue
// full for the 5 ms the sink holds each batch while the publisher
// trickles three events per millisecond, so its size seals park for the
// slot, and every ack that frees the slot wakes the idle sender with
// events waiting, racing the parked seal for the room. Both rows run the
// one sealing rule: "cap" on a plain cap of eight, "adaptive" with the
// seal controller on.
func TestBlockedSealsKeepSequenceOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  exporter.Config
	}{
		{"cap", exporter.Config{BatchSizeMax: 8}},
		// A 10 ms budget pins the controller's target at the cap of eight.
		{"adaptive", exporter.Config{TargetSealLatency: 10 * time.Millisecond, BatchSizeMax: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &slowSink{delay: 5 * time.Millisecond}
			c := startCollector(t, sink)
			cfg := tc.cfg
			cfg.Addr, cfg.DPID, cfg.QueueBatches = c.Addr().String(), 1, 1
			x, err := exporter.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			x.Start()
			const n = 600
			for i := 1; i <= n; i++ {
				x.Publish(ev(0, i))
				if i%3 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			x.Flush()
			if abandoned := x.Close(10 * time.Second); abandoned != 0 {
				t.Fatalf("abandoned %d events", abandoned)
			}
			waitFor(t, "every batch applied or declared lost", func() bool {
				st := c.Stats()
				return st.Events+st.GapEvents >= n
			})
			if st := c.Stats(); st.GapEvents != 0 || st.Deduped != 0 {
				t.Fatalf("collector booked gaps=%d deduped=%d; blocked seals were enqueued out of sequence order", st.GapEvents, st.Deduped)
			}
			evs, losses := sink.snapshot()
			if len(losses) != 0 {
				t.Fatalf("sink saw %d loss marks, want none: %+v", len(losses), losses)
			}
			if len(evs) != n {
				t.Fatalf("sink saw %d events, want %d", len(evs), n)
			}
			for i, e := range evs {
				if e.InPort != uint64(i+1) {
					t.Fatalf("event %d is publish #%d: the sink did not see every sequence once, in order", i+1, e.InPort)
				}
			}
		})
	}
}

// A broadcast no newer than the retained config is a no-op, so the
// newest config stays retained whatever order broadcasts finish in and
// an exporter connecting later converges on it, not on the last written.
func TestBroadcastRetainsNewest(t *testing.T) {
	for _, k := range []wire.ConfigKind{wire.ConfigProperties, wire.ConfigFleet} {
		t.Run(k.String(), func(t *testing.T) {
			c := startCollector(t, &recSink{})
			for _, epoch := range []uint64{6, 5} {
				if err := c.Broadcast(&wire.Config{Kind: k, Epoch: epoch}); err != nil {
					t.Fatal(err)
				}
			}
			var mu sync.Mutex
			var seen []uint64
			cfg := exporter.Config{Addr: c.Addr().String(), DPID: 1}
			cfg.OnConfig[k] = func(u *wire.Config) {
				mu.Lock()
				seen = append(seen, u.Epoch)
				mu.Unlock()
			}
			x, err := exporter.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			x.Start()
			defer x.Close(time.Second)
			waitFor(t, "the fresh exporter's handler", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(seen) >= 1
			})
			mu.Lock()
			defer mu.Unlock()
			if len(seen) != 1 || seen[0] != 6 {
				t.Fatalf("fresh exporter applied epochs %v, want [6]", seen)
			}
			if st := c.Stats().Configs[k]; st.Epoch != 6 {
				t.Fatalf("collector retains epoch %d, want 6", st.Epoch)
			}
		})
	}
}
