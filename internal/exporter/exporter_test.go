package exporter

import (
	"net"
	"sync"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/wire"
)

func ev(n int) core.Event {
	return core.Event{Kind: core.KindArrival, Time: time.Unix(1700000000, int64(n)), InPort: uint64(n)}
}

// stubServer is a scriptable collector stand-in: it accepts connections,
// answers the handshake, records batches, and acks them (unless told to
// drop the connection first).
type stubServer struct {
	t  *testing.T
	ln net.Listener

	mu      sync.Mutex
	hellos  []wire.Hello
	batches []*wire.Batch
	applied uint64 // highest contiguous seq acked

	// killAfterBatches, when > 0, closes each connection after that many
	// batches without acking the last one.
	killAfterBatches int

	// ackFeatures is the feature set the HelloAck grants (the collector
	// side of the trace negotiation).
	ackFeatures uint64

	// ackGate, when non-nil, holds each batch's ack until the test sends
	// a token (or closes the gate).
	ackGate chan struct{}
}

func newStubServer(t *testing.T) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{t: t, ln: ln}
	t.Cleanup(func() { ln.Close() })
	go s.acceptLoop()
	return s
}

func (s *stubServer) addr() string { return s.ln.Addr().String() }

func (s *stubServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(conn)
	}
}

func (s *stubServer) serve(conn net.Conn) {
	defer conn.Close()
	r := wire.NewPooledReader(conn)
	f, err := r.Next()
	if err != nil {
		return
	}
	h, ok := f.(wire.Hello)
	if !ok {
		return
	}
	s.mu.Lock()
	s.hellos = append(s.hellos, h)
	ack := s.applied
	features := s.ackFeatures & h.Features
	gate := s.ackGate
	s.mu.Unlock()
	now := time.Now().UnixNano()
	ha := wire.HelloAck{AckSeq: ack, Features: features, RecvNs: now, SentNs: now}
	if _, err := conn.Write(wire.AppendHelloAck(nil, ha)); err != nil {
		return
	}
	seen := 0
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		b, ok := f.(*wire.Batch)
		if !ok {
			return
		}
		s.mu.Lock()
		s.batches = append(s.batches, b)
		seen++
		kill := s.killAfterBatches > 0 && seen >= s.killAfterBatches
		if !kill {
			if last := b.LastSeq(); last > s.applied {
				s.applied = last
			}
		}
		ack := s.applied
		s.mu.Unlock()
		if kill {
			return
		}
		if gate != nil {
			<-gate
		}
		if _, err := conn.Write(wire.AppendAck(nil, wire.Ack{AckSeq: ack, SentNs: time.Now().UnixNano()})); err != nil {
			return
		}
	}
}

func (s *stubServer) snapshot() ([]wire.Hello, []*wire.Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.Hello(nil), s.hellos...), append([]*wire.Batch(nil), s.batches...)
}

// events counts the events received so far, resends included.
func (s *stubServer) events() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.batches {
		n += len(b.Events)
	}
	return n
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

func TestDeliveryAndDrain(t *testing.T) {
	srv := newStubServer(t)
	x, err := New(Config{Addr: srv.addr(), DPID: 7, BatchSizeMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	const n = 100
	for i := 1; i <= n; i++ {
		x.Publish(ev(i))
	}
	if abandoned := x.Close(2 * time.Second); abandoned != 0 {
		t.Fatalf("abandoned %d events at close", abandoned)
	}
	hellos, batches := srv.snapshot()
	if len(hellos) == 0 || hellos[0].DPID != 7 || hellos[0].NextSeq != 1 {
		t.Fatalf("hellos = %+v", hellos)
	}
	// Sequence numbers must be contiguous 1..n across batches.
	next := uint64(1)
	total := 0
	for _, b := range batches {
		if b.FirstSeq != next {
			t.Fatalf("batch starts at %d, want %d", b.FirstSeq, next)
		}
		for i, e := range b.Events {
			if e.InPort != uint64(int(b.FirstSeq)+i) {
				t.Fatalf("event content out of order at seq %d", b.FirstSeq+uint64(i))
			}
			if e.SwitchID != 7 {
				t.Fatalf("event not stamped with DPID: %d", e.SwitchID)
			}
		}
		next = b.LastSeq() + 1
		total += len(b.Events)
	}
	if total != n {
		t.Fatalf("delivered %d events, want %d", total, n)
	}
	if !x.Ledger().Sound() {
		t.Fatalf("lossless run left unsound ledger: %+v", x.Ledger().Snapshot())
	}
	st := x.Stats()
	if st.Published != n || st.ShedEvents != 0 || st.BatchesAcked == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReconnectReplaysUnacked(t *testing.T) {
	srv := newStubServer(t)
	srv.killAfterBatches = 1 // first connection dies holding one unacked batch
	x, err := New(Config{Addr: srv.addr(), DPID: 1, BatchSizeMax: 4, BackoffMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	for i := 1; i <= 4; i++ {
		x.Publish(ev(i))
	}
	waitFor(t, "first batch", func() bool { _, b := srv.snapshot(); return len(b) >= 1 })
	srv.mu.Lock()
	srv.killAfterBatches = 0 // let the reconnect succeed
	srv.mu.Unlock()
	waitFor(t, "replayed batch", func() bool { _, b := srv.snapshot(); return len(b) >= 2 })
	if abandoned := x.Close(2 * time.Second); abandoned != 0 {
		t.Fatalf("abandoned %d events", abandoned)
	}
	hellos, batches := srv.snapshot()
	if len(hellos) < 2 {
		t.Fatalf("no reconnect: %d hellos", len(hellos))
	}
	if hellos[1].NextSeq != 1 {
		t.Fatalf("reconnect resume point = %d, want 1 (batch was unacked)", hellos[1].NextSeq)
	}
	if batches[0].FirstSeq != batches[1].FirstSeq || len(batches[0].Events) != len(batches[1].Events) {
		t.Fatalf("replay differs: %d/%d vs %d/%d",
			batches[0].FirstSeq, len(batches[0].Events), batches[1].FirstSeq, len(batches[1].Events))
	}
	if st := x.Stats(); st.Reconnects == 0 {
		t.Fatalf("stats.Reconnects = 0 after reconnect")
	}
	if !x.Ledger().Sound() {
		t.Fatal("replayed (not lost) events marked unsound")
	}
}

func TestShedDropNewestRecordsWireLoss(t *testing.T) {
	// No server at all: the queue fills and the policy sheds.
	x, err := New(Config{
		Addr: "127.0.0.1:1", DPID: 2, BatchSizeMax: 1, QueueBatches: 2,
		Shed: core.ShedDropNewest, BackoffMin: 10 * time.Millisecond,
		DialTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	for i := 1; i <= 10; i++ {
		x.Publish(ev(i))
	}
	st := x.Stats()
	if st.ShedEvents == 0 {
		t.Fatalf("no events shed: %+v", st)
	}
	x.Close(10 * time.Millisecond)
	if x.Ledger().Sound() {
		t.Fatal("shedding left the ledger sound")
	}
	marks := x.Ledger().Snapshot()
	if len(marks) != 1 || marks[0].Reason != core.UnsoundWireLoss || marks[0].Property != "*" {
		t.Fatalf("marks = %+v", marks)
	}
}

func TestNoteLossCreatesSequenceGap(t *testing.T) {
	srv := newStubServer(t)
	x, err := New(Config{Addr: srv.addr(), DPID: 3, BatchSizeMax: 64})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	x.Publish(ev(1)) // seq 1
	x.NoteLoss(3)    // seqs 2,3,4 consumed, never sent
	x.Publish(ev(2)) // seq 5
	x.Flush()
	waitFor(t, "both batches", func() bool { _, b := srv.snapshot(); return len(b) >= 2 })
	x.Close(2 * time.Second)
	_, batches := srv.snapshot()
	if batches[0].FirstSeq != 1 || len(batches[0].Events) != 1 {
		t.Fatalf("batch 0 = seq %d x%d", batches[0].FirstSeq, len(batches[0].Events))
	}
	if batches[1].FirstSeq != 5 {
		t.Fatalf("batch after NoteLoss(3) starts at %d, want 5", batches[1].FirstSeq)
	}
	if x.Ledger().Sound() {
		t.Fatal("NoteLoss left the ledger sound")
	}
	if st := x.Stats(); st.LossNoted != 3 {
		t.Fatalf("LossNoted = %d", st.LossNoted)
	}
}

func TestCloseAbandonsUndeliverable(t *testing.T) {
	x, err := New(Config{
		Addr: "127.0.0.1:1", DPID: 4, BatchSizeMax: 1,
		BackoffMin: 5 * time.Millisecond, DialTimeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	x.Publish(ev(1))
	x.Publish(ev(2))
	abandoned := x.Close(20 * time.Millisecond)
	if abandoned != 2 {
		t.Fatalf("abandoned = %d, want 2", abandoned)
	}
	if x.Ledger().Sound() {
		t.Fatal("abandoned events left the ledger sound")
	}
}

// TestSeriesPerCollector: one switch's exporters to two collectors share
// a registry (a federation.Router's routes do) yet register two series,
// labeled by collector, instead of summing into one.
func TestSeriesPerCollector(t *testing.T) {
	reg := obs.NewRegistry()
	for i, addr := range []string{"10.0.0.1:9190", "10.0.0.2:9190"} {
		x, err := New(Config{Addr: addr, DPID: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= i; n++ {
			x.Publish(ev(n))
		}
	}
	got := map[string]int64{}
	for _, f := range reg.Snapshot().Families {
		if f.Name != "switchmon_exporter_events_total" {
			continue
		}
		for _, s := range f.Series {
			labels := map[string]string{}
			for _, l := range s.Labels {
				labels[l.Key] = l.Value
			}
			if labels["dpid"] != "1" {
				t.Fatalf("series labels %v, want dpid 1", labels)
			}
			got[labels["collector"]] = s.Value
		}
	}
	if len(got) != 2 || got["10.0.0.1:9190"] != 1 || got["10.0.0.2:9190"] != 2 {
		t.Fatalf("switchmon_exporter_events_total by collector = %v, want 10.0.0.1:9190=1 and 10.0.0.2:9190=2", got)
	}
}
