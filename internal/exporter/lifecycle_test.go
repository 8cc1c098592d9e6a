package exporter

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"switchmon/internal/wire"
)

// Close must return promptly while the run loop is asleep in its
// reconnect backoff — the drain wait and the backoff sleep both watch
// closeCh. Regression: with an unreachable collector and a multi-second
// backoff floor, Close used to be on the hook for the full sleep.
func TestCloseDuringBackoffReturnsPromptly(t *testing.T) {
	dials := make(chan struct{}, 16)
	x, err := New(Config{
		DPID: 1,
		Dial: func() (net.Conn, error) {
			select {
			case dials <- struct{}{}:
			default:
			}
			return nil, errors.New("collector unreachable")
		},
		BackoffMin: 30 * time.Second,
		BackoffMax: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	x.Publish(ev(1)) // non-empty queue: the drain wait is also on the clock
	<-dials          // the run loop has failed a dial and entered backoff

	start := time.Now()
	abandoned := x.Close(50 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v mid-backoff, want prompt return", elapsed)
	}
	if abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1 (the queued event never shipped)", abandoned)
	}
	if x.Ledger().Sound() {
		t.Fatal("abandoning a queued event must mark the ledger")
	}
}

// lifecycleStub is a collector stand-in that negotiates the lifecycle
// feature, pushes scripted PropertySetUpdate frames after the
// handshake, and records the acks the exporter sends back.
type lifecycleStub struct {
	t       *testing.T
	ln      net.Listener
	updates []*wire.PropertySetUpdate

	mu   sync.Mutex
	acks []wire.PropertySetAck
}

func newLifecycleStub(t *testing.T, updates ...*wire.PropertySetUpdate) *lifecycleStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &lifecycleStub{t: t, ln: ln, updates: updates}
	t.Cleanup(func() { ln.Close() })
	go s.acceptLoop()
	return s
}

func (s *lifecycleStub) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(conn)
	}
}

func (s *lifecycleStub) serve(conn net.Conn) {
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
	now := time.Now().UnixNano()
	ha := wire.HelloAck{Features: h.Features & wire.FeatureLifecycle, RecvNs: now, SentNs: now}
	if _, err := conn.Write(wire.AppendHelloAck(nil, ha)); err != nil {
		return
	}
	for _, u := range s.updates {
		buf, err := wire.AppendPropertySetUpdate(nil, u)
		if err != nil {
			s.t.Error(err)
			return
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		switch fr := f.(type) {
		case wire.PropertySetAck:
			s.mu.Lock()
			s.acks = append(s.acks, fr)
			s.mu.Unlock()
		case *wire.Batch:
			if _, err := conn.Write(wire.AppendAck(nil, wire.Ack{AckSeq: fr.LastSeq()})); err != nil {
				return
			}
		}
	}
}

func (s *lifecycleStub) ackSnapshot() []wire.PropertySetAck {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.PropertySetAck(nil), s.acks...)
}

// The exporter applies pushed property sets in epoch order, filters
// stale ones, and acks each applied epoch on the wire.
func TestPropertySetPushStaleFilteredAndAcked(t *testing.T) {
	fresh := &wire.PropertySetUpdate{
		Epoch:  2,
		Props:  []wire.PropMeta{{Name: "fw", Tenant: "t1"}, {Name: "nat"}},
		Source: "property \"fw\" {}\n",
	}
	stale := &wire.PropertySetUpdate{Epoch: 1, Props: []wire.PropMeta{{Name: "old"}}}
	s := newLifecycleStub(t, fresh, stale)

	var mu sync.Mutex
	var seen []*wire.PropertySetUpdate
	x, err := New(Config{
		Addr: s.ln.Addr().String(), DPID: 7,
		OnPropertySet: func(u *wire.PropertySetUpdate) {
			mu.Lock()
			seen = append(seen, u)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	defer x.Close(time.Second)

	waitFor(t, "property-set ack", func() bool { return len(s.ackSnapshot()) >= 1 })

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 {
		t.Fatalf("callback ran %d times, want 1 (stale epoch filtered)", len(seen))
	}
	if seen[0].Epoch != 2 || len(seen[0].Props) != 2 || seen[0].Props[0].Tenant != "t1" {
		t.Fatalf("callback update = %+v, want epoch 2 with 2 props", seen[0])
	}
	if seen[0].Source != fresh.Source {
		t.Fatalf("source = %q, want %q", seen[0].Source, fresh.Source)
	}
	acks := s.ackSnapshot()
	if len(acks) != 1 || acks[0].Epoch != 2 {
		t.Fatalf("acks = %+v, want exactly [epoch 2]", acks)
	}
	st := x.Stats()
	if st.PropertySetEpoch != 2 || st.PropertySets != 1 {
		t.Fatalf("stats epoch=%d sets=%d, want 2/1", st.PropertySetEpoch, st.PropertySets)
	}
}

// A v1 exporter (no OnPropertySet) must not offer the lifecycle feature
// bit; interop with old collectors is preserved by never sending the
// new frames on such connections.
func TestNoLifecycleOfferWithoutCallback(t *testing.T) {
	s := newStubServer(t)
	x, err := New(Config{Addr: s.addr(), DPID: 3})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	defer x.Close(time.Second)
	x.Publish(ev(1))
	x.Flush()
	waitFor(t, "hello", func() bool {
		hellos, _ := s.snapshot()
		return len(hellos) >= 1
	})
	hellos, _ := s.snapshot()
	if hellos[0].Features&wire.FeatureLifecycle != 0 {
		t.Fatalf("hello features %b offer lifecycle without a callback", hellos[0].Features)
	}
}
