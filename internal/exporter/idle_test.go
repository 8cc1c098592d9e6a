package exporter

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/sim"
)

// startFrozen starts an adaptive exporter whose clock never moves: the
// age flusher then never fires, so a batch below the controller's target
// ships only if the sender seals it.
func startFrozen(t *testing.T, cfg Config) *Exporter {
	t.Helper()
	cfg.Now = func() time.Time { return sim.Epoch }
	cfg.TargetSealLatency = 250 * time.Microsecond
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	return x
}

// warmUp publishes two events. With no rate estimate yet, both seal by
// size as singletons; the second gives the controller a gap of ~0 on the
// frozen clock, so the target jumps to BatchSizeMax and later events wait
// in the open batch. ack, when non-nil, releases each singleton's ack.
func warmUp(t *testing.T, x *Exporter, srv *stubServer, ack func()) {
	t.Helper()
	for i := 1; i <= 2; i++ {
		x.Publish(ev(i))
		if ack != nil {
			ack()
		}
	}
	waitFor(t, "the two warm-up singletons", func() bool { return srv.events() == 2 })
	if got := x.Stats().BatchTarget; got != 256 {
		t.Fatalf("target after warm-up = %d, want 256", got)
	}
}

func sealsByReason(reg *obs.Registry) map[string]int64 {
	got := map[string]int64{}
	for _, f := range reg.Snapshot().Families {
		if f.Name != "switchmon_exporter_batch_seals_total" {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Key == "reason" {
					got[l.Value] = s.Value
				}
			}
		}
	}
	return got
}

// A lone event far below the batch target ships with no Flush and no
// age seal: the idle sender seals it.
func TestIdleSenderShipsLoneEvent(t *testing.T) {
	srv := newStubServer(t)
	reg := obs.NewRegistry()
	x := startFrozen(t, Config{Addr: srv.addr(), DPID: 1, Metrics: reg})
	warmUp(t, x, srv, nil)
	x.Publish(ev(3))
	waitFor(t, "the lone event", func() bool { return srv.events() == 3 })
	if abandoned := x.Close(2 * time.Second); abandoned != 0 {
		t.Fatalf("abandoned %d events", abandoned)
	}
	if seals := sealsByReason(reg); seals["idle"] != 1 || seals["age"] != 0 {
		t.Fatalf("seals by reason = %v, want one idle seal and no age seal", seals)
	}
}

// gatedConn lets the handshake's Hello through and blocks every later
// write until open is closed: a link that cannot keep up.
type gatedConn struct {
	net.Conn
	writes atomic.Int32
	open   chan struct{}
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		<-c.open
	}
	return c.Conn.Write(p)
}

// A busy sender must not degrade to one frame per event: while its
// writes block, events pile into size-sealed batches, and the idle seal
// only ships the tail once the link frees.
func TestBusySenderStillBatches(t *testing.T) {
	srv := newStubServer(t)
	open := make(chan struct{})
	x := startFrozen(t, Config{DPID: 1, Dial: func() (net.Conn, error) {
		c, err := net.Dial("tcp", srv.addr())
		if err != nil {
			return nil, err
		}
		return &gatedConn{Conn: c, open: open}, nil
	}})
	const n = 1000
	for i := 1; i <= n; i++ {
		x.Publish(ev(i))
	}
	close(open)
	waitFor(t, "every event", func() bool { return srv.events() == n })
	if abandoned := x.Close(2 * time.Second); abandoned != 0 {
		t.Fatalf("abandoned %d events", abandoned)
	}
	// Two warm-up singletons, then full batches of 256 and the tail.
	_, batches := srv.snapshot()
	if limit := (n+255)/256 + 2; len(batches) > limit {
		t.Fatalf("%d events arrived in %d batches, want at most %d", n, len(batches), limit)
	}
}

// With a one-batch queue, an event published while the only slot awaits
// its ack cannot be sealed then; the ack that frees the slot must wake
// the sender to seal and ship it.
func TestAckWakesIdleSender(t *testing.T) {
	srv := newStubServer(t)
	gate := make(chan struct{})
	srv.mu.Lock()
	srv.ackGate = gate
	srv.mu.Unlock()
	x := startFrozen(t, Config{Addr: srv.addr(), DPID: 1, QueueBatches: 1})
	ack := func() { gate <- struct{}{} }
	warmUp(t, x, srv, ack)
	x.Publish(ev(3))
	waitFor(t, "the idle-sealed third event", func() bool { return srv.events() == 3 })
	x.Publish(ev(4)) // the third event's batch holds the only slot
	ack()
	waitFor(t, "the event published while the slot was taken", func() bool { return srv.events() == 4 })
	close(gate)
	if abandoned := x.Close(2 * time.Second); abandoned != 0 {
		t.Fatalf("abandoned %d events", abandoned)
	}
}
