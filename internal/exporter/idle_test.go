package exporter

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/sim"
)

// forEachMode runs body once per way to run the one sealing rule: on the
// plain cap (no seal controller), and with the EWMA controller free to
// lower the target below the cap.
func forEachMode(t *testing.T, body func(t *testing.T, slo time.Duration)) {
	for _, m := range []struct {
		name string
		slo  time.Duration
	}{{"cap", 0}, {"ewma", 250 * time.Microsecond}} {
		t.Run(m.name, func(t *testing.T) { body(t, m.slo) })
	}
}

// startFrozen starts an exporter whose clock never moves, with the seal
// controller on when slo is positive. The frozen clock reads every
// arrival gap as ~0, so once the controller has a gap its target sits at
// BatchSizeMax, as the plain cap's does: a batch below it ships only if
// the sender seals it.
func startFrozen(t *testing.T, slo time.Duration, cfg Config) *Exporter {
	t.Helper()
	cfg.Now = func() time.Time { return sim.Epoch }
	cfg.TargetSealLatency = slo
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	return x
}

// warmUp publishes two events and waits for both to ship. With the
// controller and no rate estimate yet, both seal by size as singletons;
// the second gives the controller a gap of ~0 on the frozen clock, so
// the target jumps to BatchSizeMax and later events wait in the open
// batch. ack, when non-nil, releases each warm-up batch's ack.
func warmUp(t *testing.T, x *Exporter, srv *stubServer, ack func()) {
	t.Helper()
	for i := 1; i <= 2; i++ {
		x.Publish(ev(i))
		if ack != nil {
			ack()
		}
	}
	waitFor(t, "the two warm-up events", func() bool { return srv.events() == 2 })
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

// A lone event far below the batch target ships with no Flush: the idle
// sender seals it.
func TestIdleSenderShipsLoneEvent(t *testing.T) {
	forEachMode(t, func(t *testing.T, slo time.Duration) {
		srv := newStubServer(t)
		reg := obs.NewRegistry()
		x := startFrozen(t, slo, Config{Addr: srv.addr(), DPID: 1, Metrics: reg})
		warmUp(t, x, srv, nil)
		before := sealsByReason(reg)
		x.Publish(ev(3))
		waitFor(t, "the lone event", func() bool { return srv.events() == 3 })
		if abandoned := x.Close(2 * time.Second); abandoned != 0 {
			t.Fatalf("abandoned %d events", abandoned)
		}
		after := sealsByReason(reg)
		for reason, n := range after {
			want := before[reason]
			if reason == "idle" {
				want++
			}
			if n != want {
				t.Fatalf("seals by reason went from %v to %v, want one more idle seal and nothing else", before, after)
			}
		}
	})
}

// Events published while the link is cut stay below the target, so
// nothing seals them then. Once the link reconnects, every event ships
// with no Flush: the sender replays what was sealed and seals the rest.
func TestCutLinkShipsOnReconnect(t *testing.T) {
	forEachMode(t, func(t *testing.T, slo time.Duration) {
		srv := newStubServer(t)
		var up atomic.Bool
		refused := make(chan struct{}, 1)
		x := startFrozen(t, slo, Config{DPID: 1, BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond,
			Dial: func() (net.Conn, error) {
				if !up.Load() {
					select {
					case refused <- struct{}{}:
					default:
					}
					return nil, errors.New("link cut")
				}
				return net.Dial("tcp", srv.addr())
			}})
		<-refused // the sender has found the link cut
		const n = 10
		for i := 1; i <= n; i++ {
			x.Publish(ev(i))
		}
		if target := x.Stats().BatchTarget; target <= n {
			t.Fatalf("target = %d, want the %d events to stay below it", target, n)
		}
		up.Store(true)
		waitFor(t, "every event after the reconnect", func() bool { return srv.events() == n })
		if abandoned := x.Close(2 * time.Second); abandoned != 0 {
			t.Fatalf("abandoned %d events", abandoned)
		}
	})
}

// A burst raises the target; a lone event after the burst then sits far
// below it and ships with no Flush, because the idle sender seals it.
func TestIdleSealBridgesBurstEnd(t *testing.T) {
	forEachMode(t, func(t *testing.T, slo time.Duration) {
		srv := newStubServer(t)
		x := startFrozen(t, slo, Config{Addr: srv.addr(), DPID: 1})
		const burst = 2048
		for i := 1; i <= burst; i++ {
			x.Publish(ev(i))
		}
		x.Flush()
		waitFor(t, "the burst", func() bool { return srv.events() == burst })
		if target := x.Stats().BatchTarget; target < 100 {
			t.Fatalf("burst target = %d, want ≥ 100", target)
		}
		x.Publish(ev(burst + 1))
		waitFor(t, "the lone event after the burst", func() bool { return srv.events() == burst+1 })
		if abandoned := x.Close(2 * time.Second); abandoned != 0 {
			t.Fatalf("abandoned %d events", abandoned)
		}
	})
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
	forEachMode(t, func(t *testing.T, slo time.Duration) {
		srv := newStubServer(t)
		open := make(chan struct{})
		x := startFrozen(t, slo, Config{DPID: 1, Dial: func() (net.Conn, error) {
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
		// At most two leading small batches (the controller's warm-up
		// singletons, or the first event idle-sealed), then full batches
		// of 256 and the tail.
		_, batches := srv.snapshot()
		if limit := (n+255)/256 + 2; len(batches) > limit {
			t.Fatalf("%d events arrived in %d batches, want at most %d", n, len(batches), limit)
		}
	})
}

// With a one-batch queue, an event published while the only slot awaits
// its ack cannot be sealed then; the ack that frees the slot must wake
// the sender to seal and ship it.
func TestAckWakesIdleSender(t *testing.T) {
	forEachMode(t, func(t *testing.T, slo time.Duration) {
		srv := newStubServer(t)
		gate := make(chan struct{})
		srv.mu.Lock()
		srv.ackGate = gate
		srv.mu.Unlock()
		x := startFrozen(t, slo, Config{Addr: srv.addr(), DPID: 1, QueueBatches: 1})
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
	})
}
