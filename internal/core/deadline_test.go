package core

import (
	"fmt"
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
)

// unansweredWithin builds "an arrival from A is answered (egress to A)
// within a second" — a two-stage property whose second stage is a
// negative observation with a static window.
func unansweredWithin(name string) *property.Property {
	b := property.New(name, "every arrival is answered within a second")
	b.OnArrival("request").Bind("A", packet.FieldIPSrc)
	b.UnlessWithin("reply", property.Egress, time.Second).
		Where(property.EqVar(packet.FieldIPDst, "A"))
	return b.MustBuild()
}

// Deadlines of different (property, stage) queues that fall on one
// instant, and scheduler tasks that fall on it too, fire in the order
// they were armed — the order the per-instance timers they replace fired
// in — not queue by queue.
func TestEqualDeadlinesFireInArmOrder(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvLimited}, unansweredWithin("p1"), unansweredWithin("p2"))
	var order []string
	h.mon.cfg.OnViolation = func(v *Violation) {
		order = append(order, fmt.Sprintf("%s:%d", v.Property, v.Binding("A").Uint64()&0xff))
	}
	open := func(host uint32) {
		p := packet.NewTCP(macA, macB, packet.IPv4FromUint32(0x0a000000|host), packet.IPv4FromUint32(0xcb007101),
			1000, 80, packet.FlagSYN, nil)
		h.arrival(p, 1)
	}
	// Each arrival arms p1's queue then p2's; the task lands between.
	open(1)
	h.sched.After(time.Second, func() { order = append(order, "task") })
	open(2)
	open(3)
	if got := h.sched.Pending(); got != 7 {
		t.Fatalf("Pending = %d, want 6 deadlines + 1 task", got)
	}
	h.sched.RunFor(time.Second)
	want := "[p1:1 p2:1 task p1:2 p2:2 p1:3 p2:3]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("firing order %s, want %s", got, want)
	}
	if got := h.sched.Pending(); got != 0 {
		t.Fatalf("Pending = %d after every deadline fired", got)
	}
	if err := h.mon.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// A cancelled deadline never fires and stops counting as pending at the
// cancel, not when its queue entry surfaces; a queue that is mostly
// cancelled entries packs itself instead of growing.
func TestCancelledDeadlinesAreSkippedAndCompacted(t *testing.T) {
	h := newHarness(t, Config{}, unansweredWithin("p"))
	// Every 10 ms, 64 fresh hosts send a request and all but 8 are
	// answered at once. A one-second window then holds 100 rounds: 800
	// live deadlines among 6400 armed.
	const hosts, unanswered, rounds = 64, 8, 400
	pending := func(round int) int {
		if round >= 100 {
			round = 99
		}
		return (round + 1) * unanswered
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < hosts; i++ {
			src := packet.IPv4FromUint32(0x0a000000 | uint32(round*hosts+i))
			dst := packet.IPv4FromUint32(0xcb007101)
			h.arrival(packet.NewTCP(macA, macB, src, dst, 1000, 80, packet.FlagSYN, nil), 1)
			if i >= unanswered {
				// Answered: the negative observation is discharged and its
				// deadline cancelled.
				reply := packet.NewTCP(macB, macA, dst, src, 80, 1000, packet.FlagACK, nil)
				h.egress(h.nextPID(), reply, 2, 1)
			}
		}
		if got, want := h.sched.Pending(), pending(round); got != want {
			t.Fatalf("round %d: Pending = %d, want %d", round, got, want)
		}
		h.sched.RunFor(10 * time.Millisecond)
	}
	q := h.mon.buckets[0][1].dq
	if got, most := cap(q.items), 4*100*unanswered; got > most {
		t.Fatalf("deadline queue grew to %d entries for 800 live; more than half stale should compact (bound %d)", got, most)
	}
	if err := h.mon.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	h.sched.RunFor(2 * time.Second)
	if got := h.sched.Pending(); got != 0 {
		t.Fatalf("Pending = %d after the last window", got)
	}
	if got, want := len(h.viols), rounds*unanswered; got != want {
		t.Fatalf("violations = %d, want %d", got, want)
	}
}
