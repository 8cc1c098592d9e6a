package core

import (
	"errors"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// superviseStream is a deterministic firewall-shaped workload: flows
// open, exchange returns, and every tenth return is wrongfully dropped
// (a firewall-basic violation). Distinct (src,dst) pairs spread the
// stream across shards.
func superviseStream(flows, returns int) []Event {
	var evs []Event
	var pid PacketID
	now := sim.Epoch
	step := func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}
	for f := 0; f < flows; f++ {
		src := packet.IPv4FromUint32(0x0a000000 + uint32(f))
		dst := packet.IPv4FromUint32(0xcb000000 + uint32(f))
		open := packet.NewTCP(macA, macB, src, dst, uint16(10000+f%50000), 80, packet.FlagSYN, nil)
		pid++
		evs = append(evs,
			Event{Kind: KindArrival, Time: step(), PacketID: pid, Packet: open, InPort: 1},
			Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: open, InPort: 1, OutPort: 2})
	}
	n := 0
	for r := 0; r < returns; r++ {
		for f := 0; f < flows; f++ {
			src := packet.IPv4FromUint32(0x0a000000 + uint32(f))
			dst := packet.IPv4FromUint32(0xcb000000 + uint32(f))
			ret := packet.NewTCP(macB, macA, dst, src, 80, uint16(10000+f%50000), packet.FlagACK, nil)
			pid++
			n++
			eg := Event{Kind: KindEgress, Time: step(), PacketID: pid, Packet: ret, InPort: 2, OutPort: 1}
			if n%10 == 0 {
				eg.OutPort = 0
				eg.Dropped = true
			}
			evs = append(evs,
				Event{Kind: KindArrival, Time: now, PacketID: pid, Packet: ret, InPort: 2},
				eg)
		}
	}
	return evs
}

// The differential quarantine gate (acceptance criterion): inject a
// panic into one property — on one shard of a sharded engine, or on the
// inline Monitor itself; the process must survive, the panicking property
// must be quarantined and flagged unsound, and every other property's
// violation count must be identical to an unprobed inline engine's on
// the same trace.
func TestShardPanicQuarantinesOnlyThatProperty(t *testing.T) {
	props := []*property.Property{
		property.CatalogByName(property.DefaultParams(), "firewall-basic"),
		property.CatalogByName(property.DefaultParams(), "firewall-until-close"),
		property.CatalogByName(property.DefaultParams(), "nat-reverse"), // catch-all: exercises shard 0
	}
	const victim = 1 // firewall-until-close
	evs := superviseStream(300, 3)

	// Inline reference run.
	inlineCounts := map[string]int{}
	sched := sim.NewScheduler()
	mi := NewMonitor(sched, Config{OnViolation: func(v *Violation) { inlineCounts[v.Property]++ }})
	for _, p := range props {
		if err := mi.AddProperty(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := range evs {
		mi.Feed(evs[i])
	}
	sched.RunFor(time.Hour)

	forEachEngine(t, func(t *testing.T, row engineRow) {
		// The same run with an injected panic in the victim property.
		r := newRig(t, row, Config{}, props...)
		r.probe(2, func(prop int, seq uint64) {
			if prop == victim {
				panic("injected step panic (supervised)")
			}
		})
		for i := range evs {
			r.feed(evs[i])
		}
		r.advance(time.Hour)

		// The process survived (we are here). The victim must be quarantined
		// and flagged unsound with the panic attributed.
		st := r.eng.Stats()
		if st.QuarantinedProperties != 1 {
			t.Fatalf("QuarantinedProperties=%d want 1", st.QuarantinedProperties)
		}
		if r.eng.Quarantined() != uint64(1)<<victim {
			t.Fatalf("quarantine mask=%b want bit %d", r.eng.Quarantined(), victim)
		}
		marks := r.eng.Ledger().Snapshot()
		if len(marks) != 1 || marks[0].Property != props[victim].Name || marks[0].Reason != UnsoundQuarantine {
			t.Fatalf("ledger marks=%+v want one quarantine mark for %s", marks, props[victim].Name)
		}
		if !strings.Contains(marks[0].Detail, "injected step panic") || !strings.HasPrefix(marks[0].Detail, "panic on shard ") {
			t.Fatalf("mark detail %q does not carry the shard and the panic", marks[0].Detail)
		}
		// Differential gate: every surviving property agrees with inline.
		// nat-reverse legitimately sees zero violations on a firewall-shaped
		// stream (it rides along as the catch-all/shard-0 property), so the
		// non-vacuity requirement is on the gate as a whole, not per property.
		nonVacuous := false
		for i, p := range props {
			if i == victim {
				continue
			}
			if got := r.violations(p.Name); inlineCounts[p.Name] != got {
				t.Errorf("%s: inline=%d probed=%d violations", p.Name, inlineCounts[p.Name], got)
			}
			if inlineCounts[p.Name] > 0 {
				nonVacuous = true
			}
		}
		if !nonVacuous {
			t.Error("no surviving property found violations; the gate is vacuous")
		}
		if err := r.eng.SelfCheck(); err != nil {
			t.Fatalf("post-quarantine invariants: %v", err)
		}
	})
}

// echoRequests is n echo requests that never get a reply: under
// ping-reply-within each one violates when its window deadline fires.
func echoRequests(n int) []Event {
	now := sim.Epoch
	var evs []Event
	for i := 0; i < n; i++ {
		src := packet.IPv4FromUint32(0x0a000000 + uint32(i))
		dst := packet.IPv4FromUint32(0xcb000000 + uint32(i))
		req := packet.NewICMPEcho(macA, macB, src, dst, uint16(i+1), 1, false)
		now = now.Add(time.Millisecond)
		evs = append(evs, Event{Kind: KindArrival, Time: now, PacketID: PacketID(i + 1), Packet: req, InPort: 1})
	}
	return evs
}

// pingPanics is a violation callback that explodes for ping-reply-within.
func pingPanics(v *Violation) {
	if v.Property == "ping-reply-within" {
		panic("violation callback exploded")
	}
}

// wantPingQuarantined requires exactly the timer-panic outcome: one
// quarantine mark, on ping-reply-within, and a store with no row leaked.
func wantPingQuarantined(t *testing.T, eng contractEngine) {
	t.Helper()
	marks := eng.Ledger().Snapshot()
	if len(marks) != 1 || marks[0].Reason != UnsoundQuarantine || marks[0].Property != "ping-reply-within" {
		t.Fatalf("expected ping-reply-within quarantined from a timer panic, got %+v", marks)
	}
	if got := eng.ActiveInstances(); got != 0 {
		t.Fatalf("quarantined property still holds %d instances", got)
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatalf("post-quarantine invariants: %v", err)
	}
}

// A panic inside a timer callback — here the user violation callback,
// fired by ping-reply-within's UnlessWithin deadline expiring with no
// reply — is recovered where the deadline fires and attributed to the
// right property. This exercises the timer path (advanceByTimeout),
// which runs under Scheduler.RunUntil rather than event application.
func TestTimerPanicIsSupervised(t *testing.T) {
	forEachEngine(t, func(t *testing.T, row engineRow) {
		r := newRig(t, row, Config{OnViolation: pingPanics},
			property.CatalogByName(property.DefaultParams(), "ping-reply-within"))
		for _, e := range echoRequests(20) {
			r.feed(e)
		}
		r.advance(24 * time.Hour)
		wantPingQuarantined(t, r.eng)
	})
}

// The same panic when the monitor does not drive the scheduler its
// deadlines ride on — the dataplane's, the bench's: the test runs the
// scheduler itself, so no engine entry point is on the stack when the
// deadline fires and only fireDeadline's own recovery stands between the
// callback's panic and the process.
func TestTimerPanicOnForeignSchedulerIsSupervised(t *testing.T) {
	sched := sim.NewScheduler()
	mon := NewMonitor(sched, Config{OnViolation: pingPanics})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "ping-reply-within")); err != nil {
		t.Fatal(err)
	}
	for _, e := range echoRequests(20) {
		sched.RunUntil(e.Time)
		mon.HandleEvent(e)
	}
	sched.RunFor(24 * time.Hour)
	wantPingQuarantined(t, mon)
	if st := mon.Stats(); st.QuarantinedProperties != 1 || st.Violations != 1 {
		t.Fatalf("stats %+v: want one quarantined property and the one violation that panicked", st)
	}
}

// Close satellite: idempotent, concurrency-safe, and Submit reports
// ErrClosed afterwards instead of panicking on a closed channel.
func TestCloseIdempotentAndSubmitAfterClose(t *testing.T) {
	sm := NewShardedMonitor(2, Config{})
	if err := sm.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	evs := superviseStream(20, 1)
	for i := range evs {
		if err := sm.Submit(evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sm.Close()
		}()
	}
	wg.Wait()
	sm.Close() // and again, after it is already closed
	if err := sm.Submit(evs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := sm.SubmitBatch(evs, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitBatch after Close = %v, want ErrClosed", err)
	}
	// Aggregate accessors stay usable after Close.
	if st := sm.Stats(); st.Events == 0 {
		t.Fatal("Stats unusable after Close")
	}
}

// Close racing Submit: the loser of the race gets ErrClosed, never a
// panic. Run under -race in check.sh.
func TestCloseConcurrentWithSubmit(t *testing.T) {
	sm := NewShardedMonitor(2, Config{})
	if err := sm.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	evs := superviseStream(50, 2)
	done := make(chan error, 1)
	go func() {
		for {
			for i := range evs {
				if err := sm.Submit(evs[i]); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	sm.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("racing Submit returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submitter never observed the close")
	}
}

// A full shard queue blocks the router and loses nothing. Shard 0 is
// parked in its first step while a feeder submits more events than the
// parked worker, the queue and the router's pending batch can hold
// between them: once the queue-depth gauge reads full the feeder must
// still be inside SubmitBatch, and after the release every event must have
// been applied — nothing shed, the ledger clean, the verdicts an inline
// Monitor's. nat-reverse is catch-all, so every event routes to shard 0.
func TestStalledShardBlocksAndLosesNothing(t *testing.T) {
	props := []*property.Property{
		property.CatalogByName(property.DefaultParams(), "firewall-basic"),
		property.CatalogByName(property.DefaultParams(), "nat-reverse"),
	}
	evs := superviseStream(1500, 1)
	if len(evs) <= (shardQueueLen+2)*shardBatchSize {
		t.Fatalf("%d events cannot overfill a %d-batch queue", len(evs), shardQueueLen)
	}
	record := func(sink *[]string) func(*Violation) {
		return func(v *Violation) { *sink = append(*sink, v.Property+"@"+v.Time.Format(time.RFC3339Nano)) }
	}
	var inline, sharded []string
	mi := NewMonitor(sim.NewScheduler(), Config{OnViolation: record(&inline)})
	reg := obs.NewRegistry()
	sm := NewShardedMonitor(2, Config{OnViolation: record(&sharded), Metrics: reg})
	defer sm.Close()
	for _, p := range props {
		if err := mi.AddProperty(p); err != nil {
			t.Fatal(err)
		}
		if err := sm.AddProperty(p); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	if err := sm.SetShardProbe(0, func(int, uint64) { <-release }); err != nil {
		t.Fatal(err)
	}
	fed := make(chan error, 1)
	go func() { fed <- sm.SubmitBatch(evs, nil) }()

	depth := reg.Gauge("switchmon_shard_queue_depth", "", obs.L("shard", "0"))
	for depth.Value() < shardQueueLen {
		select {
		case err := <-fed:
			close(release)
			t.Fatalf("feeder returned (%v) with shard 0's queue at depth %d", err, depth.Value())
		default:
			runtime.Gosched()
		}
	}
	select {
	case err := <-fed:
		close(release)
		t.Fatalf("feeder returned (%v) past a full shard queue; it must block", err)
	default:
	}
	close(release)
	if err := <-fed; err != nil {
		t.Fatal(err)
	}

	end := evs[len(evs)-1].Time.Add(time.Hour)
	for i := range evs {
		mi.Feed(evs[i])
	}
	mi.AdvanceTo(end)
	sm.AdvanceTo(end)
	if st := sm.Stats(); st.ShedEvents != 0 || st != mi.Stats() {
		t.Fatalf("stats after a stall:\nsharded: %+v\ninline:  %+v", st, mi.Stats())
	}
	if !sm.Ledger().Sound() {
		t.Fatalf("a blocking queue marked the ledger: %+v", sm.Ledger().Snapshot())
	}
	if err := sm.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(inline)
	sort.Strings(sharded)
	if len(inline) == 0 || strings.Join(inline, " ") != strings.Join(sharded, " ") {
		t.Fatalf("violations: inline %d, sharded %d; want equal non-empty multisets", len(inline), len(sharded))
	}
}

// ShedPolicy string forms (used in CLI/docs output).
func TestShedPolicyString(t *testing.T) {
	for want, p := range map[string]ShedPolicy{"block": ShedBlock, "drop-newest": ShedDropNewest} {
		if p.String() != want {
			t.Errorf("%d.String()=%q want %q", p, p.String(), want)
		}
	}
}
