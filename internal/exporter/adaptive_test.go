package exporter

import (
	"fmt"
	"net"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/sim"
)

// newFakeClockExporter builds an exporter with an injected clock and a
// dial stub, and never calls Start — no sender, no real time anywhere,
// so every controller decision is a pure function of the published
// timestamps.
func newFakeClockExporter(t *testing.T, clock *time.Time, cfg Config) *Exporter {
	t.Helper()
	cfg.Dial = func() (net.Conn, error) { return nil, fmt.Errorf("no network in fake-clock tests") }
	cfg.Now = func() time.Time { return *clock }
	// Nothing drains the queue without Start(); keep it effectively
	// unbounded so a full queue's ShedBlock wait can't deadlock the test.
	cfg.QueueBatches = 1 << 20
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// publishN publishes n events spaced gap apart on the fake clock and
// returns the size of every batch sealed while doing so.
func publishN(x *Exporter, clock *time.Time, n int, gap time.Duration) []int {
	var sizes []int
	for i := 0; i < n; i++ {
		*clock = clock.Add(gap)
		before := len(x.queue)
		x.Publish(core.Event{Kind: core.KindArrival, Time: *clock})
		for _, b := range x.queue[before:] {
			sizes = append(sizes, len(b.Events))
		}
	}
	return sizes
}

// The controller's trajectory under trickle → burst → trickle is a pure
// function of the injected timestamps; this pins it.
func TestAdaptiveBatchSizeTrajectory(t *testing.T) {
	const slo = 250 * time.Microsecond
	clock := sim.Epoch
	x := newFakeClockExporter(t, &clock, Config{TargetSealLatency: slo, BatchSizeMax: 256})

	if got := x.Stats().BatchTarget; got != 1 {
		t.Fatalf("initial target = %d, want 1 (no rate estimate yet)", got)
	}

	// Trickle: one event per millisecond, 4× the SLO. Every batch must
	// seal at size 1 — the adaptive exporter ships trickle traffic with
	// per-event latency.
	for i, size := range publishN(x, &clock, 50, time.Millisecond) {
		if size != 1 {
			t.Fatalf("trickle batch %d sealed at size %d, want 1", i, size)
		}
	}
	if got := x.Stats().BatchTarget; got != 1 {
		t.Fatalf("trickle target = %d, want 1", got)
	}

	// Burst: one event per microsecond. The gap EWMA collapses toward
	// 1µs, so the target must grow monotonically and converge to
	// slo/gap = 250.
	burstSizes := publishN(x, &clock, 4096, time.Microsecond)
	for i := 1; i < len(burstSizes); i++ {
		if burstSizes[i] < burstSizes[i-1] {
			t.Fatalf("burst batch sizes not monotone: %v", burstSizes[:i+1])
		}
	}
	// The EWMA approaches the 1µs gap from above, so slo/gap sits just
	// under 250 and integer truncation pins the converged target at 249.
	if got := x.Stats().BatchTarget; got != 249 {
		t.Fatalf("burst target = %d, want 249 (slo 250µs / gap ~1µs, truncated)", got)
	}
	if last := burstSizes[len(burstSizes)-1]; last != 249 {
		t.Fatalf("late burst batches sealed at %d, want 249", last)
	}

	// Back to trickle. The target is still burst-sized, so single events
	// never reach it; the idle seal (driven by hand — there is no sender
	// goroutine without Start) ships each as a singleton, and its reseal
	// collapses the target: the EWMA's 1/8 gain recovers in one step, the
	// first 1ms gap (clamped to 4×SLO) dragging the estimate to ~126µs
	// and the target back to 1.
	x.Flush()
	for i := 0; i < 50; i++ {
		clock = clock.Add(time.Millisecond)
		x.Publish(core.Event{Kind: core.KindArrival, Time: clock})
		x.mu.Lock()
		x.sealLocked(sealIdle)
		size := len(x.queue[len(x.queue)-1].Events)
		x.mu.Unlock()
		if size != 1 {
			t.Fatalf("post-burst trickle batch %d sealed at size %d, want 1", i, size)
		}
	}
	if got := x.Stats().BatchTarget; got != 1 {
		t.Fatalf("post-burst target = %d, want 1", got)
	}
}

// An idle stretch must not poison the rate estimate: gaps are clamped
// at 4×SLO, so one event after a long silence reads as "slow", and a
// following burst re-grows the target as fast as from a cold start.
func TestAdaptiveIdleClampsGap(t *testing.T) {
	const slo = 250 * time.Microsecond
	clock := sim.Epoch
	x := newFakeClockExporter(t, &clock, Config{TargetSealLatency: slo, BatchSizeMax: 256})

	publishN(x, &clock, 20, time.Microsecond) // warm toward burst
	warm := x.Stats().BatchTarget

	// One event after an hour idle.
	publishN(x, &clock, 1, time.Hour)
	publishN(x, &clock, 20, time.Microsecond)
	cold := x.Stats().BatchTarget

	// The hour gap entered the EWMA as just 1ms (4×SLO): 20 burst events
	// later the target must be within one resealing step of the
	// uninterrupted warm-up, not stuck at 1.
	if cold < warm/2 {
		t.Fatalf("target after idle+burst = %d, want near warm-up's %d (idle gap not clamped?)", cold, warm)
	}
}

// TargetSealLatency zero means no controller at all: the target is
// BatchSizeMax, and a publisher with no sender seals at it.
func TestCapSealsWithoutController(t *testing.T) {
	clock := sim.Epoch
	x := newFakeClockExporter(t, &clock, Config{BatchSizeMax: 4})
	if x.ctl != nil {
		t.Fatal("a config without TargetSealLatency built a seal controller")
	}
	sizes := publishN(x, &clock, 8, time.Microsecond)
	if len(sizes) != 2 || sizes[0] != 4 || sizes[1] != 4 {
		t.Fatalf("cap seals = %v, want [4 4]", sizes)
	}
	if got := x.Stats().BatchTarget; got != 4 {
		t.Fatalf("cap target = %d, want BatchSizeMax 4", got)
	}
}

// Config validation: a negative SLO and a negative clamp are nonsense.
func TestAdaptiveConfigValidation(t *testing.T) {
	dial := func() (net.Conn, error) { return nil, fmt.Errorf("unused") }
	if _, err := New(Config{Dial: dial, TargetSealLatency: -time.Millisecond}); err == nil {
		t.Fatal("negative TargetSealLatency accepted")
	}
	for _, slo := range []time.Duration{0, time.Millisecond} {
		if _, err := New(Config{Dial: dial, TargetSealLatency: slo, BatchSizeMax: -8}); err == nil {
			t.Fatalf("negative BatchSizeMax accepted with TargetSealLatency %v", slo)
		}
	}
}

// Regression: sendNs entries whose acks never arrive (batch shed after
// its timestamp was recorded, or a peer that stops timestamping acks)
// must be evicted by the horizon instead of accumulating forever.
func TestSendNsEvictedPastHorizon(t *testing.T) {
	clock := sim.Epoch
	x := newFakeClockExporter(t, &clock, Config{})
	base := sim.Epoch.UnixNano()
	x.mu.Lock()
	x.sendNs = map[uint64]int64{
		10: base,                                                  // stale: never acked
		20: base + int64(sendNsHorizon)/2,                         // stale: never acked
		30: base + int64(sendNsHorizon) + int64(time.Millisecond), // fresh
	}
	x.evictSendNsLocked(base + 2*int64(sendNsHorizon))
	defer x.mu.Unlock()
	if _, ok := x.sendNs[10]; ok {
		t.Fatal("entry 10 survived past the horizon")
	}
	if _, ok := x.sendNs[20]; ok {
		t.Fatal("entry 20 survived past the horizon")
	}
	if _, ok := x.sendNs[30]; !ok {
		t.Fatal("fresh entry 30 was evicted")
	}
}
