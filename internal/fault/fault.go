// Package fault is the deterministic chaos layer: a seed-driven
// injector that perturbs an event feed (drop, duplicate, reorder,
// delay) and arms shard-level faults (panic or stall a chosen shard at
// a chosen event count). Everything draws from sim.NewRand, so a chaos
// run is fully described by its Spec — same seed and spec, same faults,
// byte-identical outcomes — which is what makes degradation testable:
// E12 sweeps loss rate against detection rate, and the CI fault matrix
// replays the same failures on every commit.
//
// The injector composes with the soundness ledger (internal/core):
// wiring OnDrop to Monitor.MarkFeedLoss turns every injected drop into
// an unsound-since mark, so the engine's /healthz degrades instead of
// silently reporting verdicts over a gappy feed.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/sim"
)

// Spec describes one reproducible fault scenario. The zero value of the
// numeric fields means "no such fault"; shard indices use -1 for none
// (use DefaultSpec or ParseSpec rather than a struct literal).
type Spec struct {
	// Drop is the per-event probability of losing the event entirely.
	Drop float64
	// Dup is the per-delivered-event probability of delivering it twice.
	Dup float64
	// Reorder is the per-adjacent-pair probability of swapping two
	// consecutive events (offline Apply only).
	Reorder float64
	// Delay jitters each event's timestamp by a uniform draw from
	// [0, Delay) and re-sorts the stream (offline Apply only).
	Delay time.Duration
	// Seed seeds the injector's PRNG.
	Seed int64
	// PanicShard, when >= 0, panics that shard's property step at the
	// shard's PanicAt-th applied event.
	PanicShard int
	PanicAt    uint64
	// StallShard, when >= 0, stalls that shard for Stall (wall-clock) at
	// the shard's StallAt-th applied event — the slow-consumer fault that
	// exercises queue bounds, back-pressure and tenant queue shares.
	StallShard int
	StallAt    uint64
	Stall      time.Duration
}

// defaultStall is how long a stall-shard fault stalls unless stall=
// says otherwise.
const defaultStall = 10 * time.Millisecond

// DefaultSpec returns a no-fault Spec (shard faults disarmed, stall
// length defaultStall).
func DefaultSpec() Spec { return Spec{PanicShard: -1, StallShard: -1, Stall: defaultStall} }

// Zero reports whether the spec injects nothing at all.
func (sp Spec) Zero() bool {
	return sp.Drop == 0 && sp.Dup == 0 && sp.Reorder == 0 && sp.Delay == 0 &&
		sp.PanicShard < 0 && sp.StallShard < 0
}

// NeedsBuffer reports whether the spec requires the offline Apply path
// (reorder and delay need the whole stream; Wrap cannot do them).
func (sp Spec) NeedsBuffer() bool { return sp.Reorder > 0 || sp.Delay > 0 }

// String renders the spec in ParseSpec's grammar.
func (sp Spec) String() string {
	var parts []string
	if sp.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", sp.Drop))
	}
	if sp.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", sp.Dup))
	}
	if sp.Reorder > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%g", sp.Reorder))
	}
	if sp.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%s", sp.Delay))
	}
	if sp.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", sp.Seed))
	}
	if sp.PanicShard >= 0 {
		parts = append(parts, fmt.Sprintf("panic-shard=%d@%d", sp.PanicShard, sp.PanicAt))
	}
	if sp.StallShard >= 0 {
		parts = append(parts, fmt.Sprintf("stall-shard=%d@%d", sp.StallShard, sp.StallAt))
	}
	if sp.Stall != defaultStall {
		parts = append(parts, fmt.Sprintf("stall=%s", sp.Stall))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the comma-separated key=value fault grammar:
//
//	drop=F       probability in [0,1] of dropping each event
//	dup=F        probability in [0,1] of duplicating each delivered event
//	reorder=F    probability in [0,1] of swapping adjacent events
//	delay=DUR    jitter timestamps by uniform [0,DUR) and re-sort
//	seed=N       PRNG seed (default 0)
//	panic-shard=S@N   panic shard S's property step at its Nth event
//	stall-shard=S@N   stall shard S at its Nth event (with two or more
//	             shards the router blocks once S's queue fills, and only a
//	             tenant over its queue share is shed; a one-shard engine
//	             applies on its feeder's goroutine, so the stall stalls
//	             the feeder directly)
//	stall=DUR    how long a stall lasts (default 10ms)
//
// Example: "drop=0.01,dup=0.001,seed=7".
func ParseSpec(s string) (Spec, error) {
	sp := DefaultSpec()
	if strings.TrimSpace(s) == "" || s == "none" {
		return sp, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		if !found {
			return sp, fmt.Errorf("fault: %q is not key=value", part)
		}
		switch key {
		case "drop", "dup", "reorder":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
				return sp, fmt.Errorf("fault: %s wants a probability in [0,1], got %q", key, val)
			}
			switch key {
			case "drop":
				sp.Drop = f
			case "dup":
				sp.Dup = f
			case "reorder":
				sp.Reorder = f
			}
		case "delay", "stall":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return sp, fmt.Errorf("fault: %s wants a non-negative duration, got %q", key, val)
			}
			if key == "delay" {
				sp.Delay = d
			} else {
				sp.Stall = d
			}
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return sp, fmt.Errorf("fault: seed wants an integer, got %q", val)
			}
			sp.Seed = n
		case "panic-shard", "stall-shard":
			shardS, atS, found := strings.Cut(val, "@")
			if !found {
				return sp, fmt.Errorf("fault: %s wants SHARD@EVENT, got %q", key, val)
			}
			shard, err1 := strconv.Atoi(shardS)
			at, err2 := strconv.ParseUint(atS, 10, 64)
			if err1 != nil || err2 != nil || shard < 0 {
				return sp, fmt.Errorf("fault: %s wants SHARD@EVENT with non-negative integers, got %q", key, val)
			}
			if key == "panic-shard" {
				sp.PanicShard, sp.PanicAt = shard, at
			} else {
				sp.StallShard, sp.StallAt = shard, at
			}
		default:
			return sp, fmt.Errorf("fault: unknown key %q (want drop/dup/reorder/delay/seed/panic-shard/stall-shard/stall)", key)
		}
	}
	return sp, nil
}

// InjectStats counts what an Injector actually did.
type InjectStats struct {
	// Events is the number of input events seen.
	Events uint64
	// Dropped, Duplicated, Reordered, Delayed count applied faults;
	// Reordered counts swapped pairs, Delayed counts jittered events.
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	Delayed    uint64
}

// Injector applies a Spec's feed faults to an event stream. All
// randomness comes from one PRNG seeded by Spec.Seed with a fixed draw
// order, so two injectors with equal specs transform equal streams
// identically. Not safe for concurrent use (neither is the router it
// feeds).
type Injector struct {
	spec  Spec
	rng   *rand.Rand
	stats InjectStats
	// OnDrop, when non-nil, observes every dropped event — the hook that
	// feeds Monitor.MarkFeedLoss so injected loss lands in the soundness
	// ledger instead of vanishing silently.
	OnDrop func(core.Event)
}

// NewInjector builds an injector for the spec.
func NewInjector(spec Spec) *Injector {
	return &Injector{spec: spec, rng: sim.NewRand(spec.Seed)}
}

// Stats reports what has been injected so far.
func (in *Injector) Stats() InjectStats { return in.stats }

// Apply transforms a complete event stream offline: per-event drop and
// duplicate draws in stream order, then timestamp jitter (delay) with a
// stable re-sort, then an adjacent-pair reorder pass. Reordered pairs
// swap payloads but keep the original timestamps, modeling two packets
// crossing on a link while the observation point stamps arrival times —
// the stream stays time-monotone, which replay requires. The input
// slice is not modified.
func (in *Injector) Apply(evs []core.Event) []core.Event {
	out := make([]core.Event, 0, len(evs))
	for i := range evs {
		in.stats.Events++
		if sim.Bernoulli(in.rng, in.spec.Drop) {
			in.stats.Dropped++
			if in.OnDrop != nil {
				in.OnDrop(evs[i])
			}
			continue
		}
		out = append(out, evs[i])
		if sim.Bernoulli(in.rng, in.spec.Dup) {
			in.stats.Duplicated++
			out = append(out, evs[i])
		}
	}
	if in.spec.Delay > 0 {
		for i := range out {
			out[i].Time = out[i].Time.Add(time.Duration(in.rng.Int63n(int64(in.spec.Delay))))
			in.stats.Delayed++
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	}
	if in.spec.Reorder > 0 {
		for i := 0; i+1 < len(out); i++ {
			if sim.Bernoulli(in.rng, in.spec.Reorder) {
				out[i].Time, out[i+1].Time = out[i+1].Time, out[i].Time
				out[i], out[i+1] = out[i+1], out[i]
				in.stats.Reordered++
			}
		}
	}
	return out
}

// Wrap lifts the injector into an online event handler: drop and
// duplicate apply per event as it flows through; reorder and delay are
// rejected here because they need the whole stream (check NeedsBuffer
// and use Apply for those).
func (in *Injector) Wrap(h func(core.Event)) func(core.Event) {
	return func(e core.Event) {
		in.stats.Events++
		if sim.Bernoulli(in.rng, in.spec.Drop) {
			in.stats.Dropped++
			if in.OnDrop != nil {
				in.OnDrop(e)
			}
			return
		}
		h(e)
		if sim.Bernoulli(in.rng, in.spec.Dup) {
			in.stats.Duplicated++
			h(e)
		}
	}
}

// ArmShardFaults installs the spec's shard faults (panic, stall) as step
// probes on the sharded monitor. Each fault fires exactly once — a
// panic probe that kept firing at the same event count would cascade
// through every property the supervisor resumes. Must be called before
// the first Submit; a spec with no shard faults is a no-op.
func ArmShardFaults(sm *core.ShardedMonitor, spec Spec) error {
	type armed struct {
		panicAt uint64 // 0 = disarmed (event seqs start at 1)
		stallAt uint64
	}
	byShard := map[int]*armed{}
	if spec.PanicShard >= 0 {
		a := byShard[spec.PanicShard]
		if a == nil {
			a = &armed{}
			byShard[spec.PanicShard] = a
		}
		a.panicAt = spec.PanicAt
		if a.panicAt == 0 {
			a.panicAt = 1
		}
	}
	if spec.StallShard >= 0 {
		a := byShard[spec.StallShard]
		if a == nil {
			a = &armed{}
			byShard[spec.StallShard] = a
		}
		a.stallAt = spec.StallAt
		if a.stallAt == 0 {
			a.stallAt = 1
		}
	}
	stall := spec.Stall
	for shard, a := range byShard {
		a := a
		var panicFired, stallFired bool
		err := sm.SetShardProbe(shard, func(prop int, seq uint64) {
			if a.stallAt > 0 && !stallFired && seq >= a.stallAt {
				stallFired = true
				time.Sleep(stall)
			}
			if a.panicAt > 0 && !panicFired && seq >= a.panicAt {
				panicFired = true
				panic(fmt.Sprintf("fault: injected panic at shard event %d", seq))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
