package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"switchmon/internal/obs"
)

// Apply latency is a weighted sample: the engine reads the wall clock for
// the event that closes a pseudo-random gap (mean timeGapMean) and records
// it with the gap as its weight. These cases run over the engine table,
// because every engine reaches the clock through Monitor.apply.

// applyTiming is one monitor's switchmon_monitor_event_ns histogram next
// to its switchmon_monitor_events_total counter, keyed by the monitor's
// labels ("" inline, "shard=N" under a ShardedMonitor).
type applyTiming struct {
	count, sum, events uint64
	buckets            []uint64
}

func applyTimings(reg *obs.Registry) map[string]applyTiming {
	out := map[string]applyTiming{}
	for _, f := range reg.Snapshot().Families {
		for _, s := range f.Series {
			key := fmt.Sprint(s.Labels)
			at := out[key]
			switch f.Name {
			case "switchmon_monitor_event_ns":
				at.count, at.sum, at.buckets = s.Count, s.Sum, s.Buckets
			case "switchmon_monitor_events_total":
				at.events = uint64(s.Value)
			default:
				continue
			}
			out[key] = at
		}
	}
	return out
}

// monitorsOf lists the Monitors behind an engine of the table.
func monitorsOf(eng contractEngine) []*Monitor {
	if m, ok := eng.(*Monitor); ok {
		return []*Monitor{m}
	}
	var mons []*Monitor
	for _, sh := range eng.(*ShardedMonitor).shards {
		mons = append(mons, sh.mon)
	}
	return mons
}

// timedEvents feeds evs one at a time, settling after each, and returns
// which stream positions were timed and with what weight. At every one of
// those quiescent points each monitor's histogram count is at most its
// event counter and less than one gap behind it.
func timedEvents(t *testing.T, row engineRow, evs []Event) (timed []int, weights []uint64) {
	reg := obs.NewRegistry()
	r := newRig(t, row, Config{Metrics: reg}, catalogProp(t, "firewall-basic"))
	var counted uint64
	for i := range evs {
		r.feed(evs[i])
		r.advance(0)
		var count uint64
		for key, at := range applyTimings(reg) {
			if at.count > at.events || at.events >= at.count+2*timeGapMean {
				t.Fatalf("after event %d, monitor {%s}: _count %d, events_total %d; want _count <= events_total < _count+%d",
					i, key, at.count, at.events, 2*timeGapMean)
			}
			count += at.count
		}
		if count != counted {
			timed, weights = append(timed, i), append(weights, count-counted)
			counted = count
		}
	}
	return timed, weights
}

func TestApplyTimingIsADeterministicWeightedSample(t *testing.T) {
	evs := superviseStream(64, 15)
	forEachEngine(t, func(t *testing.T, row engineRow) {
		timed, weights := timedEvents(t, row, evs)
		if len(timed) == 0 || timed[0] != 0 || weights[0] != 1 {
			t.Fatalf("first applied event: timed positions %v, weights %v; want position 0 timed with weight 1", timed, weights)
		}
		distinct := map[uint64]bool{}
		for _, w := range weights {
			if w < 1 || w > 2*timeGapMean-1 {
				t.Fatalf("weight %d outside 1..%d", w, 2*timeGapMean-1)
			}
			distinct[w] = true
		}
		if len(distinct) < len(weights)/2 {
			t.Fatalf("gaps %v: %d distinct values in %d, a stride rather than a draw", weights, len(distinct), len(weights))
		}
		again, againWeights := timedEvents(t, row, evs)
		if !reflect.DeepEqual(timed, again) || !reflect.DeepEqual(weights, againWeights) {
			t.Fatalf("two runs timed different events:\n %v\n %v", timed, again)
		}
	})
}

// The sample must price the stream, not one phase of it. A step probe burns
// a time that depends on the event's sequence number — every second event
// dear (an arrival/egress alternation), or one slot in six (a churn round)
// — and the histogram's mean must land within 15 % of the mean the probe
// counted directly. A fixed stride of 64 would time only one phase of the
// alternation, or slots 1, 3 and 5 of the round, and miss by 25-55 %.
//
// The means are taken at the burns' nominal cost, the histogram's from its
// bucket weights (cheap and dear events land either side of the 16384 ns
// bucket bound): a timed event the OS preempts puts a whole gap's worth of
// the stall into _sum, so on a shared box _sum/_count is an unbiased but
// noisy figure that only a lower bound is asked of here — enough to catch a
// sum recorded without its weight.
func TestApplyTimingPricesPeriodicStreams(t *testing.T) {
	const cheap, dear, dearBucket = 4 * time.Microsecond, 20 * time.Microsecond, 15
	evs := superviseStream(64, 240)
	for _, period := range []uint64{2, 6} {
		t.Run(fmt.Sprintf("period=%d", period), func(t *testing.T) {
			forEachEngine(t, func(t *testing.T, row engineRow) {
				reg := obs.NewRegistry()
				r := newRig(t, row, Config{Metrics: reg}, catalogProp(t, "firewall-basic"))
				var steps, dearSteps atomic.Uint64
				for s := 0; s == 0 || s < row.shards; s++ {
					r.probe(s, func(_ int, seq uint64) {
						d := cheap
						steps.Add(1)
						if seq%period == 0 {
							d = dear
							dearSteps.Add(1)
						}
						for start := time.Now(); time.Since(start) < d; {
						}
					})
				}
				for i := range evs {
					r.feed(evs[i])
				}
				r.advance(0)
				var count, sum, dearCount uint64
				for _, at := range applyTimings(reg) {
					count, sum = count+at.count, sum+at.sum
					for b := dearBucket; b < len(at.buckets); b++ {
						dearCount += at.buckets[b]
					}
				}
				if steps.Load() < uint64(len(evs))/2 || count == 0 {
					t.Fatalf("%d of %d events applied, %d weighted observations", steps.Load(), len(evs), count)
				}
				mean := func(dearN, n uint64) float64 {
					return (float64(dearN)*float64(dear) + float64(n-dearN)*float64(cheap)) / float64(n)
				}
				direct, sampled := mean(dearSteps.Load(), steps.Load()), mean(dearCount, count)
				if sampled < 0.85*direct || sampled > 1.15*direct {
					t.Fatalf("histogram: %d of %d weighted observations dear, mean %.0f ns; probe: %d of %d events dear, mean %.0f ns: off by %+.1f %%",
						dearCount, count, sampled, dearSteps.Load(), steps.Load(), direct, 100*(sampled/direct-1))
				}
				got := float64(sum) / float64(count)
				if got < 0.85*direct {
					t.Fatalf("_sum/_count = %.0f ns, below the %.0f ns the probe alone burns", got, direct)
				}
				t.Logf("probe mean %.0f ns; histogram %.0f ns by bucket weight (%+.1f %%), _sum/_count %.0f ns", direct, sampled, 100*(sampled/direct-1), got)
			})
		})
	}
}

// Without a registry the engine reads no clock: the gap countdown, the only
// way to applyTimed, never moves.
func TestNoMetricsNoClock(t *testing.T) {
	evs := superviseStream(64, 4)
	forEachEngine(t, func(t *testing.T, row engineRow) {
		r := newRig(t, row, Config{}, catalogProp(t, "firewall-basic"))
		for i := range evs {
			r.feed(evs[i])
		}
		r.advance(0)
		for i, m := range monitorsOf(r.eng) {
			if m.timeIn != 1 || m.timeGap != 1 || m.timeRng != timeSeed+uint64(i) {
				t.Fatalf("monitor %d without Metrics moved its timing state: in=%d gap=%d rng=%#x", i, m.timeIn, m.timeGap, m.timeRng)
			}
		}
		if st := r.eng.Stats(); st.Events == 0 {
			t.Fatal("no events applied")
		}
	})
}
