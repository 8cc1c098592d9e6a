package main

import (
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/property"
)

// options is what one workload run is told.
type options struct {
	seed    int64
	seconds float64
	// smoke shrinks populations and set-up repeats so the whole suite
	// runs in seconds under `go test`.
	smoke bool
	// spans is non-nil in the traced pass only.
	spans *spanRec
	// setupOnce skips the set-up repeats: for the traced pass's helper
	// runs, whose setup_s nobody reads.
	setupOnce bool
	// traceDir is where the traced pass writes trace-<workload>.ndjson.
	traceDir string
}

func (o options) flows() int {
	if o.smoke {
		return 512
	}
	return 8192
}

// window is the length of one measurement window: 1 s, or a quarter of
// a run too short to hold four of those.
func (o options) window() time.Duration {
	if o.seconds < 4 {
		return time.Duration(o.seconds / 4 * float64(time.Second))
	}
	return time.Second
}

func (o options) duration(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// moreSetups says whether to set up once more, given the set-up times
// (s) so far; setup_s is their median. Set-up takes milliseconds on
// most workloads, so a single timing is mostly noise: it is repeated
// until 1.5 s have gone into it, at least 5 and at most 40 times.
func (o options) moreSetups(sofar []float64) bool {
	if o.smoke || o.setupOnce {
		return len(sofar) < 1
	}
	var total float64
	for _, s := range sofar {
		total += s
	}
	return len(sofar) < 5 || (total < 1.5 && len(sofar) < 40)
}

// phase measures the timed closed loop of an in-process workload: window
// rates and CPU, latency windows, the peak of the live-instance gauge,
// heap allocations.
type phase struct {
	m       *meter
	v       *verdicts
	reg     *obs.Registry
	applied func() uint64 // events the engine has applied so far
	liveMax int64
	allocs0 uint64
	// What stop measured.
	rate, cpuNs, gcNs float64
	events, allocs    uint64
}

func newPhase(o options, v *verdicts, reg *obs.Registry, applied func() uint64) *phase {
	return &phase{m: newMeter(o.window(), applied()), v: v, reg: reg, applied: applied,
		liveMax: liveInstances(reg), allocs0: mallocs()}
}

// drive runs batch(0), batch(1), … until dur has passed, closing ph's
// windows on the way; a probe that only wants the loop passes nil.
func drive(dur time.Duration, ph *phase, batch func(batchNo uint32)) {
	deadline := time.Now().Add(dur)
	for batchNo := uint32(0); ; batchNo++ {
		batch(batchNo)
		now := time.Now()
		if ph != nil && ph.m.roll(now, ph.applied) {
			ph.v.rollWindow()
			if n := liveInstances(ph.reg); n > ph.liveMax {
				ph.liveMax = n
			}
		}
		if now.After(deadline) {
			return
		}
	}
}

// stop closes the timed phase and returns the events applied over it.
func (ph *phase) stop() uint64 {
	applied := ph.applied()
	ph.rate, ph.cpuNs, ph.events = ph.m.finish(applied)
	ph.allocs = mallocs() - ph.allocs0
	ph.gcNs = ph.m.gcNs(applied)
	return ph.events
}

// report fills in the end-to-end metrics and the core layer's counters,
// which every in-process workload measures the same way. It reads the
// heap, so the caller first drops what is the harness's and not the
// system's: its generator, with the frame tables and batch buffers.
func (ph *phase) report(out *outcome, st core.Stats, led *core.Ledger, setups []float64) {
	p50, p99, _, _, n := ph.v.detect()
	out.detectSamples = n
	out.e2e["events_per_s"] = ph.rate
	out.e2e["cpu_ns_per_event"] = ph.cpuNs
	out.e2e["detect_p50_us"] = p50
	out.e2e["heap_mb"] = heapMiB()
	out.e2e["setup_s"] = median(setups)
	out.layer["harness.detect_p99_us"] = p99
	out.layer["runtime.gc_ns_per_event"] = ph.gcNs
	coreLayer(out, st, ph.reg, led, ph.liveMax, ph.events, ph.allocs)
}

// outcome is what one workload run reports.
type outcome struct {
	e2e   map[string]float64
	layer map[string]float64
	// attempted and failed count events: failed are those shed, declared
	// lost by a sequence gap, or not applied when the drain deadline
	// passed.
	attempted, failed uint64
	verdictErrors     uint64
	detectSamples     int
	// engineNsPerEvent is the engine's own apply-latency telemetry
	// averaged over the events handed in: the part of a sharded engine's
	// work that happens on its worker goroutines, where no span of the
	// benchmark's can bracket it.
	engineNsPerEvent float64
}

func newOutcome() outcome {
	return outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// engineConfig is the engine shape the daemons run in production
// (cmd/switchmon, cmd/collector with -metrics-addr): telemetry registry
// and violation ring attached, limited provenance, state accounting on
// with the default heavy-hitter sketch.
func engineConfig(v *verdicts, reg *obs.Registry, tr *tracer.Tracer) core.Config {
	return core.Config{
		Provenance:  core.ProvLimited,
		OnViolation: v.observe,
		Metrics:     reg,
		Violations:  obs.NewRing(256),
		StateTopK:   32,
		StateSample: 8,
		Tracer:      tr,
	}
}

func catalogProp(pm property.Params, name string) *property.Property {
	p := property.CatalogByName(pm, name)
	if p == nil {
		panic("bench: no catalogue property " + name)
	}
	return p
}

// sumSeries adds up every series of one family in a registry snapshot:
// counter/gauge values, or histogram sums when hist is set. The sharded
// engine registers one series per shard; the sum is the engine total.
func sumSeries(snap obs.Snapshot, family string, hist bool) (total, count uint64) {
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if hist {
				total += s.Sum
				count += s.Count
			} else {
				total += uint64(s.Value)
			}
		}
	}
	return total, count
}

// coreLayer reports the core layer's counters for one run from the
// engine's own statistics and telemetry registry.
func coreLayer(out *outcome, st core.Stats, reg *obs.Registry, led *core.Ledger, liveMax int64, events, allocs uint64) {
	snap := reg.Snapshot()
	fires, _ := sumSeries(snap, "switchmon_property_timeouts_total", false)
	out.layer["core.instances_live_max"] = float64(liveMax)
	out.layer["core.created"] = float64(st.Created)
	out.layer["core.discharged"] = float64(st.Discharged)
	out.layer["core.expired"] = float64(st.Expired)
	out.layer["core.timer_fires"] = float64(fires)
	out.layer["core.violations"] = float64(st.Violations)
	out.layer["core.shed_events"] = float64(st.ShedEvents)
	out.layer["core.unsound_marks"] = float64(len(led.Snapshot()))
	if events > 0 {
		out.layer["core.allocs_per_event"] = float64(allocs) / float64(events)
	}
}

// liveInstances reads the engine's live-instance gauge (all shards).
func liveInstances(reg *obs.Registry) int64 {
	n, _ := sumSeries(reg.Snapshot(), "switchmon_monitor_instances", false)
	return int64(n)
}

// applyNs reads the engine's own per-event apply-latency histogram:
// total ns and event count. It is the one place the budget uses a
// number the program measured about itself — a shard worker's time
// cannot be bracketed from outside the engine.
func applyNs(reg *obs.Registry) (ns, events uint64) {
	return sumSeries(reg.Snapshot(), "switchmon_monitor_event_ns", true)
}
