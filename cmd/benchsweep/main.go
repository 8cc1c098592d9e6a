// Command benchsweep runs the repository's parameter sweeps over the
// distributed fabric, the fault injector, the property lifecycle and the
// self-monitoring tier, and prints one table per experiment (DESIGN.md's
// E-index):
//
//	e12 detection rate vs injected feed loss: how many ground-truth
//	    violations survive each drop rate, next to what the soundness
//	    ledger admits was lost
//	e13 distributed-fabric throughput vs the wire batch cap (exporter ->
//	    TCP -> collector), per-event framing as the degenerate case
//	e14 detection latency vs the wire batch cap: per-stage and
//	    end-to-end p50/p99 from traced spans crossing the same fabric
//	e15 the plain cap vs the cap under the EWMA seal controller:
//	    sustained throughput and detection latency per config — does
//	    one config reach e13's throughput at e14's best-case latency?
//	e17 lifecycle churn soak: repeated live remove/reinstall of one
//	    property while the sharded engine runs the high-flow steady
//	    state at full load — per-op fence latency (install and remove
//	    p50/p99) and the throughput dip vs an identical churn-free run
//	e18 federated fan-out scaling: switch streams consistent-hashed
//	    across 1/2/4 collectors through the federation router — fleet
//	    aggregate ingest capacity vs collector count at equal
//	    per-event cost (per-member saturation measured sequentially,
//	    so one benchmark core stands in for N collector machines)
//	e19 self-monitoring: the metrics-history sampler's hot-path
//	    overhead at its default 1s cadence (gate: <= 1%), and the SLO
//	    engine's detection time for an induced shard-stall shed burst
//	    (gate: critical within 2 fast burn windows)
//
// The in-process experiments (E3–E8, E11, E16, and E14's trace
// overhead) are `go test -bench` benchmarks in the repository root's
// bench_test.go, not sweeps here.
//
// Usage: benchsweep [-exp all|e12|e13|e14|e15|e17|e18|e19] [-smoke] [-json dir] [-cpuprofile f] [-memprofile f]
//
// -smoke shrinks the workloads of e15, e17, e18 and e19 so they finish
// in seconds; CI runs each of them that way as a liveness gate.
// Committed BENCH_*.json artifacts always come from full runs.
//
// With -json, each experiment additionally writes BENCH_<exp>.json (one
// JSON array of rows) into the given directory. Sweeps that drive the
// core monitor with a telemetry registry attached (e12, e19's overhead
// half) record the before/after counter deltas next to ns/op, so a
// regression in a ratio is visible in the same artifact as the timing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/fault"
	"switchmon/internal/federation"
	"switchmon/internal/obs"
	"switchmon/internal/obs/histdb"
	"switchmon/internal/obs/slo"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/trace"
)

// benchRow is one BENCH_<exp>.json entry: the experiment coordinates,
// the headline timing, any sweep-specific extras, and — when the sweep
// ran with telemetry — the counter deltas over the timed section.
type benchRow struct {
	Exp           string            `json:"exp"`
	Params        map[string]any    `json:"params"`
	NsPerEvent    float64           `json:"ns_per_event,omitempty"`
	Extra         map[string]any    `json:"extra,omitempty"`
	CounterDeltas map[string]uint64 `json:"counter_deltas,omitempty"`
	Machine       string            `json:"machine,omitempty"`
}

// writeRows writes one experiment's rows to dir/BENCH_<exp>.json, each
// stamped with the machine that measured it.
func writeRows(dir, exp string, rows []benchRow) error {
	machine := fmt.Sprintf("%s/%s, %d CPU, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	for i := range rows {
		rows[i].Machine = machine
	}
	f, err := os.Create(filepath.Join(dir, "BENCH_"+exp+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// smoke shrinks every sweep's workload to a fast liveness check; set
// by the -smoke flag, read by the sweeps that honor it.
var smoke bool

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, e12, e13, e14, e15, e17, e18, e19")
	flag.BoolVar(&smoke, "smoke", false, "shrink workloads to a seconds-long smoke run (CI liveness, not a benchmark)")
	jsonDir := flag.String("json", "", "also write BENCH_<exp>.json rows into this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsweep: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchsweep: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsweep: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // report live objects, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchsweep: %v\n", err)
			os.Exit(1)
		}
	}()
	run := map[string]func() []benchRow{
		"e12": sweepE12, "e13": sweepE13, "e14": sweepE14, "e15": sweepE15,
		"e17": sweepE17, "e18": sweepE18, "e19": sweepE19,
	}
	names := []string{*exp}
	if *exp == "all" {
		names = []string{"e12", "e13", "e14", "e15", "e17", "e18", "e19"}
	}
	for i, name := range names {
		fn, ok := run[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchsweep: unknown experiment %q\n", name)
			os.Exit(2)
		}
		rows := fn()
		if *jsonDir != "" {
			if err := writeRows(*jsonDir, name, rows); err != nil {
				fmt.Fprintf(os.Stderr, "benchsweep: %v\n", err)
				os.Exit(1)
			}
		}
		if i < len(names)-1 {
			fmt.Println()
		}
	}
}

func fwProp() *property.Property {
	return property.CatalogByName(property.DefaultParams(), "firewall-basic")
}

// countingSink is a collector.Sink that only counts, so the e13 sweep
// can measure the wire fabric (framing, syscalls, ack flow) in
// isolation from property-evaluation cost.
type countingSink struct {
	events atomic.Uint64
	lost   atomic.Uint64
}

func (s *countingSink) SubmitBatch(evs []core.Event, release func()) error {
	s.events.Add(uint64(len(evs)))
	if release != nil {
		release()
	}
	return nil
}
func (s *countingSink) Tick(time.Time) {}
func (s *countingSink) MarkLoss(_ core.UnsoundReason, _ time.Time, n uint64, _ string) {
	s.lost.Add(n)
}

// pctNs picks the p-th percentile (0..1) out of ns samples, sorting a
// copy so callers can keep accumulating.
func pctNs(vals []int64, p float64) int64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(float64(len(s)-1)*p)]
}

// fabricRun is one pass of a return stream through the fabric rig.
type fabricRun struct {
	events  int                 // return events published
	publish time.Duration       // the publishing loop alone, pacing included
	elapsed time.Duration       // first publish to last event applied
	stats   collector.Stats     // the collector's counters after Close
	spans   []tracer.SpanRecord // the collector's finished spans, traced runs only
}

// runFabric sends the return traffic of w through an exporter built from
// xcfg, loopback TCP and a collector into a sink: a counting sink when
// count is set, which isolates the wire, otherwise a four-shard engine
// that already holds w's flows and evaluates the firewall property. A
// traced run gives every event a span (SampleN=1) stamped at ingress
// just before it is published; pace, when non-nil, runs before each
// event's stamp. The run waits up to 30s for the collector to apply
// every event and panics if it does not, or if the exporter abandons
// any on Close.
func runFabric(exp string, w trace.HighFlowWorkload, count, traced bool, xcfg exporter.Config, pace func(i int)) fabricRun {
	returns := w.Events(sim.Epoch)[2*w.Flows:]
	var swTr, colTr *tracer.Tracer
	if traced {
		swTr = tracer.New(tracer.Config{SampleN: 1})
		colTr = tracer.New(tracer.Config{SampleN: 1, Ring: 2 * len(returns)})
	}
	var (
		sink collector.Sink = &countingSink{}
		sm   *core.ShardedMonitor
	)
	if !count {
		sm = core.NewShardedMonitor(4, core.Config{OnViolation: func(*core.Violation) {}, Tracer: colTr})
		if err := sm.AddProperty(fwProp()); err != nil {
			panic(err)
		}
		sm.SubmitBatch(trace.HighFlowWorkload{Flows: w.Flows, Gap: w.Gap}.Events(sim.Epoch), nil)
		sm.Drain()
		sink = sm
	}
	col, err := collector.New(collector.Config{Addr: "127.0.0.1:0", Tracer: colTr}, sink)
	if err != nil {
		panic(err)
	}
	col.Serve()
	xcfg.Addr, xcfg.DPID, xcfg.Tracer = col.Addr().String(), 1, swTr
	x, err := exporter.New(xcfg)
	if err != nil {
		panic(err)
	}
	x.Start()
	start := time.Now()
	for i := range returns {
		if pace != nil {
			pace(i)
		}
		e := returns[i]
		if traced {
			e.PacketID = core.PacketID(i + 1)
			if sp := swTr.Sample(1, uint64(e.PacketID), uint8(e.Kind)); sp != nil {
				sp.Stamp(tracer.StageIngress)
				e.Trace = sp
			}
		}
		x.Publish(e)
	}
	run := fabricRun{events: len(returns), publish: time.Since(start)}
	x.Flush()
	deadline := time.Now().Add(30 * time.Second)
	for col.Stats().Events < uint64(len(returns)) {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("%s: collector applied %d of %d events", exp, col.Stats().Events, len(returns)))
		}
		time.Sleep(time.Millisecond)
	}
	run.elapsed = time.Since(start)
	if abandoned := x.Close(5 * time.Second); abandoned != 0 {
		panic(fmt.Sprintf("%s: exporter abandoned %d events", exp, abandoned))
	}
	col.Close()
	if sm != nil {
		sm.Close()
	}
	run.stats = col.Stats()
	run.spans = colTr.Snapshot()
	return run
}

// spanLatencies splits a traced run's spans into end-to-end detection
// latencies and per-stage durations, all in ns.
func spanLatencies(spans []tracer.SpanRecord) (e2e []int64, stages map[string][]int64) {
	stages = map[string][]int64{}
	for _, r := range spans {
		for st, d := range r.StageNs {
			stages[st] = append(stages[st], d)
		}
		if r.E2ENs > 0 {
			e2e = append(e2e, r.E2ENs)
		}
	}
	return e2e, stages
}

// sweepE13: distributed-fabric throughput vs. the wire batch cap. The
// same event stream goes exporter -> real TCP -> collector at each
// BatchSizeMax; a batch seals when it reaches the cap or the sender is
// free, so the cap is the most a backed-up sender can coalesce. max=1 is
// per-event framing (one frame, one length prefix, one write per event —
// what a naive exporter would do) and is the baseline the batched rows
// are compared against. The "count" sink isolates the wire;
// the "engine" sink is deployment context, the central sharded monitor
// evaluating the firewall property on the same stream.
func sweepE13() []benchRow {
	var rows []benchRow
	fmt.Println("E13: fabric throughput vs the wire batch cap (exporter -> TCP -> collector)")
	fmt.Printf("%-8s %-8s %12s %14s %10s %12s %10s\n",
		"sink", "max", "ns/event", "events/sec", "batches", "bytes/event", "speedup")
	w := trace.HighFlowWorkload{Flows: 4096, Rounds: 8, ViolationEvery: 1000, Gap: time.Microsecond}
	for _, sinkKind := range []string{"count", "engine"} {
		var perEventBaseline float64 // events/sec at batch=1
		for _, batch := range []int{1, 8, 64, 256, 1024} {
			r := runFabric("e13", w, sinkKind == "count", false, exporter.Config{BatchSizeMax: batch}, nil)
			ns := float64(r.elapsed.Nanoseconds()) / float64(r.events)
			evps := float64(r.events) / r.elapsed.Seconds()
			if batch == 1 {
				perEventBaseline = evps
			}
			speedup := evps / perEventBaseline
			bytesPerEvent := float64(r.stats.Bytes) / float64(r.events)
			fmt.Printf("%-8s %-8d %12.0f %14.0f %10d %12.1f %9.1fx\n",
				sinkKind, batch, ns, evps, r.stats.Batches, bytesPerEvent, speedup)
			rows = append(rows, benchRow{
				Exp:        "e13",
				Params:     map[string]any{"sink": sinkKind, "batch_max": batch},
				NsPerEvent: ns,
				Extra: map[string]any{
					"events":               r.events,
					"events_per_sec":       evps,
					"batches":              r.stats.Batches,
					"wire_bytes":           r.stats.Bytes,
					"bytes_per_event":      bytesPerEvent,
					"speedup_vs_per_event": speedup,
				},
			})
		}
	}
	return rows
}

// sweepE14: detection latency vs. the wire batch cap. Every event
// carries a span through the same exporter -> TCP -> collector ->
// sharded-engine fabric as e13, but the publisher is paced well below
// the fabric's capacity (e13 measured ~87k events/s at max=1) so the
// percentiles measure the pipeline — batch fill wait, wire flight, shard
// dispatch, verdict — rather than queue saturation. The claim under
// test: because a free sender seals the open batch itself, a larger cap
// costs no detection latency — the seal wait is bounded by the sender's
// own send, not by the cap, so latency stays flat from the smallest cap
// to the largest.
func sweepE14() []benchRow {
	var rows []benchRow
	fmt.Println("E14: detection latency vs the wire batch cap (traced spans, exporter -> TCP -> collector)")
	fmt.Printf("%-8s %-8s %12s %12s %12s %12s %12s\n",
		"max", "spans", "e2e_p50", "e2e_p99", "seal_p50", "recv_p50", "verdict_p50")
	const (
		pace = 32               // events per paced burst
		gap  = time.Millisecond // sleep between bursts: ~32k events/s
	)
	w := trace.HighFlowWorkload{Flows: 2048, Rounds: 2, Gap: time.Microsecond}
	for _, batch := range []int{1, 8, 64, 256} {
		r := runFabric("e14", w, false, true, exporter.Config{BatchSizeMax: batch}, func(i int) {
			if i > 0 && i%pace == 0 {
				time.Sleep(gap)
			}
		})
		e2e, stageVals := spanLatencies(r.spans)
		stageP50 := map[string]any{}
		stageP99 := map[string]any{}
		for st, vals := range stageVals {
			stageP50[st] = pctNs(vals, 0.50)
			stageP99[st] = pctNs(vals, 0.99)
		}
		e2eP50, e2eP99 := pctNs(e2e, 0.50), pctNs(e2e, 0.99)
		fmt.Printf("%-8d %-8d %12d %12d %12d %12d %12d\n",
			batch, len(r.spans), e2eP50, e2eP99,
			pctNs(stageVals["batch_seal"], 0.50),
			pctNs(stageVals["collector_recv"], 0.50),
			pctNs(stageVals["verdict"], 0.50))
		rows = append(rows, benchRow{
			Exp:        "e14",
			Params:     map[string]any{"batch_max": batch, "sample_n": 1},
			NsPerEvent: float64(e2eP50),
			Extra: map[string]any{
				"spans":        len(r.spans),
				"events":       r.events,
				"e2e_p50_ns":   e2eP50,
				"e2e_p99_ns":   e2eP99,
				"stage_p50_ns": stageP50,
				"stage_p99_ns": stageP99,
			},
		})
	}
	return rows
}

// sweepE15: the latency/throughput frontier with one config. e13 shows
// sustained fabric throughput needs big batches; e14 asks whether
// detection latency still needs small ones. Each config here is measured
// both ways — an unpaced blast for throughput, then a steadily paced
// fully-traced stream for latency percentiles — with the same config in
// both phases. The rows compare the plain cap (cap/N: BatchSizeMax N, no
// seal controller) with the cap under the EWMA controller (ewma:
// switchmon -export's defaults, -batch-slo 250µs and -batch-max 256):
// the controller is worth keeping only if some row shows it buying what
// a plain cap does not.
//
// The latency phase paces the publisher to a steady per-event gap with
// time.Sleep — sleeping, not spinning, so on small machines (CI runs
// this with one CPU) the pauses are exactly when the collector and
// shards get the processor, as they would with a real network between
// the hosts. The OS rounds short sleeps up, so the realized gap
// (reported in the row) is the measurement's rate, not the nominal one.
func sweepE15() []benchRow {
	var rows []benchRow
	fmt.Println("E15: the plain batch cap vs the cap under the EWMA seal controller: throughput and detection latency, one config")
	fmt.Printf("%-12s %14s %12s %12s %12s %12s %12s\n",
		"config", "events/sec", "ns/event", "e2e_p50", "e2e_p99", "seal_p50", "pace_gap")

	const paceGap = 25 * time.Microsecond // steady ~40k events/s for the latency phase
	tw := trace.HighFlowWorkload{Flows: 4096, Rounds: 8, ViolationEvery: 1000, Gap: time.Microsecond}
	lw := trace.HighFlowWorkload{Flows: 2048, Rounds: 2, Gap: time.Microsecond}
	if smoke {
		tw.Flows, tw.Rounds = 512, 2
		lw.Flows = 256
	}

	configs := []struct {
		label string
		xc    exporter.Config
	}{
		{"cap/8", exporter.Config{BatchSizeMax: 8}},
		{"cap/64", exporter.Config{BatchSizeMax: 64}},
		{"cap/256", exporter.Config{BatchSizeMax: 256}},
		{"ewma", exporter.Config{TargetSealLatency: 250 * time.Microsecond, BatchSizeMax: 256}},
	}
	for _, c := range configs {
		t := runFabric("e15", tw, false, false, c.xc, nil)
		l := runFabric("e15", lw, false, true, c.xc, func(int) { time.Sleep(paceGap) })
		evps := float64(t.events) / t.elapsed.Seconds()
		ns := float64(t.elapsed.Nanoseconds()) / float64(t.events)
		e2e, stages := spanLatencies(l.spans)
		p50, p99, sealP50 := pctNs(e2e, 0.50), pctNs(e2e, 0.99), pctNs(stages["batch_seal"], 0.50)
		realized := l.publish / time.Duration(l.events)
		fmt.Printf("%-12s %14.0f %12.0f %12d %12d %12d %12s\n", c.label, evps, ns, p50, p99, sealP50, realized)
		rows = append(rows, benchRow{
			Exp: "e15",
			Params: map[string]any{
				"config": c.label, "batch_max": c.xc.BatchSizeMax,
				"slo_us": c.xc.TargetSealLatency.Microseconds(),
			},
			NsPerEvent: ns,
			Extra: map[string]any{
				"events_per_sec":  evps,
				"batches":         t.stats.Batches,
				"wire_bytes":      t.stats.Bytes,
				"e2e_p50_ns":      p50,
				"e2e_p99_ns":      p99,
				"seal_p50_ns":     sealP50,
				"spans":           len(l.spans),
				"pace_gap_ns":     paceGap.Nanoseconds(),
				"realized_gap_ns": realized.Nanoseconds(),
				"smoke":           smoke,
				"events_tput":     t.events,
				"events_latency":  l.events,
			},
		})
	}
	return rows
}

// sweepE12: detection rate vs injected event loss. For each workload the
// zero-loss run establishes ground truth; then the same stream goes
// through a deterministic fault injector at increasing drop rates, and
// the row records how many of the ground-truth violations the monitor
// still detects alongside what the soundness ledger admits was lost.
// The point of the experiment is the pairing: detection degrades, and
// the engine says so.
func sweepE12() []benchRow {
	var rows []benchRow
	fmt.Println("E12: detection rate vs injected feed loss (seed=12)")
	fmt.Printf("%-16s %-8s %10s %10s %10s %10s %10s\n",
		"workload", "drop", "events", "dropped", "expected", "detected", "det_rate")

	type workload struct {
		name   string
		prop   string
		events []core.Event
	}
	workloads := []workload{
		{
			name: "firewall", prop: "firewall-basic",
			events: trace.FirewallWorkload{
				Flows: 2000, ReturnsPerFlow: 3, ViolationEvery: 10, Gap: time.Millisecond,
			}.Events(sim.Epoch),
		},
		{
			name: "nat", prop: "nat-reverse",
			events: trace.NATWorkload{
				Flows: 4000, MistranslateEvery: 10, Gap: time.Millisecond,
			}.Events(sim.Epoch),
		},
	}
	rates := []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2}

	for _, wl := range workloads {
		expected := uint64(0)
		for _, rate := range rates {
			spec := fault.DefaultSpec()
			spec.Drop = rate
			spec.Seed = 12

			sched := sim.NewScheduler()
			reg := obs.NewRegistry()
			mon := core.NewMonitor(sched, core.Config{Metrics: reg})
			if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), wl.prop)); err != nil {
				panic(err)
			}
			inj := fault.NewInjector(spec)
			inj.OnDrop = func(e core.Event) { mon.MarkFeedLoss(e.Time, 1, "e12 injected drop") }
			evs := inj.Apply(wl.events)
			before := reg.Snapshot()
			start := time.Now()
			trace.Replay(sched, evs, mon.HandleEvent)
			sched.RunFor(time.Hour)
			elapsed := time.Since(start)

			st := mon.Stats()
			if rate == 0 {
				expected = st.Violations // ground truth: the fault-free run
			}
			detRate := 0.0
			if expected > 0 {
				detRate = float64(st.Violations) / float64(expected)
			}
			is := inj.Stats()
			marks := mon.Ledger().Snapshot()
			fmt.Printf("%-16s %-8.2f %10d %10d %10d %10d %10.3f\n",
				wl.name, rate, len(wl.events), is.Dropped, expected, st.Violations, detRate)
			rows = append(rows, benchRow{
				Exp: "e12",
				Params: map[string]any{
					"workload": wl.name, "property": wl.prop, "drop_rate": rate, "seed": spec.Seed,
				},
				NsPerEvent: float64(elapsed.Nanoseconds()) / float64(len(evs)),
				Extra: map[string]any{
					"events":              len(wl.events),
					"dropped_events":      is.Dropped,
					"expected_violations": expected,
					"detected_violations": st.Violations,
					"detection_rate":      detRate,
					"unsound_properties":  len(marks),
				},
				CounterDeltas: obs.DiffCounters(before, reg.Snapshot()),
			})
		}
	}
	return rows
}

// e17Run drives the high-flow return stream through the sharded engine
// in fixed-size chunks, performing `cycles` remove+reinstall pairs of
// the named rider property, each an Apply of the whole set at the next
// epoch, at evenly spaced stream positions (cycles=0
// is the churn-free baseline). The pair is back-to-back so the rider
// is installed for virtually the whole stream — a lone remove would
// shed its evaluation work and make the churn run *faster*, hiding the
// cost under test. Each operation is a full fenced round trip —
// tombstone/validate on the router, barrier across every shard, ledger
// record — timed from the caller's seat.
func e17Run(flows, rounds, cycles, chunk int, riderName string) (evps, ns float64, installNs, removeNs []int64, epoch uint64) {
	open := trace.HighFlowWorkload{Flows: flows, Gap: time.Microsecond}.Events(sim.Epoch)
	work := trace.HighFlowWorkload{Flows: flows, Rounds: rounds, ViolationEvery: 1000, Gap: time.Microsecond}.Events(sim.Epoch)
	returns := work[2*flows:]

	sm := core.NewShardedMonitor(4, core.Config{OnViolation: func(*core.Violation) {}})
	defer sm.Close()
	fw := fwProp()
	if err := sm.Apply(0, []*property.Property{fw, property.CatalogByName(property.DefaultParams(), riderName)}); err != nil {
		panic(err)
	}
	sm.SubmitBatch(open, nil)
	sm.Drain()

	chunks := (len(returns) + chunk - 1) / chunk
	interval := 0
	if cycles > 0 {
		interval = chunks / (cycles + 1)
		if interval == 0 {
			interval = 1
		}
	}
	done := 0
	start := time.Now()
	for c := 0; c < chunks; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > len(returns) {
			hi = len(returns)
		}
		sm.SubmitBatch(returns[lo:hi], nil)
		if cycles > 0 && done < cycles && (c+1)%interval == 0 {
			opStart := time.Now()
			if err := sm.Apply(uint64(2*done+1), []*property.Property{fw}); err != nil {
				panic(err)
			}
			removed := time.Now()
			removeNs = append(removeNs, removed.Sub(opStart).Nanoseconds())
			rider := property.CatalogByName(property.DefaultParams(), riderName)
			if err := sm.Apply(uint64(2*done+2), []*property.Property{fw, rider}); err != nil {
				panic(err)
			}
			installNs = append(installNs, time.Since(removed).Nanoseconds())
			done++
		}
	}
	sm.Barrier()
	elapsed := time.Since(start)
	return float64(len(returns)) / elapsed.Seconds(),
		float64(elapsed.Nanoseconds()) / float64(len(returns)),
		installNs, removeNs, sm.Epoch()
}

// sweepE17: lifecycle churn soak. The question a live fabric asks of
// hot install/remove: what does one fenced operation cost while the
// engine is saturated, and what does sustained churn do to throughput?
// Two rider choices separate the two costs. The churn rows cycle an
// inert rider (nat-reverse never matches firewall traffic, so it holds
// no instances): removal sheds no evaluation work, and the throughput
// dip vs the churn-free baseline isolates the fencing itself — every
// operation barriers all four shards, so its latency is the
// install-point fence the soundness ledger depends on, the number that
// bounds how stale a /properties POST can be. The purge row removes
// the armed rider (firewall-until-close holding `flows` live
// instances) exactly once mid-stream: its remove latency is fence plus
// instance purge, the worst case a live remove pays.
func sweepE17() []benchRow {
	var rows []benchRow
	fmt.Println("E17: lifecycle churn soak: fenced install/remove latency and throughput dip under full load")
	fmt.Printf("%-14s %14s %12s %12s %12s %12s %12s %8s\n",
		"config", "events/sec", "ns/event", "inst_p50", "inst_p99", "rm_p50", "rm_p99", "dip")
	// chunk is sized so the densest churn config still has more chunks
	// than operations; baseline and churn runs share it for a fair
	// throughput comparison.
	flows, rounds, chunk := 8192, 8, 256
	cycleCounts := []int{8, 32, 128}
	if smoke {
		flows, rounds, chunk = 512, 2, 64
		cycleCounts = []int{4}
	}
	const inertRider = "nat-reverse"

	emit := func(label, rider string, cycles int, evps, ns float64, installNs, removeNs []int64, epoch uint64, dip any) {
		row := benchRow{
			Exp:        "e17",
			Params:     map[string]any{"config": label, "rider": rider, "flows": flows, "ops": 2 * cycles},
			NsPerEvent: ns,
			Extra: map[string]any{
				"events_per_sec":  evps,
				"events":          flows * rounds,
				"lifecycle_epoch": epoch,
				"smoke":           smoke,
			},
		}
		if cycles > 0 {
			row.Extra["install_p50_ns"] = pctNs(installNs, 0.50)
			row.Extra["install_p99_ns"] = pctNs(installNs, 0.99)
			row.Extra["remove_p50_ns"] = pctNs(removeNs, 0.50)
			row.Extra["remove_p99_ns"] = pctNs(removeNs, 0.99)
		}
		if dip != nil {
			row.Extra["throughput_dip_pct"] = dip
		}
		rows = append(rows, row)
	}

	baseEvps, baseNs, _, _, _ := e17Run(flows, rounds, 0, chunk, inertRider)
	fmt.Printf("%-14s %14.0f %12.0f %12s %12s %12s %12s %8s\n",
		"baseline", baseEvps, baseNs, "-", "-", "-", "-", "-")
	emit("baseline", inertRider, 0, baseEvps, baseNs, nil, nil, 0, nil)

	for _, cycles := range cycleCounts {
		evps, ns, installNs, removeNs, epoch := e17Run(flows, rounds, cycles, chunk, inertRider)
		if int(epoch) != 2*cycles {
			panic(fmt.Sprintf("e17: lifecycle epoch %d after %d operations", epoch, 2*cycles))
		}
		dip := (baseEvps - evps) / baseEvps * 100
		label := fmt.Sprintf("churn/%d", cycles)
		fmt.Printf("%-14s %14.0f %12.0f %12d %12d %12d %12d %7.1f%%\n",
			label, evps, ns,
			pctNs(installNs, 0.50), pctNs(installNs, 0.99),
			pctNs(removeNs, 0.50), pctNs(removeNs, 0.99), dip)
		emit(label, inertRider, cycles, evps, ns, installNs, removeNs, epoch, dip)
	}

	// Purge worst case: one remove of a rider holding `flows` live
	// instances. No dip claim — purging state legitimately changes the
	// remaining workload's cost.
	evps, ns, installNs, removeNs, epoch := e17Run(flows, rounds, 1, chunk, "firewall-until-close")
	if epoch != 2 {
		panic(fmt.Sprintf("e17: purge run epoch %d, want 2", epoch))
	}
	fmt.Printf("%-14s %14.0f %12.0f %12d %12d %12d %12d %8s\n",
		"purge", evps, ns,
		pctNs(installNs, 0.50), pctNs(installNs, 0.99),
		pctNs(removeNs, 0.50), pctNs(removeNs, 0.99), "-")
	emit("purge", "firewall-until-close", 1, evps, ns, installNs, removeNs, epoch, nil)
	return rows
}

// e18OwnedDPID finds a datapath id the given member owns on the fleet's
// consistent-hash ring, so a saturation stream aimed at one member
// still travels the full federated path (router ring lookup included).
func e18OwnedDPID(members []federation.Member, addr string, from uint64) uint64 {
	ring, err := federation.NewRing(members)
	if err != nil {
		panic(err)
	}
	for k := from; ; k++ {
		if ring.Owner(k) == addr {
			return k
		}
	}
}

// sweepE18 measures federated fan-out scaling across 1/2/4 collectors.
//
// Two numbers per fleet size. The wall-clock rate drives 8 switch
// routers into the whole fleet at once; on a single benchmark core
// every collector engine competes for the same CPU, so this row shows
// path overhead, not scaling. The capacity rate is the honest scaling
// series for one machine: each member is saturated sequentially through
// the full federated path (router → ring → exporter → TCP → collector →
// sharded engine) while the others idle, standing in for N collector
// machines that would sustain those rates concurrently; fleet capacity
// is their sum. The gate — capacity(2) >= 1.7x and capacity(4) >= 3.0x
// of capacity(1), at flat per-event cost — fails the sweep loudly
// (full runs only; -smoke gates liveness, not ratios).
func sweepE18() []benchRow {
	var rows []benchRow
	fmt.Println("E18: federated fan-out scaling: aggregate ingest capacity vs collector count")
	fmt.Printf("%-11s %14s %16s %12s %10s\n",
		"collectors", "wall_evps", "capacity_evps", "ns/event", "capacity_x")

	flows, rounds := 4096, 16
	if smoke {
		flows, rounds = 256, 2
	}
	const switches = 8
	open := trace.HighFlowWorkload{Flows: flows, Gap: time.Microsecond}.Events(sim.Epoch)
	work := trace.HighFlowWorkload{Flows: flows, Rounds: rounds, ViolationEvery: 1000, Gap: time.Microsecond}.Events(sim.Epoch)
	returns := work[2*flows:]
	xcfg := exporter.Config{TargetSealLatency: 250 * time.Microsecond, BatchSizeMax: 256}

	var capacity1 float64
	for _, n := range []int{1, 2, 4} {
		type e18Member struct {
			sm  *core.ShardedMonitor
			col *collector.Collector
		}
		members := make([]e18Member, n)
		memList := make([]federation.Member, n)
		for i := range members {
			sm := core.NewShardedMonitor(2, core.Config{OnViolation: func(*core.Violation) {}})
			if err := sm.AddProperty(fwProp()); err != nil {
				panic(err)
			}
			sm.SubmitBatch(open, nil)
			sm.Drain()
			col, err := collector.New(collector.Config{Addr: "127.0.0.1:0"}, sm)
			if err != nil {
				panic(err)
			}
			col.Serve()
			members[i] = e18Member{sm: sm, col: col}
			memList[i] = federation.Member{Addr: col.Addr().String()}
		}
		fleetApplied := func() uint64 {
			var total uint64
			for i := range members {
				total += members[i].col.Stats().Events
			}
			return total
		}

		// Capacity phase: saturate each member alone over the full
		// federated path; the fleet's capacity is the sum. Each timed
		// pass needs a dpid the collector has never seen: its per-dpid
		// replay dedup outlives connections, so a reused dpid would
		// skip the stream's head as a replayed prefix. Best of two
		// passes per member, so a cold first connection does not
		// masquerade as a capacity difference.
		nextDPID := uint64(switches + 1)
		run := func(i int) (rate, ns float64) {
			dpid := e18OwnedDPID(memList, memList[i].Addr, nextDPID)
			nextDPID = dpid + 1
			r, err := federation.NewRouter(federation.Config{
				Members: memList, DPID: dpid, Exporter: xcfg,
			})
			if err != nil {
				panic(err)
			}
			r.Start()
			before := members[i].col.Stats().Events
			start := time.Now()
			for j := range returns {
				e := returns[j]
				e.SwitchID = 0
				r.Publish(e)
			}
			r.Flush()
			deadline := time.Now().Add(60 * time.Second)
			for members[i].col.Stats().Events-before < uint64(len(returns)) {
				if time.Now().After(deadline) {
					panic(fmt.Sprintf("e18: member %d applied %d of %d events",
						i, members[i].col.Stats().Events-before, len(returns)))
				}
				time.Sleep(time.Millisecond)
			}
			elapsed := time.Since(start)
			if abandoned := r.Close(5 * time.Second); abandoned != 0 {
				panic(fmt.Sprintf("e18: member %d router abandoned %d events", i, abandoned))
			}
			return float64(len(returns)) / elapsed.Seconds(),
				float64(elapsed.Nanoseconds()) / float64(len(returns))
		}
		var capacity, nsSum float64
		perMember := make([]float64, n)
		for i := range members {
			rate, ns := run(i)
			if r2, ns2 := run(i); r2 > rate {
				rate, ns = r2, ns2
			}
			perMember[i] = rate
			capacity += rate
			nsSum += ns
		}
		// Wall-clock phase: every switch stream into the fleet at once.
		routers := make([]*federation.Router, switches)
		for s := range routers {
			r, err := federation.NewRouter(federation.Config{
				Members: memList, DPID: uint64(s + 1), Exporter: xcfg,
			})
			if err != nil {
				panic(err)
			}
			r.Start()
			routers[s] = r
		}
		start := time.Now()
		for i := range returns {
			e := returns[i]
			e.SwitchID = 0 // the router stamps its own DPID
			routers[i%switches].Publish(e)
		}
		for _, r := range routers {
			r.Flush()
		}
		deadline := time.Now().Add(60 * time.Second)
		for fleetApplied() < uint64(len(returns)) {
			if time.Now().After(deadline) {
				panic(fmt.Sprintf("e18: fleet applied %d of %d events", fleetApplied(), len(returns)))
			}
			time.Sleep(time.Millisecond)
		}
		wallEvps := float64(len(returns)) / time.Since(start).Seconds()
		for _, r := range routers {
			if abandoned := r.Close(5 * time.Second); abandoned != 0 {
				panic(fmt.Sprintf("e18: router abandoned %d events", abandoned))
			}
		}

		meanNs := nsSum / float64(n)
		if n == 1 {
			capacity1 = capacity
		}
		capX := capacity / capacity1
		if !smoke {
			if n == 2 && capX < 1.7 {
				panic(fmt.Sprintf("e18: capacity at 2 collectors is %.2fx of 1, want >= 1.7x", capX))
			}
			if n == 4 && capX < 3.0 {
				panic(fmt.Sprintf("e18: capacity at 4 collectors is %.2fx of 1, want >= 3.0x", capX))
			}
		}
		fmt.Printf("%-11d %14.0f %16.0f %12.0f %9.2fx\n", n, wallEvps, capacity, meanNs, capX)
		rows = append(rows, benchRow{
			Exp:        "e18",
			Params:     map[string]any{"collectors": n, "switches": switches},
			NsPerEvent: meanNs,
			Extra: map[string]any{
				"wall_events_per_sec":       wallEvps,
				"capacity_events_per_sec":   capacity,
				"capacity_x":                capX,
				"per_member_events_per_sec": perMember,
				"events":                    len(returns),
				"smoke":                     smoke,
			},
		})
		for i := range members {
			members[i].col.Close()
			members[i].sm.Close()
		}
	}
	return rows
}

// sweepE19 measures the self-monitoring tier two ways (E19).
//
// Overhead: the engine's steady state with the metrics-history sampler
// running at its default 1s cadence vs the same engine with no sampler.
// The sampler reads the registry on its own goroutine (zero-alloc per
// tick, gated in check.sh), so the hot path should not feel it: the
// gate is <= 1% added ns/event (with a small absolute floor, since 1%
// of a ~100ns event is inside scheduler noise), full runs only.
//
// Detection: an induced degradation must page within two fast burn
// windows. A sharded engine runs its property under a tenant with a
// queue share (the production shed path: a full shard queue itself
// blocks and loses nothing) and takes a paced open-loop feed; a
// fault-injected wall-clock stall on shard 0 backs the tenant's routed
// events up past its share, the router sheds the tenant's deliveries
// into switchmon_tenant_shed_total, the sampler (100ms cadence on a
// synthetic clock) turns them into a rate spike, and the SLO engine's
// fast window crosses. The gates, full runs only: critical within
// 2*fast of the stall, i.e. 6 sampler ticks, and zero sheds from a
// control engine given the same feed and no stall.
func sweepE19() []benchRow {
	rows := sweepE19Overhead()
	return append(rows, sweepE19Detection()...)
}

// sweepE19Overhead is E19's sampler-overhead half.
func sweepE19Overhead() []benchRow {
	var rows []benchRow
	fmt.Println("E19: self-monitoring overhead (1s-cadence history sampler + SLO engine vs bare engine)")
	fmt.Printf("%-14s %12s %14s %12s %10s\n", "sampler", "ns/event", "events/sec", "delta-ns", "delta-pct")
	flows := 8192
	if smoke {
		flows = 512
	}
	open := trace.HighFlowWorkload{Flows: flows, Gap: time.Microsecond}.Events(sim.Epoch)
	work := trace.HighFlowWorkload{Flows: flows, Rounds: 8, ViolationEvery: 1000, Gap: time.Microsecond}.Events(sim.Epoch)
	returns := work[2*flows:]

	baseline := 0.0
	for _, on := range []bool{false, true} {
		sched := sim.NewScheduler()
		reg := obs.NewRegistry()
		mon := core.NewMonitor(sched, core.Config{Metrics: reg})
		if err := mon.AddProperty(fwProp()); err != nil {
			panic(err)
		}
		var db *histdb.DB
		if on {
			db = histdb.New(histdb.Config{Registry: reg, SampleEvery: time.Second, Retention: 10 * time.Minute})
			slo.New(slo.Config{DB: db, Rules: slo.BuiltinRules(), Registry: reg})
			db.Start()
		}
		for _, e := range open {
			mon.HandleEvent(e)
		}
		// Warm once, then best-of-five: the delta target is 1% of a
		// ~100ns event, so single-pass noise must be squeezed out.
		for i := range returns {
			mon.HandleEvent(returns[i])
		}
		before := reg.Snapshot()
		best := time.Duration(1<<63 - 1)
		for pass := 0; pass < 5; pass++ {
			start := time.Now()
			for i := range returns {
				mon.HandleEvent(returns[i])
			}
			if elapsed := time.Since(start); elapsed < best {
				best = elapsed
			}
		}
		ns := float64(best.Nanoseconds()) / float64(len(returns))
		label := "off"
		if on {
			label = "on/1s"
		}
		if !on {
			baseline = ns
		}
		delta := ns - baseline
		pct := 100 * delta / baseline
		fmt.Printf("%-14s %12.1f %14.0f %12.1f %9.2f%%\n",
			label, ns, float64(len(returns))/best.Seconds(), delta, pct)
		rows = append(rows, benchRow{
			Exp:           "e19",
			Params:        map[string]any{"phase": "overhead", "sampler": label, "flows": flows},
			NsPerEvent:    ns,
			Extra:         map[string]any{"events": len(returns), "delta_ns_vs_off": delta, "delta_pct_vs_off": pct, "smoke": smoke},
			CounterDeltas: obs.DiffCounters(before, reg.Snapshot()),
		})
		if db != nil {
			db.Close()
		}
		// The 1% gate with a 4ns floor: on sub-100ns events, 1% is
		// below timer noise, and the sampler runs off the hot path.
		if on && !smoke && delta > baseline*0.01 && delta > 4.0 {
			panic(fmt.Sprintf("e19: sampler overhead %.1fns (%.2f%%) exceeds the 1%% budget", delta, pct))
		}
	}
	return rows
}

// sweepE19Detection is E19's burn-rate detection half.
func sweepE19Detection() []benchRow {
	fmt.Println("E19: induced shard stall -> tenant queue-share shed burst -> critical alert (gate: within 2 fast windows)")
	const (
		shards      = 4
		sampleEvery = 100 * time.Millisecond
		fastWindow  = 300 * time.Millisecond
		// The feed is an open loop of 64-event batches, each followed by a
		// clock advance and a 1ms pause: far below the engine's capacity,
		// so healthy shards drain between batches and the tenant's backlog
		// stays under one batch's deliveries. maxQueued sits above that
		// and far below the hundreds of deliveries shard 0's queue holds,
		// so only the stall can trip the share.
		tenant    = "e19"
		batch     = 64
		maxQueued = 256
	)
	chunk := 4000
	stall := 250 * time.Millisecond
	if smoke {
		chunk = 800
		stall = 60 * time.Millisecond
	}
	newEngine := func() (*core.ShardedMonitor, *obs.Registry) {
		reg := obs.NewRegistry()
		sm := core.NewShardedMonitor(shards, core.Config{
			Metrics:      reg,
			TenantQuotas: map[string]core.TenantQuota{tenant: {MaxQueued: maxQueued}},
		})
		p := fwProp()
		p.Tenant = tenant
		if err := sm.AddProperty(p); err != nil {
			panic(err)
		}
		return sm, reg
	}
	shedTotal := func(reg *obs.Registry) uint64 {
		return reg.Snapshot().CounterValue("switchmon_tenant_shed_total", obs.L("tenant", tenant))
	}
	work := trace.HighFlowWorkload{Flows: chunk / 2, Rounds: 30, Gap: time.Microsecond}.Events(sim.Epoch)
	feeder := func(sm *core.ShardedMonitor) func(n int) {
		next := 0
		return func(n int) {
			for end := next + n; next < end; next += batch {
				b := work[next:min(next+batch, end)]
				if err := sm.SubmitBatch(b, nil); err != nil {
					panic(err)
				}
				sm.Tick(b[len(b)-1].Time)
				time.Sleep(time.Millisecond)
			}
		}
	}

	// Control: the same feed into a healthy engine, so the detection
	// below is shown to be the stall's doing, not the load's.
	ctl, ctlReg := newEngine()
	feedCtl := feeder(ctl)
	for i := 0; i < 3; i++ {
		feedCtl(chunk)
	}
	ctl.Close()
	control := shedTotal(ctlReg)

	sm, reg := newEngine()
	defer sm.Close()
	feed := feeder(sm)

	// Synthetic sampler clock: each tick advances 100ms no matter how
	// long the wall-clock feeding took, so rates are deterministic in
	// sample time and the detection gate is in ticks, not wall jitter.
	now := sim.Epoch
	db := histdb.New(histdb.Config{
		Registry: reg, SampleEvery: sampleEvery, Retention: time.Minute,
		Now: func() time.Time { return now },
	})
	eng := slo.New(slo.Config{
		DB: db,
		Rules: []slo.Rule{{
			Name:   "shard-stall-shed",
			Series: "switchmon_tenant_shed_total*",
			// Low enough that one burst tick keeps the slow (900ms)
			// window hot too — critical needs both windows over.
			Threshold: 25, // events/s in sample time
			Fast:      fastWindow,
			Slow:      3 * fastWindow,
		}},
		Registry: reg,
	})

	state := func() string {
		for _, a := range eng.Alerts() {
			if a.Rule == "shard-stall-shed" {
				return a.State
			}
		}
		return "?"
	}
	tick := func() {
		now = now.Add(sampleEvery)
		db.Tick()
	}

	// Quiet baseline: no traffic, rates rest at zero, rule rests at ok.
	// (A loaded-but-healthy baseline would hang the gate's determinism
	// on producer/consumer timing; the detection claim only needs a
	// before/after edge.)
	for i := 0; i < 10; i++ {
		tick()
	}
	if s := state(); s != "ok" {
		panic(fmt.Sprintf("e19: baseline state %s, want ok", s))
	}
	shedBase := shedTotal(reg)

	// Induce: stall shard 0 on its next event; the tenant's deliveries
	// behind the stall exhaust its queue share and are shed.
	spec := fault.DefaultSpec()
	spec.StallShard = 0
	spec.StallAt = 1 // fires on the first probe call at or past seq 1, i.e. immediately
	spec.Stall = stall
	if err := fault.ArmShardFaults(sm, spec); err != nil {
		panic(err)
	}
	ticksToCritical := 0
	for i := 1; i <= 12; i++ {
		feed(chunk)
		tick()
		if state() == "critical" {
			ticksToCritical = i
			break
		}
	}
	shed := shedTotal(reg) - shedBase
	fmt.Printf("%-22s %8d  (gate: 0, healthy engine, same feed)\n", "control shed events", control)
	fmt.Printf("%-22s %8d\n", "shed events", shed)
	fmt.Printf("%-22s %8d  (gate: <= %d = 2 fast windows)\n", "ticks to critical", ticksToCritical, 2*int(fastWindow/sampleEvery))
	if shed == 0 {
		panic("e19: induced stall shed nothing — the degradation never happened")
	}
	if ticksToCritical == 0 {
		panic("e19: shed burst never drove the rule critical")
	}
	if !smoke && ticksToCritical > 2*int(fastWindow/sampleEvery) {
		panic(fmt.Sprintf("e19: critical after %d ticks, want <= %d (2 fast windows)", ticksToCritical, 2*int(fastWindow/sampleEvery)))
	}
	if !smoke && control != 0 {
		panic(fmt.Sprintf("e19: the healthy control shed %d events; the feed alone trips the share", control))
	}
	trs := eng.Transitions()
	return []benchRow{{
		Exp: "e19",
		Params: map[string]any{
			"phase": "detection", "shards": shards,
			"sample_every_ms": sampleEvery.Milliseconds(), "fast_window_ms": fastWindow.Milliseconds(),
			"stall_ms": stall.Milliseconds(), "chunk": chunk, "max_queued": maxQueued,
		},
		Extra: map[string]any{
			"shed_events":         shed,
			"control_shed_events": control,
			"ticks_to_critical":   ticksToCritical,
			"detection_ms":        ticksToCritical * int(sampleEvery.Milliseconds()),
			"transitions":         len(trs),
			"smoke":               smoke,
		},
	}}
}
