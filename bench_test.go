// Benchmarks regenerating the repository's in-process performance
// claims, one benchmark family per experiment in DESIGN.md's index (E3-E8,
// E11, E14's trace overhead and E16; the fabric, fault, lifecycle and
// self-monitoring sweeps are cmd/benchsweep's). These benchmarks are the
// one implementation of each experiment: EXPERIMENTS.md's "Measured"
// lines cite them and scripts/check.sh gates E11 on them. Absolute
// numbers are machine-dependent; the claims are about shapes:
//
//	E3  Varanus ns/event grows linearly with live instances; Static
//	    Varanus and register-based designs stay flat (Sec. 3.3).
//	E4  OpenFlow-style rule modification cost grows with table size;
//	    register writes are O(1) (Sec. 3.3).
//	E5  Inline monitoring taxes the forwarding path; split monitoring
//	    defers the cost (and risks lag errors — shown in the integration
//	    tests) (Feature 9).
//	E6  Full provenance costs more than limited; limited is nearly free
//	    (Feature 10).
//	E7  External monitoring redirects the full traffic volume; on-switch
//	    monitoring redirects nothing (Sec. 1).
//	E8  Identity-hash sharding spreads the live population across
//	    per-core engines: events/sec scales with the shard count on
//	    multi-core hosts (run with GOMAXPROCS >= shards).
//	E11 The full telemetry stack costs a bounded fraction of an event
//	    and allocates nothing.
//	E14 Tracing at the deployment sample rate stays near the untraced
//	    engine; every event traced costs visibly more.
//	E16 Per-property state accounting costs no more than ~15ns/event
//	    and allocates nothing.
package switchmon

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"switchmon/internal/backend"
	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/tables"
	"switchmon/internal/trace"
)

func fwProp(b *testing.B) *property.Property {
	b.Helper()
	p := property.CatalogByName(property.DefaultParams(), "firewall-basic")
	if p == nil {
		b.Fatal("missing firewall-basic")
	}
	return p
}

// BenchmarkE3PipelineDepth measures per-event cost with N live instances
// for each backend architecture, with the pipeline depth a packet walks
// and the state-update work (rule mods or register writes) the backend
// spent building the live population; the timed return traffic changes
// no state.
func BenchmarkE3PipelineDepth(b *testing.B) {
	makers := []struct {
		name string
		mk   func(*sim.Scheduler) backend.Backend
	}{
		{"Varanus", func(s *sim.Scheduler) backend.Backend { return backend.NewVaranus(s) }},
		{"StaticVaranus", func(s *sim.Scheduler) backend.Backend { return backend.NewStaticVaranus(s) }},
		{"P4Registers", func(s *sim.Scheduler) backend.Backend { return backend.NewP4(s) }},
		{"Ideal", func(s *sim.Scheduler) backend.Backend { return backend.NewIdeal(s) }},
	}
	for _, instances := range []int{16, 256, 2048, 4096} {
		for _, m := range makers {
			b.Run(fmt.Sprintf("instances=%d/%s", instances, m.name), func(b *testing.B) {
				sched := sim.NewScheduler()
				bk := m.mk(sched)
				if err := bk.AddProperty(fwProp(b)); err != nil {
					b.Fatal(err)
				}
				setup := trace.FirewallWorkload{Flows: instances, Gap: time.Microsecond}
				for _, e := range setup.Events(sim.Epoch) {
					bk.HandleEvent(e)
				}
				work := trace.FirewallWorkload{Flows: instances, ReturnsPerFlow: 1, Gap: time.Microsecond}
				events := work.Events(sim.Epoch)[2*instances:] // returns only
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bk.HandleEvent(events[i%len(events)])
				}
				b.ReportMetric(float64(bk.PipelineDepth()), "pipeline-depth")
				b.ReportMetric(float64(bk.StateUpdateCost()), "state-cost")
			})
		}
	}
}

// BenchmarkE4StateUpdate measures a full monitor transition on backends
// with rule-based versus register-based state: each transition is paid
// on a dataplane.Switch's own flow table or register file. Each iteration
// opens a fresh flow (one instance creation = one state transition). The
// raw mechanisms alone, at fixed store sizes, are internal/dataplane's
// BenchmarkStateMechanism.
func BenchmarkE4StateUpdate(b *testing.B) {
	makers := []struct {
		name string
		mk   func(*sim.Scheduler) backend.Backend
	}{
		{"RuleTable-Varanus", func(s *sim.Scheduler) backend.Backend { return backend.NewStaticVaranus(s) }},
		{"Registers-P4", func(s *sim.Scheduler) backend.Backend { return backend.NewP4(s) }},
	}
	for _, m := range makers {
		b.Run(m.name, func(b *testing.B) {
			sched := sim.NewScheduler()
			bk := m.mk(sched)
			if err := bk.AddProperty(fwProp(b)); err != nil {
				b.Fatal(err)
			}
			w := trace.FirewallWorkload{Flows: 4096, Gap: time.Microsecond}
			events := w.Events(sim.Epoch)
			arrivals := make([]core.Event, 0, len(events)/2)
			for _, e := range events {
				if e.Kind == core.KindArrival {
					arrivals = append(arrivals, e)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bk.HandleEvent(arrivals[i%len(arrivals)])
			}
			b.ReportMetric(float64(bk.StateUpdateCost())/float64(b.N), "state-ops/op")
		})
	}
}

// e5Stream is E5's input: NAT traffic with one mistranslated flow in 50.
func e5Stream() []core.Event {
	return trace.NATWorkload{Flows: 8192, MistranslateEvery: 50, Gap: time.Microsecond}.Events(sim.Epoch)
}

// e6Stream is E6's input: firewall traffic with one violating flow in 10.
func e6Stream() []core.Event {
	return trace.FirewallWorkload{Flows: 2048, ReturnsPerFlow: 4, ViolationEvery: 10, Gap: time.Microsecond}.Events(sim.Epoch)
}

// BenchmarkE5SideEffect measures the forwarding-path cost of inline
// versus split monitor processing (Feature 9). Split mode also reports
// what it deferred and what it lost: the events its bounded slow-path
// queue dropped per forwarded event, and the cost per event of the
// Flush that applies what was left queued.
func BenchmarkE5SideEffect(b *testing.B) {
	nat := property.CatalogByName(property.DefaultParams(), "nat-reverse")
	events := e5Stream()
	for _, mode := range []core.Mode{core.Inline, core.Split} {
		b.Run(mode.String(), func(b *testing.B) {
			sched := sim.NewScheduler()
			mon := core.NewMonitor(sched, core.Config{Mode: mode, SplitFlushLimit: 4096})
			if err := mon.AddProperty(nat); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mon.HandleEvent(events[i%len(events)])
			}
			b.StopTimer()
			if mode != core.Split {
				return
			}
			start := time.Now()
			if flushed := mon.Flush(); flushed > 0 {
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(flushed), "flush-ns/event")
			}
			b.ReportMetric(float64(mon.Stats().DroppedEvents)/float64(b.N), "dropped/op")
		})
	}
}

// BenchmarkE6Provenance measures monitor cost at each provenance level
// (Feature 10). The +ring rows attach a violation ring, the shape every
// daemon runs; every row also reports its cost and allocations per
// violation, so a row's difference from none is what a report costs.
func BenchmarkE6Provenance(b *testing.B) {
	events := e6Stream()
	for _, tc := range []struct {
		name  string
		level core.ProvLevel
		ring  bool
	}{
		{"none", core.ProvNone, false},
		{"limited", core.ProvLimited, false},
		{"full", core.ProvFull, false},
		{"limited+ring", core.ProvLimited, true},
		{"full+ring", core.ProvFull, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sched := sim.NewScheduler()
			records, violations := 0, 0
			cfg := core.Config{
				Provenance:  tc.level,
				OnViolation: func(v *core.Violation) { records += len(v.History); violations++ },
			}
			if tc.ring {
				cfg.Violations = obs.NewRing(256)
			}
			mon := core.NewMonitor(sched, cfg)
			if err := mon.AddProperty(fwProp(b)); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mon.HandleEvent(events[i%len(events)])
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(records)/float64(b.N), "history-records/op")
			if violations > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(violations), "ns/violation")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(violations), "allocs/violation")
			}
		})
	}
}

// BenchmarkE7RedirectVolume measures the external-monitoring byte volume
// (Sec. 1's motivation) as the learning switch's host population grows:
// every monitored packet crosses to the controller under OpenFlow 1.3,
// none under on-switch monitoring.
func BenchmarkE7RedirectVolume(b *testing.B) {
	lsw := property.CatalogByName(property.DefaultParams(), "lswitch-unicast")
	for _, hosts := range []int{8, 32, 128} {
		w := trace.LearningWorkload{Hosts: hosts, PacketsPerHost: 64, PayloadBytes: 512, Gap: time.Microsecond}
		events := w.Events(sim.Epoch)
		b.Run(fmt.Sprintf("hosts=%d/OpenFlow13-external", hosts), func(b *testing.B) {
			sched := sim.NewScheduler()
			bk := backend.NewOpenFlow13(sched)
			if err := bk.AddProperty(lsw); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bk.HandleEvent(events[i%len(events)])
			}
			b.ReportMetric(float64(bk.RedirectedBytes())/float64(b.N), "redirected-B/op")
		})
		b.Run(fmt.Sprintf("hosts=%d/Ideal-onswitch", hosts), func(b *testing.B) {
			sched := sim.NewScheduler()
			bk := backend.NewIdeal(sched)
			if err := bk.AddProperty(lsw); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bk.HandleEvent(events[i%len(events)])
			}
			b.ReportMetric(0, "redirected-B/op")
		})
	}
}

// BenchmarkE8Sharding measures sharded-engine throughput against the
// inline engine on the high-flow steady state: a large established
// population probed by interleaved return traffic, the shape where the
// per-event cost is one index lookup and the shards share nothing. The
// events/sec metric is the paper-facing number; speedup over shards=1
// requires real cores (GOMAXPROCS >= shards), since the shards are
// goroutines.
func BenchmarkE8Sharding(b *testing.B) {
	const flows = 8192
	open := trace.HighFlowWorkload{Flows: flows, Gap: time.Microsecond}.Events(sim.Epoch)
	work := trace.HighFlowWorkload{Flows: flows, Rounds: 1, Gap: time.Microsecond}.Events(sim.Epoch)
	returns := work[2*flows:] // steady-state stage-1 probes only

	b.Run("inline", func(b *testing.B) {
		sched := sim.NewScheduler()
		mon := core.NewMonitor(sched, core.Config{})
		if err := mon.AddProperty(fwProp(b)); err != nil {
			b.Fatal(err)
		}
		for _, e := range open {
			mon.HandleEvent(e)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mon.HandleEvent(returns[i%len(returns)])
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sm := core.NewShardedMonitor(shards, core.Config{})
			defer sm.Close()
			if err := sm.AddProperty(fwProp(b)); err != nil {
				b.Fatal(err)
			}
			sm.SubmitBatch(open, nil)
			sm.Drain()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sm.Submit(returns[i%len(returns)])
			}
			sm.Barrier() // cost of in-flight batches belongs to the run
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkE11TelemetryOverhead measures what attaching the full
// telemetry stack (registry counters, latency histogram, occupancy
// gauges, violation ring) costs on the firewall steady state, against
// the same engine with telemetry disabled. The claim under test: the
// overhead is a couple of atomic ops per event plus two clock reads for
// one event in 64 (scripts/check.sh gates on / off at 1.12), and zero
// allocations either way.
func BenchmarkE11TelemetryOverhead(b *testing.B) {
	const flows = 8192
	open := trace.HighFlowWorkload{Flows: flows, Gap: time.Microsecond}.Events(sim.Epoch)
	work := trace.HighFlowWorkload{Flows: flows, Rounds: 1, Gap: time.Microsecond}.Events(sim.Epoch)
	returns := work[2*flows:]

	for _, metrics := range []bool{false, true} {
		b.Run(fmt.Sprintf("metrics=%v", metrics), func(b *testing.B) {
			sched := sim.NewScheduler()
			cfg := core.Config{}
			if metrics {
				cfg.Metrics = obs.NewRegistry()
				cfg.Violations = obs.NewRing(256)
			}
			mon := core.NewMonitor(sched, cfg)
			if err := mon.AddProperty(fwProp(b)); err != nil {
				b.Fatal(err)
			}
			for _, e := range open {
				mon.HandleEvent(e)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mon.HandleEvent(returns[i%len(returns)])
			}
		})
	}
}

// BenchmarkE14TraceOverhead measures what end-to-end tracing costs on
// the firewall steady state: the same engine with tracing off, sampling
// 1-in-64 (the deployment rate), and 1-in-1 (every event traced). Each
// event takes the dataplane's ingress path — a Sample call, and for
// sampled events an ingress stamp plus a Finish at the verdict. The
// claim under test: the unsampled path is a hash and a compare with
// zero allocations, so 1-in-64 stays within a few percent of off.
func BenchmarkE14TraceOverhead(b *testing.B) {
	const flows = 8192
	open := trace.HighFlowWorkload{Flows: flows, Gap: time.Microsecond}.Events(sim.Epoch)
	work := trace.HighFlowWorkload{Flows: flows, Rounds: 1, Gap: time.Microsecond}.Events(sim.Epoch)
	returns := work[2*flows:]

	for _, sampleN := range []uint64{0, 64, 1} {
		name := "trace=off"
		if sampleN > 0 {
			name = fmt.Sprintf("trace=1in%d", sampleN)
		}
		b.Run(name, func(b *testing.B) {
			sched := sim.NewScheduler()
			cfg := core.Config{}
			var tr *tracer.Tracer
			if sampleN > 0 {
				tr = tracer.New(tracer.Config{SampleN: sampleN})
				cfg.Tracer = tr
			}
			mon := core.NewMonitor(sched, cfg)
			if err := mon.AddProperty(fwProp(b)); err != nil {
				b.Fatal(err)
			}
			for _, e := range open {
				mon.HandleEvent(e)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := returns[i%len(returns)]
				e.PacketID = core.PacketID(i)
				if sp := tr.Sample(e.SwitchID, uint64(e.PacketID), uint8(e.Kind)); sp != nil {
					sp.Stamp(tracer.StageIngress)
					e.Trace = sp
				}
				mon.HandleEvent(e)
			}
		})
	}
}

// BenchmarkE16StateAccounting measures what per-property state-cost
// accounting (internal/obs/statesize) adds to the firewall steady
// state, against the same engine with accounting disabled. On the
// steady-state return path the accounting cost is two uncontended
// atomic adds (a pool pop and a pool push around the dedup hit); the
// filing path additionally hashes the bindings into the heavy-hitter
// sketch when the filing falls in the sample class. The claim under
// test (E16): accounting adds at most ~15ns/event over the unaccounted
// engine and zero allocations at every sample rate. With accounting on,
// the run also reports the live instances the accounting saw.
func BenchmarkE16StateAccounting(b *testing.B) {
	const flows = 8192
	open := trace.HighFlowWorkload{Flows: flows, Gap: time.Microsecond}.Events(sim.Epoch)
	work := trace.HighFlowWorkload{Flows: flows, Rounds: 1, Gap: time.Microsecond}.Events(sim.Epoch)
	returns := work[2*flows:]

	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"accounting=off", core.Config{DisableStateAccounting: true}},
		{"accounting=on", core.Config{StateTopK: 32, StateSample: 8}},
		{"accounting=on/sample=1", core.Config{StateTopK: 32, StateSample: 1}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			sched := sim.NewScheduler()
			mon := core.NewMonitor(sched, c.cfg)
			if err := mon.AddProperty(fwProp(b)); err != nil {
				b.Fatal(err)
			}
			for _, e := range open {
				mon.HandleEvent(e)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mon.HandleEvent(returns[i%len(returns)])
			}
			b.StopTimer()
			if c.cfg.DisableStateAccounting {
				return
			}
			var live int64
			for _, p := range mon.StateReport().Properties {
				live += p.Live
			}
			b.ReportMetric(float64(live), "live-instances")
		})
	}
}

// BenchmarkAblationIndexing quantifies what the Feature 8 instance
// indexes buy: the same engine with keyed lookups versus forced linear
// scans, at growing instance populations. (The scan engine is also what
// models Varanus's per-instance pipeline walk in E3.)
func BenchmarkAblationIndexing(b *testing.B) {
	for _, instances := range []int{64, 1024} {
		for _, disable := range []bool{false, true} {
			name := fmt.Sprintf("instances=%d/indexed=%v", instances, !disable)
			b.Run(name, func(b *testing.B) {
				sched := sim.NewScheduler()
				mon := core.NewMonitor(sched, core.Config{DisableIndex: disable})
				if err := mon.AddProperty(fwProp(b)); err != nil {
					b.Fatal(err)
				}
				setup := trace.FirewallWorkload{Flows: instances, Gap: time.Microsecond}
				for _, e := range setup.Events(sim.Epoch) {
					mon.HandleEvent(e)
				}
				work := trace.FirewallWorkload{Flows: instances, ReturnsPerFlow: 1, Gap: time.Microsecond}
				events := work.Events(sim.Epoch)[2*instances:]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mon.HandleEvent(events[i%len(events)])
				}
			})
		}
	}
}

// BenchmarkAblationEviction quantifies the MaxInstances cap: bounded
// memory at the cost of eviction work.
func BenchmarkAblationEviction(b *testing.B) {
	for _, cap := range []int{0, 1024} {
		name := "unbounded"
		if cap > 0 {
			name = fmt.Sprintf("cap=%d", cap)
		}
		b.Run(name, func(b *testing.B) {
			sched := sim.NewScheduler()
			mon := core.NewMonitor(sched, core.Config{MaxInstances: cap})
			if err := mon.AddProperty(fwProp(b)); err != nil {
				b.Fatal(err)
			}
			w := trace.FirewallWorkload{Flows: 16384, Gap: time.Microsecond}
			events := w.Events(sim.Epoch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mon.HandleEvent(events[i%len(events)])
			}
			b.StopTimer()
			b.ReportMetric(float64(mon.ActiveInstances()), "live-instances")
		})
	}
}

// BenchmarkTableRegeneration times the E1/E2 table builds (they must stay
// cheap enough to run in every test cycle).
func BenchmarkTableRegeneration(b *testing.B) {
	b.Run("Table1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := tables.RenderTable1(property.DefaultParams(), true); len(got) == 0 {
				b.Fatal("empty table")
			}
		}
	})
	b.Run("Table2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := tables.RenderTable2(); len(got) == 0 {
				b.Fatal("empty table")
			}
		}
	})
}

// TestBenchWorkloadsProduceViolations guards the benchmark inputs: the
// streams E5 and E6 time must actually violate their properties, or the
// benchmarks would be timing no-ops. It judges exactly the streams the
// benchmarks replay.
func TestBenchWorkloadsProduceViolations(t *testing.T) {
	for _, c := range []struct {
		exp, prop string
		events    []core.Event
	}{
		{"E5", "nat-reverse", e5Stream()},
		{"E6", "firewall-basic", e6Stream()},
	} {
		viols := 0
		mon := core.NewMonitor(sim.NewScheduler(), core.Config{OnViolation: func(*core.Violation) { viols++ }})
		if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), c.prop)); err != nil {
			t.Fatal(err)
		}
		for _, e := range c.events {
			mon.HandleEvent(e)
		}
		if viols == 0 {
			t.Errorf("%s workload produced no %s violations", c.exp, c.prop)
		}
	}
}
