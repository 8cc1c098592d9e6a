package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/dataplane"
	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/wire"
)

// The traced pass of a workload has three parts:
//
//  1. the workload itself with spans on, for half the run length, after
//     a short untraced run of the same binary that prices the tracing;
//  2. the fabric with its connections and sink timed and the program's
//     own obs tracer on — the workload's own run when that is
//     fabric-steady, a short extra run otherwise — so that the
//     exporter, collector and obs.stage rows are measured, not blank,
//     whichever workload was asked for;
//  3. the layer probes: each layer driven alone (sink or engine
//     substituted) on the same generated streams.
//
// Rows 2 and 3 do not depend on the workload; they are repeated in
// every traced run so that every per-layer metric is always reported.

// probeDur is how long a probe runs: seconds at the default run length,
// stretching and shrinking with -seconds.
func (o options) probeDur(seconds float64) time.Duration {
	return time.Duration(seconds * o.seconds / runSeconds * float64(time.Second))
}

// runTraced produces every per-layer metric for one workload.
func runTraced(w *workloadDef, o options) outcome {
	ref := o
	ref.seconds, ref.setupOnce = o.seconds*0.15, true
	untraced := w.run(ref)

	tr := o
	tr.seconds, tr.setupOnce, tr.spans = o.seconds*0.5, true, newSpanRec()
	out := w.run(tr)
	if err := tr.spans.write(o.traceDir, w.Name); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing trace:", err)
	}
	l := out.layer
	l["trace.overhead_frac"] = 1 - out.e2e["events_per_s"]/untraced.e2e["events_per_s"]
	l["harness.failed_frac"] = float64(out.failed) / float64(out.attempted)
	l["harness.verdict_errors"] = float64(out.verdictErrors)
	l["gen.ns_per_event"] = genCost(w.Name, o)

	if w.Name != "fabric-steady" {
		fp := o
		fp.seconds, fp.setupOnce, fp.spans = o.seconds*0.2, true, newSpanRec()
		rig, fo := runFabricPhases(fp, 0.4)
		l["core.shard_skew"] = shardSkew(rig.sm)
		fabricLayer(&out, rig, fo)
		rig.close()
	}
	probeCountSink(l, o)
	probeBlockingSeal(l, o)
	probePacket(l, o)
	probeWire(l, o)
	probeDataplane(l, o)
	probeCore(l, o)
	budget(&out, w.Name, tr.spans)
	return out
}

// genCost is the generator alone: the workload's input loop into
// nothing, ns per event. Subtract it from cpu_ns_per_event.
func genCost(workload string, o options) float64 {
	dur := o.probeDur(0.3)
	start := time.Now()
	var n uint64
	switch workload {
	case "inline-steady":
		d := newSteadyDriver(o.seed, o.flows(), "firewall-basic")
		drive(dur, nil, func(uint32) { d.batch(func(core.Event) {}, batchEvents, batchSpans{}) })
		n = d.handed
	case "churn-timeouts":
		d := newChurnDriver(o.seed)
		drive(dur, nil, func(batchNo uint32) { d.batch(nullBatchSink{}, batchNo) })
		n = d.handed
	case "fabric-steady":
		g := newFlowGen(o.seed, o.flows(), closedLoopViolEvery, true)
		var r rec
		for start = time.Now(); time.Since(start) < dur; n += batchEvents {
			for i := 0; i < batchEvents; i++ {
				g.next(&r)
			}
		}
	case "onswitch-trio":
		g := newTrioGen(o.seed, o.flows()/2)
		var r rec
		// Two events a packet.
		for start = time.Now(); time.Since(start) < dur; n += 2 * batchEvents {
			for i := 0; i < batchEvents; i++ {
				g.next(&r)
			}
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// budget reconciles the traced pass: what the calls on the path cost
// an event, against the CPU the same pass used per event.
//
// A call is priced at the mean self time of its spans (less the slowest
// in a thousand). A call that can block on back-pressure — Publish,
// SubmitBatch — is priced at its lower quartile, the unblocked calls;
// on churn-timeouts every SubmitBatch waits for the one worker, so its
// routing work cannot be told from its wait and is left unattributed.
// The garbage collector's CPU comes from the runtime's accounting. What a
// sharded engine does on its worker goroutines no span of the
// benchmark's can bracket: the engine's own apply-latency telemetry
// stands in for it, and on fabric-steady the wire codec, which runs
// inside the exporter's sender and the collector's reader, is priced by
// the wire probes (so budget must run after them).
func budget(out *outcome, workload string, spans *spanRec) {
	self := spans.selfTimes()
	l := out.layer
	rootEvents := float64(self[spBatch].events)
	// perEvent turns a per-call price into a per-event one over the
	// sampled batches.
	perEvent := func(name spanName, price float64) float64 {
		if rootEvents == 0 {
			return 0
		}
		return price * float64(self[name].calls()) / rootEvents
	}
	mean := func(name spanName) float64 { return perEvent(name, self[name].mean()) }
	attributed := l["runtime.gc_ns_per_event"]
	switch workload {
	case "inline-steady":
		attributed += mean(spHandle)
	case "onswitch-trio":
		attributed += mean(spTimers) + mean(spDecode) + mean(spInject) + mean(spHandle)
	case "churn-timeouts":
		attributed += mean(spTick) + out.engineNsPerEvent
	case "fabric-steady":
		attributed += mean(spDecode) + perEvent(spPublish, self[spPublish].quantile(0.25)) + out.engineNsPerEvent +
			l["wire.encode_ns_per_event"] + l["wire.decode_ns_per_event"]
		// Writes and sink submits happen once a wire batch, on the
		// sender's and the collector's goroutines.
		if n := l["exporter.batch_events_mean_b"]; n > 0 {
			attributed += (self[spWrite].mean() + self[spSink].quantile(0.25)) / n
		}
	}
	cpu := out.e2e["cpu_ns_per_event"]
	l["budget.cpu_ns_per_event"] = cpu
	l["budget.attributed_ns_per_event"] = attributed
	l["budget.unattributed_ns_per_event"] = cpu - l["gen.ns_per_event"] - attributed

	fmt.Printf("%s spans: self time per call in ns, recorder overhead (%d+%d ns) removed\n", workload, spans.inside, spans.around)
	for name, ls := range self {
		if ls.calls() > 0 {
			fmt.Printf("  %-28s calls=%-8d p25=%-9.0f p50=%-9.0f mean=%-9.0f p99=%-9.0f\n", spanNames[name], ls.calls(),
				ls.quantile(0.25), ls.quantile(0.5), ls.mean(), ls.quantile(0.99))
		}
	}
}

// probeCountSink runs the fabric's closed loop with the engine replaced
// by a counting sink: the ceiling the fabric alone sets.
func probeCountSink(l map[string]float64, o options) {
	g := newFlowGen(o.seed, o.flows(), closedLoopViolEvery, true)
	rig := newFabricRig(g, newVerdicts("firewall-basic"), nil, rigShape{counting: true})
	st := rig.closedLoop(o.probeDur(1.5), o.probeDur(0.25))
	rig.close()
	l["collector.count_sink_events_per_s"] = st.rate
}

// probeBlockingSeal runs the same loop the way the workload must not:
// no send window, so Publish blocks at the exporter's default queue
// bound. A seal blocked there can be overtaken by the next, and the
// collector declares the overtaken batch lost (README, "known
// findings"); this counts those events until the exporter is fixed.
func probeBlockingSeal(l map[string]float64, o options) {
	g := newFlowGen(o.seed, o.flows(), closedLoopViolEvery, true)
	rig := newFabricRig(g, newVerdicts("firewall-basic"), nil, rigShape{counting: true, blocking: true})
	rig.closedLoop(o.probeDur(1.5), o.probeDur(0.25))
	l["exporter.blocking_seal_gap_events"] = float64(rig.col.Stats().GapEvents)
	rig.close()
}

// timeLoop runs fn in batches until dur has passed and returns ns per
// call and heap allocations per call.
func timeLoop(dur time.Duration, fn func()) (ns, allocs float64) {
	a0 := mallocs()
	start := time.Now()
	var n int
	for time.Since(start) < dur {
		for i := 0; i < 1024; i++ {
			fn()
		}
		n += 1024
	}
	elapsed := time.Since(start)
	return float64(elapsed) / float64(n), float64(mallocs()-a0) / float64(n)
}

// probePacket times the codec alone on the two frame sizes the
// workloads use: a 54-byte TCP frame and a DHCP frame.
func probePacket(l map[string]float64, o options) {
	g := newFlowGen(o.seed, 64, closedLoopViolEvery, false)
	cg, ps := newChurnGen(o.seed), newPktSlot()
	var e core.Event
	for e.Packet == nil || e.Packet.DHCP == nil {
		cg.next(&e, &ps)
	}
	tcp, dhcp := g.ret[0], mustEncode(e.Packet)
	dur := o.probeDur(0.15)
	var sink *packet.Packet
	i := 0
	l["packet.decode_ns"], l["packet.decode_allocs"] = timeLoop(dur, func() {
		sink = mustDecode(g.ret[i&63])
		i++
	})
	l["packet.decode_dhcp_ns"], _ = timeLoop(dur, func() { sink = mustDecode(dhcp) })
	buf := make([]byte, 0, 512)
	pt, pd := mustDecode(tcp), mustDecode(dhcp)
	l["packet.encode_ns"], _ = timeLoop(dur, func() { buf, _ = pt.AppendEncode(buf[:0]) })
	l["packet.encode_dhcp_ns"], _ = timeLoop(dur, func() { buf, _ = pd.AppendEncode(buf[:0]) })
	_ = sink
}

// probeWire times the batch codec alone on a 256-event batch of the
// fabric stream: AppendBatch, and a pooled Reader over in-memory bytes.
func probeWire(l map[string]float64, o options) {
	g := newFlowGen(o.seed, o.flows(), closedLoopViolEvery, true)
	b := &wire.Batch{FirstSeq: 1}
	var r rec
	for i := 0; i < batchEvents; i++ {
		g.next(&r)
		b.Events = append(b.Events, r.event(mustDecode(r.frame)))
	}
	var buf []byte
	ns, _ := timeLoop(o.probeDur(0.2), func() {
		var err error
		buf, err = wire.AppendBatch(buf[:0], b)
		must(err)
	})
	l["wire.encode_ns_per_event"] = ns / batchEvents
	l["wire.bytes_per_event"] = float64(len(buf)) / batchEvents

	stream := bytes.Repeat(buf, 64)
	rd := bytes.NewReader(stream)
	wr := wire.NewPooledReader(rd)
	ns, allocs := timeLoop(o.probeDur(0.2), func() {
		if rd.Len() == 0 {
			rd.Reset(stream)
		}
		f, err := wr.Next()
		must(err)
		f.(*wire.Batch).Release()
	})
	l["wire.decode_ns_per_event"] = ns / batchEvents
	l["wire.decode_allocs_per_event"] = allocs / batchEvents
}

// probeDataplane injects the onswitch-trio stream into the switch and
// firewall app with a no-op observer, then with the monitor attached;
// the difference is what observing costs a packet.
func probeDataplane(l map[string]float64, o options) {
	run := func(v *verdicts) float64 {
		d := &trioDriver{g: newTrioGen(o.seed, o.flows()/2), v: v}
		rig := newTrioRig(v)
		defer func() { l["dataplane.events_per_packet"] = float64(rig.events) / float64(d.g.pid) }()
		// Decode ahead of time: this row is the dataplane, not the codec.
		pkts := make([]*packet.Packet, 1<<15)
		recs := make([]rec, len(pkts))
		var n int
		var spent time.Duration
		for dur := o.probeDur(0.4); spent < dur; n += len(pkts) {
			for i := range recs {
				d.g.next(&recs[i])
				pkts[i] = mustDecode(recs[i].frame)
			}
			start := time.Now()
			for i := range recs {
				r := &recs[i]
				if r.dropped && v != nil {
					d.announce(r, 0)
				}
				rig.sched.RunUntil(time.Unix(0, r.at))
				port := dataplane.PortNo(portExternal)
				if r.kind == recOut {
					port = portInternal
				}
				rig.sw.Inject(port, pkts[i])
			}
			spent += time.Since(start)
		}
		return float64(spent) / float64(n)
	}
	bare := run(nil)
	l["dataplane.inject_ns"] = bare
	l["dataplane.observe_ns"] = run(newVerdicts(trioProps...)) - bare
}

// probeCore drives the engine alone: the steady stream inline with and
// without the telemetry registry (the difference is what obs costs an
// event), the same stream through one and two shards (the difference
// to inline is the queue hop), each firewall property alone on the trio
// stream, and the churn stream inline.
func probeCore(l map[string]float64, o options) {
	dur := o.probeDur(0.5)
	inline := func(telemetry bool) float64 {
		d := newSteadyDriver(o.seed, o.flows(), "firewall-basic")
		var reg *obs.Registry
		if telemetry {
			reg = obs.NewRegistry()
		}
		mon := core.NewMonitor(sim.NewScheduler(), engineConfig(d.v, reg, nil))
		must(mon.AddProperty(catalogProp(property.DefaultParams(), "firewall-basic")))
		d.openAll(mon.HandleEvent)
		d.batch(mon.HandleEvent, 2*o.flows(), batchSpans{})
		n0, start := d.handed, time.Now()
		drive(dur, nil, func(uint32) { d.batch(mon.HandleEvent, batchEvents, batchSpans{}) })
		return float64(time.Since(start)) / float64(d.handed-n0)
	}
	off, on := inline(false), inline(true)
	l["core.inline_ns_per_event"] = off
	l["obs.telemetry_ns_per_event"] = on - off

	sharded := func(shards int) float64 {
		d := newSteadyDriver(o.seed, o.flows(), "firewall-basic")
		sm := core.NewShardedMonitor(shards, engineConfig(d.v, obs.NewRegistry(), nil))
		defer sm.Close()
		must(sm.AddProperty(catalogProp(property.DefaultParams(), "firewall-basic")))
		evs := make([]core.Event, 0, batchEvents)
		collect := func(e core.Event) { evs = append(evs, e) }
		d.openAll(collect)
		must(sm.SubmitBatch(evs, nil))
		sm.Barrier()
		n0, start := d.handed, time.Now()
		for time.Since(start) < dur {
			evs = evs[:0]
			d.batch(collect, batchEvents, batchSpans{})
			must(sm.SubmitBatch(evs, nil))
		}
		sm.Barrier()
		return float64(time.Since(start)) / float64(d.handed-n0)
	}
	s1 := sharded(1)
	l["core.sharded1_ns_per_event"] = s1
	l["core.sharded2_ns_per_event"] = sharded(2)
	l["core.hop_ns_per_event"] = s1 - on

	// Record the events the switch emits for the trio stream once, then
	// replay them into an engine carrying one property at a time.
	var recorded []core.Event
	{
		d := &trioDriver{g: newTrioGen(o.seed, o.flows()/2)}
		rig := newTrioRig(nil)
		rig.sw.Observe(func(e core.Event) { recorded = append(recorded, e) })
		for len(recorded) < 1<<17 {
			d.batch(rig, batchEvents, 1)
		}
	}
	for _, name := range trioProps {
		sched := sim.NewScheduler()
		mon := core.NewMonitor(sched, engineConfig(newVerdicts(name), obs.NewRegistry(), nil))
		must(mon.AddProperty(catalogProp(property.DefaultParams(), name)))
		start := time.Now()
		for i := range recorded {
			sched.RunUntil(recorded[i].Time)
			mon.HandleEvent(recorded[i])
		}
		l["core.prop_ns_per_event."+name] = float64(time.Since(start)) / float64(len(recorded))
	}

	// A request and its reply, inline: create + file + arm, then match +
	// unfile + disarm.
	{
		g, ps := newChurnGen(o.seed), newPktSlot()
		sched := sim.NewScheduler()
		pm := property.DefaultParams()
		pm.FirewallWindow = churnWindow
		mon := core.NewMonitor(sched, engineConfig(newVerdicts(churnProps...), obs.NewRegistry(), nil))
		for _, name := range churnProps {
			must(mon.AddProperty(catalogProp(pm, name)))
		}
		var e core.Event
		feed := func(n int) {
			for i := 0; i < n; i++ {
				g.next(&e, &ps)
				sched.RunUntil(e.Time)
				mon.HandleEvent(e)
			}
		}
		feed(churnWarmBatches(o.smoke) * batchEvents)
		start, n := time.Now(), 0
		for time.Since(start) < dur {
			feed(batchEvents)
			n += batchEvents
		}
		l["core.churn_pair_ns"] = 2 * float64(time.Since(start)) / float64(n)
	}
}
