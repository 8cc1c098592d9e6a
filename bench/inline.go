package main

import (
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// batchEvents is how many events the single-threaded loops hand over
// between clock reads, and the batch size of SubmitBatch workloads.
const batchEvents = 256

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func decodeAll(frames [][]byte) []*packet.Packet {
	out := make([]*packet.Packet, len(frames))
	for i, f := range frames {
		out[i] = mustDecode(f)
	}
	return out
}

// steadyDriver feeds the flowGen stream, as pre-built events over
// pre-decoded packets, to a sink one event at a time: the
// inline-steady loop, also reused by the core/obs probes.
type steadyDriver struct {
	g          *flowGen
	v          *verdicts
	pOut, pRet []*packet.Packet
	handed     uint64
}

func newSteadyDriver(seed int64, flows int, props ...string) *steadyDriver {
	g := newFlowGen(seed, flows, 1000, false)
	return &steadyDriver{g: g, v: newVerdicts(props...), pOut: decodeAll(g.out), pRet: decodeAll(g.ret)}
}

// openAll establishes the flow population.
func (d *steadyDriver) openAll(sink func(core.Event)) {
	var r rec
	for f := range d.g.out {
		d.g.open(f, &r)
		sink(r.event(d.pOut[f]))
	}
}

// batch hands one batch to sink, with a span (when bs samples this
// batch) around every generator step and every call into the sink. A
// dropped return on an open flow is a firewall-basic violation
// (property 0), announced before hand-over.
func (d *steadyDriver) batch(sink func(core.Event), n int, bs batchSpans) {
	var r rec
	for i := 0; i < n; i++ {
		s := bs.begin(spGen)
		d.g.next(&r)
		p := d.pRet
		if r.kind == recOut {
			p = d.pOut
		}
		e := r.event(p[r.flow])
		bs.end(s, 1)
		if r.dropped {
			d.v.expect(0, r.at, time.Now().UnixNano())
		}
		s = bs.begin(spHandle)
		sink(e)
		bs.end(s, 1)
	}
	bs.done(n)
	d.handed += uint64(n)
}

// runInline is the inline-steady workload: one goroutine, pre-built
// events straight into core.Monitor.HandleEvent, firewall-basic over a
// fixed population of open flows.
func runInline(o options) outcome {
	out := newOutcome()
	var (
		d      *steadyDriver
		mon    *core.Monitor
		reg    *obs.Registry
		setups []float64
	)
	for o.moreSetups(setups) {
		d = newSteadyDriver(o.seed, o.flows(), "firewall-basic")
		t0 := time.Now()
		reg = obs.NewRegistry()
		mon = core.NewMonitor(sim.NewScheduler(), engineConfig(d.v, reg, nil))
		must(mon.AddProperty(catalogProp(property.DefaultParams(), "firewall-basic")))
		d.openAll(mon.HandleEvent)
		setups = append(setups, time.Since(t0).Seconds())
	}
	d.batch(mon.HandleEvent, 2*o.flows(), batchSpans{}) // warm the return path
	d.v.resetLatency()

	handed0 := d.handed
	ph := newPhase(o, d.v, reg, func() uint64 { return mon.Stats().Events })
	drive(o.duration(1), ph, func(batchNo uint32) {
		d.batch(mon.HandleEvent, batchEvents, o.spans.sample(batchNo))
	})
	events, st := ph.stop(), mon.Stats()
	out.attempted = d.handed - handed0
	out.failed = out.attempted - events + st.DroppedEvents
	out.verdictErrors = d.v.errors(mon.Ledger(), d.g.now)
	d = nil
	ph.report(&out, st, mon.Ledger(), setups)
	return out
}
