package main

import (
	"time"

	"switchmon/internal/apps"
	"switchmon/internal/core"
	"switchmon/internal/dataplane"
	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// onswitch-trio stream constants. A flow's episode is one SYN out,
// trioReturns returns, and for one episode in trioCloseEvery a FIN from
// the external side; the firewall app wrongfully drops every
// trioDropEvery-th admissible return.
const (
	trioReturns    = 8
	trioCloseEvery = 4
	trioDropEvery  = 500
	// trioCycle is the virtual time one pass over all flows takes: longer
	// than the 60 s firewall window, so a flow's windowed instances have
	// lapsed (timers fired) by the time its next episode re-creates them.
	trioCycle = 80 * time.Second
)

var trioProps = []string{"firewall-basic", "firewall-timeout", "firewall-until-close"}

// trioGen generates the episode stream and predicts, from the firewall
// app's documented policy alone, which returns it will drop.
type trioGen struct {
	syn, ack, fin [][]byte
	order         []int32
	closePhase    uint64

	pos      int
	step     int // 0 SYN, 1..trioReturns returns, trioReturns+1 FIN
	episodes uint64
	returns  uint64 // admissible returns so far; every return in this stream is
	now      int64
	pid      uint64
	gapNs    int64
}

func newTrioGen(seed int64, flows int) *trioGen {
	rng := sim.NewRand(seed)
	baseA, baseB := rng.Uint32()&0xffffff, rng.Uint32()&0xffffff
	g := &trioGen{closePhase: uint64(rng.Intn(trioCloseEvery)), now: epochNs,
		gapNs: int64(trioCycle) / int64(flows*(trioReturns+1))}
	for f := 0; f < flows; f++ {
		a := packet.IPv4FromUint32(0x0a000000 | (baseA+uint32(f))&0xffffff)
		b := packet.IPv4FromUint32(0xcb000000 | (baseB+uint32(f))&0xffffff)
		port := uint16(10000 + rng.Intn(50000))
		g.syn = append(g.syn, mustEncode(packet.NewTCP(macInternal, macExternal, a, b, port, 443, packet.FlagSYN, nil)))
		g.ack = append(g.ack, mustEncode(packet.NewTCP(macExternal, macInternal, b, a, 443, port, packet.FlagACK, nil)))
		g.fin = append(g.fin, mustEncode(packet.NewTCP(macExternal, macInternal, b, a, 443, port, packet.FlagFIN|packet.FlagACK, nil)))
	}
	for _, f := range rng.Perm(flows) {
		g.order = append(g.order, int32(f))
	}
	return g
}

// next fills r with the next frame to inject. r.dropped is the
// prediction that the firewall app will drop it wrongfully.
func (g *trioGen) next(r *rec) {
	g.now += g.gapNs
	g.pid++
	f := g.order[g.pos]
	*r = rec{flow: f, at: g.now, pid: g.pid}
	closing := (g.episodes+g.closePhase)%trioCloseEvery == 0
	switch {
	case g.step == 0:
		r.kind, r.frame = recOut, g.syn[f]
	case g.step <= trioReturns:
		r.kind, r.frame = recRet, g.ack[f]
	default:
		r.kind, r.frame = recFin, g.fin[f]
	}
	if r.kind != recOut {
		g.returns++
		r.dropped = g.returns%trioDropEvery == 0
	}
	if g.step++; g.step > trioReturns+1 || (g.step > trioReturns && !closing) {
		g.step = 0
		g.episodes++
		if g.pos++; g.pos == len(g.order) {
			g.pos = 0
		}
	}
}

// trioRig is the switch with the firewall app on it and, optionally, an
// inline monitor observing its event stream.
type trioRig struct {
	sched *sim.Scheduler
	sw    *dataplane.Switch
	mon   *core.Monitor
	reg   *obs.Registry
	// events counts what the switch emitted, monitor or not.
	events uint64
	// Traced pass: the sampled batch being injected and the Inject span
	// in progress, parent of the HandleEvent spans the observer records.
	spans    *spanRec
	bs       batchSpans
	inInject int32
}

// newTrioRig builds the switch and app; with v non-nil it attaches the
// monitor carrying the three firewall properties.
func newTrioRig(v *verdicts) *trioRig {
	rig := &trioRig{sched: sim.NewScheduler()}
	rig.sw = dataplane.New("s1", rig.sched, 1)
	rig.sw.AddPort(portInternal, nil)
	rig.sw.AddPort(portExternal, nil)
	pm := property.DefaultParams()
	apps.NewFirewall(rig.sw, portInternal, portExternal, pm.FirewallWindow,
		apps.FirewallFaults{DropValidReturnEvery: trioDropEvery})
	if v == nil {
		rig.sw.Observe(func(core.Event) { rig.events++ })
		return rig
	}
	rig.reg = obs.NewRegistry()
	rig.mon = core.NewMonitor(rig.sched, engineConfig(v, rig.reg, nil))
	for _, name := range trioProps {
		must(rig.mon.AddProperty(catalogProp(pm, name)))
	}
	rig.sw.Observe(rig.observe)
	return rig
}

func (rig *trioRig) observe(e core.Event) {
	rig.events++
	s := rig.bs.beginUnder(spHandle, rig.inInject)
	rig.mon.HandleEvent(e)
	rig.bs.end(s, 1)
}

// inject advances the virtual clock to the frame's time (firing due
// monitor timers), decodes the frame and runs it through the switch,
// each under a span when the batch is sampled.
func (rig *trioRig) inject(r *rec) {
	bs := rig.bs
	s := bs.begin(spTimers)
	rig.sched.RunUntil(time.Unix(0, r.at))
	bs.end(s, 0)
	port := dataplane.PortNo(portExternal)
	if r.kind == recOut {
		port = portInternal
	}
	s = bs.begin(spDecode)
	p := mustDecode(r.frame)
	bs.end(s, 0)
	rig.inInject = bs.begin(spInject)
	rig.sw.Inject(port, p)
	bs.end(rig.inInject, 0)
}

// trioDriver feeds trioGen frames to a rig.
type trioDriver struct {
	g       *trioGen
	v       *verdicts
	packets uint64
}

// announce tells the reference what a predicted wrongful drop will
// cause. The episode's SYN (re)created all three instances, so the
// drop violates all three — except that a FIN's own arrival discharges
// firewall-until-close before its egress-drop event is seen.
func (d *trioDriver) announce(r *rec, startWall int64) {
	d.v.expect(0, r.at, startWall)
	d.v.expect(1, r.at, startWall)
	if r.kind != recFin {
		d.v.expect(2, r.at, startWall)
	}
}

func (d *trioDriver) batch(rig *trioRig, n int, batchNo uint32) {
	var r rec
	rig.bs = rig.spans.sample(batchNo)
	ev0 := rig.events
	for i := 0; i < n; i++ {
		s := rig.bs.begin(spGen)
		d.g.next(&r)
		rig.bs.end(s, 0)
		if r.dropped && d.v != nil {
			d.announce(&r, time.Now().UnixNano())
		}
		rig.inject(&r)
	}
	rig.bs.done(int(rig.events - ev0))
	d.packets += uint64(n)
}

// runOnSwitch is the onswitch-trio workload: the switch is the monitor.
func runOnSwitch(o options) outcome {
	out := newOutcome()
	flows := o.flows() / 2
	var (
		d      *trioDriver
		rig    *trioRig
		setups []float64
	)
	for o.moreSetups(setups) {
		d = &trioDriver{g: newTrioGen(o.seed, flows), v: newVerdicts(trioProps...)}
		t0 := time.Now()
		rig = newTrioRig(d.v)
		// One pass over every flow opens the firewall's pinholes and the
		// monitor's instance population.
		for d.g.episodes < uint64(flows) {
			d.batch(rig, 1, 1)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rig.spans = o.spans
	d.v.resetLatency()

	pkts0 := d.packets
	ph := newPhase(o, d.v, rig.reg, func() uint64 { return rig.mon.Stats().Events })
	drive(o.duration(1), ph, func(batchNo uint32) {
		d.batch(rig, batchEvents/2, batchNo) // two events a packet
	})
	events, st := ph.stop(), rig.mon.Stats()
	// Attempted counts events: every injected packet must reach the
	// monitor as an arrival and an egress decision.
	out.attempted = 2 * (d.packets - pkts0)
	out.failed = st.DroppedEvents
	if events < out.attempted {
		out.failed += out.attempted - events
	}
	out.verdictErrors = d.v.errors(rig.mon.Ledger(), d.g.now)
	d = nil
	ph.report(&out, st, rig.mon.Ledger(), setups)
	return out
}
