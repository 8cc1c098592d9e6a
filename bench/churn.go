package main

import (
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// churn-timeouts stream constants. Requests and their replies alternate
// in a fixed six-slot round (ping request, ping reply, DHCP request,
// DHCP reply, firewall open, firewall return); a reply answers the
// request made churnDelayRounds earlier, about 500 ms of virtual time at
// the 10 µs gap, which holds ~25k instances and their timers live.
const (
	churnGapNs       = 10_000
	churnDelayRounds = 8333
	churnWithhold    = 200 // one reply in this many never comes: a timeout violation
	churnNoReturn    = 4   // one firewall flow in this many sees no return traffic
	churnBuffers     = 32  // more than the shard queue holds, so the queue is the back-pressure
)

// churnWindow is firewall-timeout's window here: short enough that
// every flow's window lapses within the run (the catalogue default,
// 60 s, is 6M events at this gap).
const churnWindow = time.Second

var churnProps = []string{"ping-reply-within", "dhcp-reply-within", "firewall-timeout"}

// pktSlot is the storage behind one event of a batch: one packet of
// each shape the stream uses, rewritten in place. The engine borrows a
// batch until it calls release and keeps only value copies of what it
// read, so the storage is reused batch after batch.
type pktSlot struct {
	icmp, dhcp, tcp *packet.Packet
}

func newPktSlot() pktSlot {
	var z packet.IPv4
	return pktSlot{
		icmp: packet.NewICMPEcho(macSideA, macSideB, z, z, 0, 0, false),
		dhcp: packet.NewDHCP(macSideA, macSideB, z, z, &packet.DHCPv4{}),
		tcp:  packet.NewTCP(macInternal, macExternal, z, z, 0, 443, 0, nil),
	}
}

// churnGen generates the request/reply stream. Every request is a new
// identity, derived from the round number and the seed.
type churnGen struct {
	pingDst, dhcpSrv             packet.IPv4
	baseA, baseB, xidMix         uint32
	phasePing, phaseDHCP, phaseF uint64

	round    uint64
	slot     int
	now      int64
	pid      uint64
	fwReturn uint64
	// timeouts queues the violations withheld replies will cause, in
	// deadline order; drops holds the wrongful drops of the batch being
	// built. The driver announces both to the reference just before it
	// submits the batch that makes them happen.
	timeouts []vkey
	drops    []vkey
}

func newChurnGen(seed int64) *churnGen {
	rng := sim.NewRand(seed)
	return &churnGen{
		pingDst: packet.IPv4FromUint32(0xc0a80000 | rng.Uint32()&0xffff),
		dhcpSrv: packet.IPv4FromUint32(0xc0a90000 | rng.Uint32()&0xffff),
		baseA:   rng.Uint32() & 0xffffff, baseB: rng.Uint32() & 0xffffff, xidMix: rng.Uint32(),
		phasePing: uint64(rng.Intn(churnWithhold)), phaseDHCP: uint64(rng.Intn(churnWithhold)),
		phaseF: uint64(rng.Intn(churnNoReturn)),
		now:    epochNs,
	}
}

func (g *churnGen) pingSrc(r uint64) packet.IPv4 {
	return packet.IPv4FromUint32(0x0a000000 | (g.baseA+uint32(r))&0xffffff)
}
func (g *churnGen) clientMAC(r uint64) packet.MAC {
	return packet.MACFromUint64(0x020000000000 | r&0xffffffff)
}
func (g *churnGen) fwA(r uint64) packet.IPv4 {
	return packet.IPv4FromUint32(0x0b000000 | (g.baseA+uint32(r))&0xffffff)
}
func (g *churnGen) fwB(r uint64) packet.IPv4 {
	return packet.IPv4FromUint32(0xcb000000 | (g.baseB+uint32(r))&0xffffff)
}

// next fills e with the stream's next event, using ps for its packet.
func (g *churnGen) next(e *core.Event, ps *pktSlot) {
	for !g.fill(e, ps) {
	}
}

// fill tries the current slot of the round and moves on; it reports
// false when that slot has no event (reply withheld, nothing to answer).
func (g *churnGen) fill(e *core.Event, ps *pktSlot) bool {
	slot, r := g.slot, g.round
	if g.slot++; g.slot == 6 {
		g.slot, g.round = 0, g.round+1
	}
	old := r - churnDelayRounds // the round a reply slot answers
	if slot&1 == 1 && r < churnDelayRounds {
		return false
	}
	at := g.now + churnGapNs
	*e = core.Event{Time: time.Unix(0, at), PacketID: core.PacketID(g.pid + 1)}
	switch slot {
	case 0: // ping request
		p := ps.icmp
		p.IPv4.Src, p.IPv4.Dst = g.pingSrc(r), g.pingDst
		p.ICMP.Type, p.ICMP.ID, p.ICMP.Seq = packet.ICMPEchoRequest, uint16(r), uint16(r>>16)
		e.Kind, e.InPort, e.Packet = core.KindArrival, portSideA, p
		if (r+g.phasePing)%churnWithhold == 0 {
			g.timeouts = append(g.timeouts, vkey{0, at + int64(property.DefaultParams().ReplyWindow)})
		}
	case 1: // ping reply
		if (old+g.phasePing)%churnWithhold == 0 {
			return false
		}
		p := ps.icmp
		p.IPv4.Src, p.IPv4.Dst = g.pingDst, g.pingSrc(old)
		p.ICMP.Type, p.ICMP.ID, p.ICMP.Seq = packet.ICMPEchoReply, uint16(old), uint16(old>>16)
		e.Kind, e.InPort, e.OutPort, e.Packet = core.KindEgress, portSideB, portSideA, p
	case 2: // DHCP request
		p := ps.dhcp
		p.Eth.Src, p.Eth.Dst = g.clientMAC(r), packet.BroadcastMAC
		p.IPv4.Src, p.IPv4.Dst = packet.IPv4{}, packet.IPv4{255, 255, 255, 255}
		p.UDP.SrcPort, p.UDP.DstPort = packet.PortDHCPClient, packet.PortDHCPServer
		*p.DHCP = packet.DHCPv4{Op: packet.DHCPBootRequest, Xid: uint32(r) ^ g.xidMix,
			ClientMAC: g.clientMAC(r), MsgType: packet.DHCPRequest}
		e.Kind, e.InPort, e.Packet = core.KindArrival, portSideA, p
		if (r+g.phaseDHCP)%churnWithhold == 0 {
			g.timeouts = append(g.timeouts, vkey{1, at + int64(property.DefaultParams().ReplyWindow)})
		}
	case 3: // DHCP reply
		if (old+g.phaseDHCP)%churnWithhold == 0 {
			return false
		}
		p := ps.dhcp
		p.Eth.Src, p.Eth.Dst = macSideB, g.clientMAC(old)
		p.IPv4.Src, p.IPv4.Dst = g.dhcpSrv, packet.IPv4{255, 255, 255, 255}
		p.UDP.SrcPort, p.UDP.DstPort = packet.PortDHCPServer, packet.PortDHCPClient
		*p.DHCP = packet.DHCPv4{Op: packet.DHCPBootReply, Xid: uint32(old) ^ g.xidMix,
			ClientMAC: g.clientMAC(old), MsgType: packet.DHCPAck, ServerID: g.dhcpSrv, LeaseSecs: 3600,
			YourIP: g.pingSrc(old)}
		e.Kind, e.InPort, e.OutPort, e.Packet = core.KindEgress, portSideB, portSideA, p
	case 4: // firewall flow opens
		p := ps.tcp
		p.Eth.Src, p.Eth.Dst = macInternal, macExternal
		p.IPv4.Src, p.IPv4.Dst = g.fwA(r), g.fwB(r)
		p.TCP.SrcPort, p.TCP.DstPort, p.TCP.Flags = uint16(10000+r%50000), 443, packet.FlagSYN
		e.Kind, e.InPort, e.Packet = core.KindArrival, portInternal, p
	case 5: // firewall return traffic
		if (old+g.phaseF)%churnNoReturn == 0 {
			return false
		}
		p := ps.tcp
		p.Eth.Src, p.Eth.Dst = macExternal, macInternal
		p.IPv4.Src, p.IPv4.Dst = g.fwB(old), g.fwA(old)
		p.TCP.SrcPort, p.TCP.DstPort, p.TCP.Flags = 443, uint16(10000+old%50000), packet.FlagACK
		e.Kind, e.InPort, e.Packet = core.KindEgress, portExternal, p
		if g.fwReturn++; g.fwReturn%churnWithhold == 0 {
			e.Dropped = true // inside the window: a firewall-timeout violation
			g.drops = append(g.drops, vkey{2, at})
		} else {
			e.OutPort = portInternal
		}
	}
	g.now, g.pid = at, g.pid+1
	return true
}

// churnBatch is one borrowed batch: events plus the packets behind them.
type churnBatch struct {
	evs     []core.Event
	slots   []pktSlot
	release func()
}

// churnDriver feeds churnGen batches to a batch sink.
type churnDriver struct {
	g      *churnGen
	v      *verdicts
	free   chan *churnBatch
	spans  *spanRec
	handed uint64
}

func newChurnDriver(seed int64) *churnDriver {
	d := &churnDriver{g: newChurnGen(seed), v: newVerdicts(churnProps...),
		free: make(chan *churnBatch, churnBuffers)} // sized to hold every buffer
	for i := 0; i < churnBuffers; i++ {
		b := &churnBatch{evs: make([]core.Event, batchEvents), slots: make([]pktSlot, batchEvents)}
		for j := range b.slots {
			b.slots[j] = newPktSlot()
		}
		b.release = func() { d.free <- b }
		d.free <- b
	}
	return d
}

// batchSink is what a batch is submitted to: the sharded engine, or a
// null sink for the generator-cost probe.
type batchSink interface {
	SubmitBatch(evs []core.Event, release func()) error
	Tick(t time.Time)
}

type nullBatchSink struct{}

func (nullBatchSink) SubmitBatch(_ []core.Event, release func()) error { release(); return nil }
func (nullBatchSink) Tick(time.Time)                                   {}

// batch builds and submits one batch, announcing first the violations
// it will cause: withheld replies whose deadline the batch's clock
// advance reaches, and its own wrongful drops.
func (d *churnDriver) batch(sink batchSink, batchNo uint32) {
	bs := d.spans.sample(batchNo)
	s := bs.begin(spGen)
	b := <-d.free
	for i := range b.evs {
		d.g.next(&b.evs[i], &b.slots[i])
	}
	last := d.g.now
	now := time.Now().UnixNano()
	for len(d.g.timeouts) > 0 && d.g.timeouts[0].at <= last {
		d.v.expect(d.g.timeouts[0].prop, d.g.timeouts[0].at, now)
		d.g.timeouts = d.g.timeouts[1:]
	}
	for _, k := range d.g.drops {
		d.v.expect(k.prop, k.at, now)
	}
	d.g.drops = d.g.drops[:0]
	bs.end(s, batchEvents)
	s = bs.begin(spSubmit)
	must(sink.SubmitBatch(b.evs, b.release))
	bs.end(s, batchEvents)
	s = bs.begin(spTick)
	sink.Tick(time.Unix(0, last))
	bs.end(s, batchEvents)
	bs.done(batchEvents)
	d.handed += batchEvents
}

func newChurnEngine(v *verdicts, reg *obs.Registry, shards int) *core.ShardedMonitor {
	pm := property.DefaultParams()
	pm.FirewallWindow = churnWindow
	sm := core.NewShardedMonitor(shards, engineConfig(v, reg, nil))
	for _, name := range churnProps {
		must(sm.AddProperty(catalogProp(pm, name)))
	}
	return sm
}

// churnWarmBatches takes the stream past one reply delay and one
// firewall window, so creation, discharge and expiry all run at their
// steady rates before timing starts.
func churnWarmBatches(smoke bool) int {
	if smoke {
		return 300
	}
	return 600
}

// runChurn is the churn-timeouts workload.
func runChurn(o options) outcome {
	out := newOutcome()
	var (
		d      *churnDriver
		sm     *core.ShardedMonitor
		reg    *obs.Registry
		setups []float64
	)
	for o.moreSetups(setups) {
		if sm != nil {
			sm.Close()
		}
		d = newChurnDriver(o.seed)
		t0 := time.Now()
		reg = obs.NewRegistry()
		sm = newChurnEngine(d.v, reg, 1)
		for b := 0; b < churnWarmBatches(o.smoke); b++ {
			d.batch(sm, 1)
		}
		sm.Barrier()
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sm.Close()
	d.spans = o.spans
	d.v.resetLatency()

	// Window rates come from the engine's own applied-events counter,
	// read without a barrier.
	ph := newPhase(o, d.v, reg, func() uint64 {
		n, _ := sumSeries(reg.Snapshot(), "switchmon_monitor_events_total", false)
		return n
	})
	handed0 := d.handed
	engine0, _ := applyNs(reg)
	drive(o.duration(1), ph, func(batchNo uint32) { d.batch(sm, batchNo) })
	if o.spans != nil {
		s := o.spans.begin(spBarrier, -1, 0)
		sm.Barrier()
		o.spans.end(s, 0)
	} else {
		sm.Barrier()
	}
	events, st := ph.stop(), sm.Stats()
	out.attempted = d.handed - handed0
	out.failed = st.ShedEvents + st.DroppedEvents
	if events < out.attempted {
		out.failed += out.attempted - events
	}
	engine1, _ := applyNs(reg)
	out.engineNsPerEvent = float64(engine1-engine0) / float64(out.attempted)
	out.verdictErrors = d.v.errors(sm.Ledger(), d.g.now)
	d = nil
	ph.report(&out, st, sm.Ledger(), setups)
	return out
}
