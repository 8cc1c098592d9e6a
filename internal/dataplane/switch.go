package dataplane

import (
	"fmt"
	"sort"

	"switchmon/internal/core"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/packet"
	"switchmon/internal/sim"
)

// MissPolicy says what table 0 does with a packet no rule matches.
type MissPolicy uint8

// Miss policies.
const (
	// MissDrop silently drops unmatched packets (OpenFlow default).
	MissDrop MissPolicy = iota
	// MissController punts unmatched packets to the controller.
	MissController
	// MissFlood floods unmatched packets (dumb-switch behaviour).
	MissFlood
)

// Controller receives packet-in events from a switch.
type Controller interface {
	// PacketIn is called synchronously with the offending packet. The
	// controller may install rules, send packets (SendPacketAs to keep
	// the packet's identity), or explicitly drop (DropPacketAs).
	PacketIn(sw *Switch, inPort PortNo, pid core.PacketID, p *packet.Packet)
}

// Stats counts switch activity.
type Stats struct {
	PacketsIn     uint64
	PacketsOut    uint64
	PacketsFlood  uint64
	PacketsDrop   uint64
	PacketIns     uint64
	PacketInBytes uint64
	RuleMods      uint64
	RuleExpiries  uint64
	// EgressDrops counts per-port copies discarded by the egress
	// pipeline.
	EgressDrops uint64
}

// port is one switch port.
type port struct {
	no      PortNo
	up      bool
	deliver func(*packet.Packet)
}

// Switch is the software dataplane. It is single-threaded: the simulation
// drives it from one goroutine.
type Switch struct {
	name       string
	dpid       uint64
	sched      *sim.Scheduler
	tables     []*Table
	ports      map[PortNo]*port
	portOrder  []PortNo
	regs       *RegisterFile
	controller Controller
	miss       MissPolicy
	observers  []func(core.Event)
	nextPID    core.PacketID
	stats      Stats
	// egressStart, when > 0, marks tables[egressStart:] as the egress
	// pipeline (OpenFlow 1.5-style): run once per output port after the
	// ingress decision, with the output port matchable. Ingress-dropped
	// packets never enter it — the paper's Sec. 3.2 gap, reproduced.
	egressStart int
	// mx holds the telemetry handles (nil until SetMetrics).
	mx *switchMetrics
	// tracer, when non-nil, samples emitted events for end-to-end
	// tracing (nil-safe: the unsampled path is one hash per event).
	tracer *tracer.Tracer
	// punted is the buffer packetIn encodes into to count PacketInBytes.
	punted []byte
}

// New creates a switch with the given number of flow tables.
func New(name string, sched *sim.Scheduler, numTables int) *Switch {
	if numTables < 1 {
		numTables = 1
	}
	sw := &Switch{
		name:  name,
		sched: sched,
		ports: map[PortNo]*port{},
		regs:  NewRegisterFile(),
		mx:    &switchMetrics{},
	}
	for i := 0; i < numTables; i++ {
		sw.tables = append(sw.tables, &Table{sw: sw, index: i})
	}
	return sw
}

// Name returns the switch name.
func (sw *Switch) Name() string { return sw.name }

// SetDPID assigns the datapath id stamped on the switch's events; use it
// when one monitor observes several switches.
func (sw *Switch) SetDPID(id uint64) { sw.dpid = id }

// DPID returns the datapath id.
func (sw *Switch) DPID() uint64 { return sw.dpid }

// Scheduler returns the switch's scheduler (shared with the simulation).
func (sw *Switch) Scheduler() *sim.Scheduler { return sw.sched }

// Stats returns a snapshot of the activity counters.
func (sw *Switch) Stats() Stats { return sw.stats }

// Table returns flow table i, growing the pipeline if needed (Varanus
// unrolls instances into fresh tables).
func (sw *Switch) Table(i int) *Table {
	for i >= len(sw.tables) {
		sw.tables = append(sw.tables, &Table{sw: sw, index: len(sw.tables)})
	}
	return sw.tables[i]
}

// NumTables reports the pipeline depth.
func (sw *Switch) NumTables() int { return len(sw.tables) }

// Registers returns the switch's register file.
func (sw *Switch) Registers() *RegisterFile { return sw.regs }

// SetController attaches a controller and the table-0 miss policy.
func (sw *Switch) SetController(c Controller, miss MissPolicy) {
	sw.controller = c
	sw.miss = miss
}

// SetMissPolicy sets the table-0 miss policy without a controller.
func (sw *Switch) SetMissPolicy(miss MissPolicy) { sw.miss = miss }

// SetEgressStart designates tables[start:] as the egress pipeline. The
// ingress pipeline (goto chains included) is confined to tables[:start].
func (sw *Switch) SetEgressStart(start int) {
	sw.Table(start) // ensure it exists
	sw.egressStart = start
}

// AddPort attaches a port. deliver is invoked for packets emitted on the
// port; nil is allowed (a sink).
func (sw *Switch) AddPort(no PortNo, deliver func(*packet.Packet)) {
	if no == 0 {
		panic("dataplane: port 0 is reserved")
	}
	if _, dup := sw.ports[no]; dup {
		panic(fmt.Sprintf("dataplane: duplicate port %d", no))
	}
	sw.ports[no] = &port{no: no, up: true, deliver: deliver}
	sw.portOrder = append(sw.portOrder, no)
	sort.Slice(sw.portOrder, func(i, j int) bool { return sw.portOrder[i] < sw.portOrder[j] })
}

// Observe subscribes to the switch's event stream (arrivals, egress
// decisions including drops, out-of-band events).
func (sw *Switch) Observe(fn func(core.Event)) { sw.observers = append(sw.observers, fn) }

// SetTracer attaches an event tracer: every emitted event runs the
// deterministic 1-in-N sampler, and a sampled event carries its span —
// stamped ingress here, at the instant of emission — to every observer
// (local engine and exporter alike).
func (sw *Switch) SetTracer(tr *tracer.Tracer) { sw.tracer = tr }

func (sw *Switch) emit(e core.Event) {
	if sp := sw.tracer.Sample(e.SwitchID, uint64(e.PacketID), uint8(e.Kind)); sp != nil {
		sp.Stamp(tracer.StageIngress)
		e.Trace = sp
	}
	for _, fn := range sw.observers {
		fn(e)
	}
}

// SetPortUp changes a port's link state, emitting the out-of-band event
// switch programs and monitors can react to (Sec. 2.4).
func (sw *Switch) SetPortUp(no PortNo, up bool) {
	pt := sw.ports[no]
	if pt == nil || pt.up == up {
		return
	}
	pt.up = up
	kind := packet.OOBLinkUp
	if !up {
		kind = packet.OOBLinkDown
	}
	sw.emit(core.Event{
		Kind: core.KindOutOfBand, Time: sw.sched.Now(), SwitchID: sw.dpid,
		OOBKind: kind, OOBPort: uint64(no),
	})
}

// PortUp reports a port's link state.
func (sw *Switch) PortUp(no PortNo) bool {
	pt := sw.ports[no]
	return pt != nil && pt.up
}

// Inject runs one packet through the switch: arrival event, pipeline,
// egress events (one per output port, or one drop event), and delivery.
// It never modifies p: the pipeline copies on write, so unless a rule
// rewrites a field the arrival event, the egress events and the delivered
// packet all share p. It returns the packet's ID.
func (sw *Switch) Inject(inPort PortNo, p *packet.Packet) core.PacketID {
	pt := sw.ports[inPort]
	if pt == nil || !pt.up {
		return 0 // packets do not arrive on absent or downed ports
	}
	sw.nextPID++
	pid := sw.nextPID
	sw.stats.PacketsIn++
	sw.mx.packetsIn.Inc()
	now := sw.sched.Now()
	sw.emit(core.Event{
		Kind: core.KindArrival, Time: now, PacketID: pid, SwitchID: sw.dpid,
		Packet: p, InPort: uint64(inPort),
	})
	work, outs, verdict := sw.runPipeline(p, inPort)
	switch verdict {
	case verdictPunted:
		// The controller owns the packet now; it will emit egress events
		// via SendPacketAs / DropPacketAs.
	case verdictDropped:
		sw.emitDrop(pid, work, inPort)
	case verdictForward:
		if len(outs) == 0 {
			sw.emitDrop(pid, work, inPort)
			return pid
		}
		sw.emitOutputs(pid, work, inPort, outs)
	}
	return pid
}

type verdict uint8

const (
	verdictForward verdict = iota
	verdictDropped
	verdictPunted
)

// maxPipelineSteps caps goto chains so a mis-programmed pipeline cannot
// loop forever. Varanus legitimately builds very deep pipelines, so the
// cap is generous.
const maxPipelineSteps = 1 << 16

// runPipeline executes the match-action pipeline over p and returns the
// packet it ended with. It copies on write: the first SetField clones, and
// so does the first SetField after a packet-in, so neither p nor a packet
// the controller was handed is ever modified.
func (sw *Switch) runPipeline(p *packet.Packet, inPort PortNo) (*packet.Packet, []PortNo, verdict) {
	var outs []PortNo
	work, owned := p, false
	ti := 0
	limit := len(sw.tables)
	if sw.egressStart > 0 && sw.egressStart < limit {
		limit = sw.egressStart
	}
	for steps := 0; steps < maxPipelineSteps; steps++ {
		if ti >= limit {
			break
		}
		table := sw.tables[ti]
		rule := table.lookup(work, inPort)
		if rule == nil {
			sw.mx.tableMiss(ti)
			if ti == 0 && len(outs) == 0 {
				switch sw.miss {
				case MissController:
					sw.packetIn(inPort, work)
					return work, nil, verdictPunted
				case MissFlood:
					return work, sw.floodPorts(inPort), verdictForward
				}
			}
			break
		}
		table.hit(rule, 1)
		next := -1
		for _, a := range rule.Actions {
			switch a.Kind {
			case ActOutput:
				outs = append(outs, a.Port)
			case ActFlood:
				outs = append(outs, sw.floodPorts(inPort)...)
			case ActDrop:
				return work, nil, verdictDropped
			case ActSetField:
				if !owned {
					work, owned = work.Clone(), true
				}
				if err := work.SetField(a.Field, a.Value); err != nil {
					// A rewrite on a packet lacking the layer acts as a
					// no-op drop: the rule was installed for a different
					// traffic class.
					return work, nil, verdictDropped
				}
			case ActController:
				sw.packetIn(inPort, work)
				owned = false // the controller may keep it
			case ActLearn:
				sw.applyLearn(a.Learn, work, inPort)
			case ActGoto:
				next = a.Table
			}
		}
		if next < 0 {
			break
		}
		ti = next
	}
	return work, outs, verdictForward
}

// floodPorts lists all up ports except the ingress port.
func (sw *Switch) floodPorts(inPort PortNo) []PortNo {
	var outs []PortNo
	for _, no := range sw.portOrder {
		if no == inPort {
			continue
		}
		if sw.ports[no].up {
			outs = append(outs, no)
		}
	}
	return outs
}

// packetIn punts to the controller, counting redirected bytes — the
// external-monitoring volume cost of Sec. 1 — by encoding into the
// switch's reused buffer.
func (sw *Switch) packetIn(inPort PortNo, p *packet.Packet) {
	sw.stats.PacketIns++
	sw.mx.packetIns.Inc()
	if data, err := p.AppendEncode(sw.punted[:0]); err == nil {
		sw.stats.PacketInBytes += uint64(len(data))
		sw.punted = data
	}
	if sw.controller != nil {
		sw.controller.PacketIn(sw, inPort, sw.nextPID, p)
	}
}

// applyLearn installs the rule a learn action describes, instantiated
// from the current packet.
func (sw *Switch) applyLearn(spec *LearnSpec, p *packet.Packet, inPort PortNo) {
	rule := &Rule{
		Priority:    spec.Priority,
		IdleTimeout: spec.IdleTimeout,
		HardTimeout: spec.HardTimeout,
		Actions:     append([]Action(nil), spec.Actions...),
	}
	for _, lm := range spec.Matches {
		val := lm.Value
		if lm.FromField != packet.FieldInvalid {
			v, ok := p.Field(lm.FromField)
			if !ok {
				return // cannot instantiate: packet lacks the source field
			}
			val = v
		}
		rule.Match.Fields = append(rule.Match.Fields, FieldMatch{Field: lm.DstField, Value: val})
	}
	if spec.OutputFromInPort {
		rule.Actions = append(rule.Actions, Output(inPort))
	}
	// Open vSwitch learn semantics: re-learning an existing rule replaces
	// it (refreshing its timeouts) instead of stacking duplicates.
	table := sw.Table(spec.Table)
	for _, existing := range table.Rules() {
		if existing.Priority == rule.Priority && matchEqual(existing.Match, rule.Match) {
			table.Remove(existing)
			break
		}
	}
	table.Add(rule)
	sw.mx.learns.Inc()
}

// matchEqual compares two matches structurally.
func matchEqual(a, b Match) bool {
	if a.InPort != b.InPort || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	return true
}

// emitOutputs emits egress events and delivers the packet.
func (sw *Switch) emitOutputs(pid core.PacketID, work *packet.Packet, inPort PortNo, outs []PortNo) {
	// Deduplicate output ports while preserving order.
	seen := map[PortNo]bool{}
	uniq := outs[:0]
	for _, o := range outs {
		if !seen[o] {
			seen[o] = true
			uniq = append(uniq, o)
		}
	}
	multi := len(uniq) > 1
	now := sw.sched.Now()
	for _, o := range uniq {
		copyOut := work
		if sw.egressStart > 0 {
			var dropped bool
			copyOut, dropped = sw.runEgress(work, inPort, o)
			if dropped {
				sw.stats.EgressDrops++
				sw.mx.egressDrops.Inc()
				sw.emit(core.Event{
					Kind: core.KindEgress, Time: now, PacketID: pid, SwitchID: sw.dpid,
					Packet: copyOut, InPort: uint64(inPort), Dropped: true,
				})
				continue
			}
		}
		sw.stats.PacketsOut++
		sw.mx.packetsOut.Inc()
		if multi {
			sw.stats.PacketsFlood++
			sw.mx.packetsFlood.Inc()
		}
		sw.emit(core.Event{
			Kind: core.KindEgress, Time: now, PacketID: pid, SwitchID: sw.dpid,
			Packet: copyOut, InPort: uint64(inPort), OutPort: uint64(o),
			Multicast: multi,
		})
		if pt := sw.ports[o]; pt != nil && pt.up && pt.deliver != nil {
			pt.deliver(copyOut)
		}
	}
}

// runEgress executes the egress pipeline for one output-port copy,
// returning the (possibly rewritten) copy and whether it was discarded.
// Supported egress actions: SetField, Drop, Goto (within the egress
// range); anything else is ignored.
func (sw *Switch) runEgress(work *packet.Packet, inPort, outPort PortNo) (*packet.Packet, bool) {
	copyOut := work
	cloned := false
	ti := sw.egressStart
	for steps := 0; steps < maxPipelineSteps; steps++ {
		if ti >= len(sw.tables) {
			break
		}
		var hitRule *Rule
		for _, r := range sw.tables[ti].rules {
			if r.Match.MatchesEgress(copyOut, inPort, outPort) {
				hitRule = r
				break
			}
		}
		if hitRule == nil {
			sw.mx.tableMiss(ti)
			break
		}
		sw.tables[ti].hit(hitRule, 1)
		next := -1
		for _, a := range hitRule.Actions {
			switch a.Kind {
			case ActDrop:
				return copyOut, true
			case ActSetField:
				if !cloned {
					copyOut = work.Clone()
					cloned = true
				}
				if err := copyOut.SetField(a.Field, a.Value); err != nil {
					return copyOut, true
				}
			case ActGoto:
				if a.Table > ti {
					next = a.Table
				}
			}
		}
		if next < 0 {
			break
		}
		ti = next
	}
	return copyOut, false
}

func (sw *Switch) emitDrop(pid core.PacketID, work *packet.Packet, inPort PortNo) {
	sw.stats.PacketsDrop++
	sw.mx.packetsDrop.Inc()
	sw.emit(core.Event{
		Kind: core.KindEgress, Time: sw.sched.Now(), PacketID: pid, SwitchID: sw.dpid,
		Packet: work, InPort: uint64(inPort), Dropped: true,
	})
}

// SendPacket emits a switch-originated packet (e.g. a proxy's ARP reply)
// on a port, with a fresh packet identity.
func (sw *Switch) SendPacket(out PortNo, p *packet.Packet) core.PacketID {
	sw.nextPID++
	sw.emitOutputs(sw.nextPID, p, 0, []PortNo{out})
	return sw.nextPID
}

// SendPacketAs emits a packet under an existing identity — the
// controller's way to resume a punted packet without severing the
// arrival/egress correlation (Feature 5).
func (sw *Switch) SendPacketAs(pid core.PacketID, inPort PortNo, outs []PortNo, p *packet.Packet) {
	sw.emitOutputs(pid, p, inPort, outs)
}

// FloodPacketAs floods a punted packet under its original identity.
func (sw *Switch) FloodPacketAs(pid core.PacketID, inPort PortNo, p *packet.Packet) {
	sw.emitOutputs(pid, p, inPort, sw.floodPorts(inPort))
}

// DropPacketAs records the controller's decision to drop a punted packet,
// keeping the drop observable to monitors.
func (sw *Switch) DropPacketAs(pid core.PacketID, inPort PortNo, p *packet.Packet) {
	sw.emitDrop(pid, p, inPort)
}
