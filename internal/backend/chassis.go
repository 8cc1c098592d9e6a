package backend

import (
	"switchmon/internal/core"
	"switchmon/internal/dataplane"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// atom is the switch state primitive a row pays its transitions on — the
// design question Sec. 3.3 raises and Packet Transactions names: which
// state atom does the switch offer?
type atom uint8

// The zero atom is none: a controller-hosted row keeps no switch state.
const (
	// flowTable: a transition is a flow-mod on the switch's sorted flow
	// table, the slow path Sec. 3.3 says cannot run at line rate.
	flowTable atom = iota + 1
	// registers: a transition is one register-file write.
	registers
)

// row is one Table 2 approach that runs the core engine: its capability
// vector, the provenance its engine keeps, and the state atom it pays.
type row struct {
	caps  Capabilities
	prov  core.ProvLevel
	state atom
}

// stateArray is the register array register rows write their state into.
const stateArray = "monitor-state"

// Chassis runs one row: a core.Monitor behind the visibility the row's
// capability vector grants, with every state transition paid on a
// dataplane.Switch's own flow table or register file.
type Chassis struct {
	row    row
	mon    *core.Monitor
	sw     *dataplane.Switch
	nViol  uint64
	stages int
	// paid counts the transitions paid on the switch so far; newest and
	// oldest are the cookies of the last rule added and the last removed.
	paid, newest, oldest               uint64
	redirectedPackets, redirectedBytes uint64
}

func newChassis(sched *sim.Scheduler, r row) *Chassis {
	c := &Chassis{row: r, sw: dataplane.New(r.caps.Name, sched, 1)}
	if r.state == registers {
		c.sw.Registers().Define(stateArray, 4096)
	}
	c.mon = core.NewMonitor(sched, core.Config{
		Provenance:  r.prov,
		OnViolation: func(*core.Violation) { c.nViol++ },
	})
	return c
}

// install enforces caps, compiles p with add, and keeps *stages at the
// deepest installed property's stage count: the pipeline depth of a
// switch that gives each stage one table.
func install(caps Capabilities, add func(*property.Property) error, p *property.Property, stages *int) error {
	if err := checkSupport(caps, p); err != nil {
		return err
	}
	if err := add(p); err != nil {
		return err
	}
	*stages = max(*stages, len(p.Stages))
	return nil
}

// transitionCount is the number of state transitions an engine has made.
func transitionCount(st core.Stats) uint64 {
	return st.Created + st.Advanced + st.Discharged + st.Expired + st.Refreshed
}

// Name implements Backend.
func (c *Chassis) Name() string { return c.row.caps.Name }

// Capabilities implements Backend.
func (c *Chassis) Capabilities() Capabilities { return c.row.caps }

// AddProperty implements Backend with capability enforcement. A
// controller-hosted row accepts any valid property — the controller is a
// general computer — and builds no switch pipeline: its price is paid at
// runtime, in redirected packets and blindness to forwarding decisions.
func (c *Chassis) AddProperty(p *property.Property) error {
	if ControllerHosted(c.row.caps) {
		return c.mon.AddProperty(p)
	}
	return install(c.row.caps, c.mon.AddProperty, p, &c.stages)
}

// sees reports whether the row's architecture observes e: egress events
// only with egress visibility, dropped ones only with drop visibility too,
// and out-of-band events unless the row has none.
func (c *Chassis) sees(e core.Event) bool {
	caps := c.row.caps
	switch e.Kind {
	case core.KindEgress:
		return caps.EgressVisibility == Yes && (!e.Dropped || caps.DropVisibility == Yes)
	case core.KindOutOfBand:
		return caps.OutOfBand != No
	}
	return true
}

// HandleEvent implements Backend: count what a controller-hosted row
// redirects, filter by visibility, and pay the engine's new transitions.
func (c *Chassis) HandleEvent(e core.Event) {
	if ControllerHosted(c.row.caps) && e.Kind == core.KindArrival && e.Packet != nil {
		c.redirectedPackets++
		if data, err := e.Packet.Encode(); err == nil {
			c.redirectedBytes += uint64(len(data))
		}
	}
	if !c.sees(e) {
		return
	}
	c.mon.HandleEvent(e)
	if n := transitionCount(c.mon.Stats()); n > c.paid {
		live := c.mon.ActiveInstances()
		for ; c.paid < n; c.paid++ {
			c.pay(live)
		}
	}
}

// pay spends one transition on the switch. A flow-table row adds a rule
// at an arbitrary priority, then removes the oldest rules until the table
// holds one more rule than there are live instances; a register row makes
// one write.
func (c *Chassis) pay(live int) {
	switch c.row.state {
	case flowTable:
		t := c.sw.Table(0)
		c.newest++
		t.Add(&dataplane.Rule{Priority: int(c.newest * 2654435761 % 65536), Cookie: c.newest})
		for t.Len() > live+1 {
			c.oldest++
			t.RemoveByCookie(c.oldest)
		}
	case registers:
		rf := c.sw.Registers()
		rf.Write(stateArray, rf.IndexOf(stateArray, rf.Ops*2654435761), rf.Ops)
	}
}

// Violations implements Backend.
func (c *Chassis) Violations() uint64 { return c.nViol }

// PipelineDepth implements Backend: the stage count of the deepest
// property, 0 for a controller-hosted row.
func (c *Chassis) PipelineDepth() int { return c.stages }

// StateUpdateCost implements Backend: the switch's rule modifications for
// a flow-table row, its register operations for a register row.
func (c *Chassis) StateUpdateCost() uint64 {
	switch c.row.state {
	case flowTable:
		return c.sw.Stats().RuleMods
	case registers:
		return c.sw.Registers().Ops
	}
	return 0
}

// RedirectedBytes reports the bytes a controller-hosted row shipped to
// the external monitor — the E7 quantity.
func (c *Chassis) RedirectedBytes() uint64 { return c.redirectedBytes }

// RedirectedPackets reports the packets a controller-hosted row shipped to
// the external monitor.
func (c *Chassis) RedirectedPackets() uint64 { return c.redirectedPackets }
