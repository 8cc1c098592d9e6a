package backend

import (
	"time"

	"switchmon/internal/core"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/varanus"
)

// OpenFlow 1.3 keeps no monitor state on the switch: every candidate
// packet is redirected to an external controller, which runs the monitor
// over arrivals only — it never sees the switch's forwarding decisions,
// so egress- and drop-dependent properties silently lose their
// violations, and the redirect volume (Sec. 1's motivation) is counted.
var openFlow13 = row{caps: Capabilities{
	Name:           "OpenFlow 1.3",
	StateMechanism: controllerOnly,
	UpdateDatapath: "—",
	ProcessingMode: "Inline",
	FieldAccess:    "Fixed",
	// The paper leaves the stateful rows blank: the switch has no general
	// state; the controller can do anything but is not the switch.
	EventHistory:   Blank,
	RelatedEvents:  Blank, // "(1.5 only)" for egress matching
	NegativeMatch:  Yes,
	RuleTimeouts:   Yes,
	TimeoutActions: No,
	SymmetricMatch: Blank,
	WanderingMatch: Blank,
	OutOfBand:      Blank, // the controller does receive port-status messages
	FullProvenance: Blank,
	DropVisibility: No,
	// Egress tables exist only from OF 1.5 and never see drops.
	EgressVisibility: No,
	// OpenFlow counters exist but are read by the controller, not
	// matchable in the pipeline.
	Counting: Blank,
}, prov: core.ProvLimited}

// OpenFlow 1.5 refines the OpenFlow column with egress tables — the
// paper's "(1.5 only)" footnote on identification of related events.
// Egress metadata (output port) becomes matchable, but "dropped packets
// never enter the egress pipeline" (Sec. 3.2), so drop-dependent
// properties remain invisible, and state is still controller-only.
var openFlow15 = row{caps: amend(openFlow13.caps, func(c *Capabilities) {
	c.Name = "OpenFlow 1.5"
	c.RelatedEvents = Yes    // the "(1.5 only)" cell
	c.EgressVisibility = Yes // drops still never enter the egress pipeline
}), prov: core.ProvLimited}

// OpenState's per-flow state-machine tables: fast-path state on fixed key
// fields with optional key inversion (symmetric match), no egress/drop
// visibility, no timeout actions, no out-of-band events, no wandering
// match.
var openState = row{caps: Capabilities{
	Name:             "OpenState",
	StateMechanism:   "State machine",
	UpdateDatapath:   "Fast path",
	ProcessingMode:   "Inline",
	FieldAccess:      "Fixed",
	EventHistory:     Yes,
	RelatedEvents:    Blank,
	NegativeMatch:    Yes,
	RuleTimeouts:     Yes,
	TimeoutActions:   No,
	SymmetricMatch:   Yes,
	WanderingMatch:   No,
	OutOfBand:        No,
	FullProvenance:   No,
	DropVisibility:   No,
	EgressVisibility: No,
	Counting:         Yes,
}, prov: core.ProvNone, state: registers}

// FAST's learn-action encoding of state machines: slow-path state updates
// (flow-table modifications) with hash support, no rule timeouts, no
// egress/drop visibility.
var fastRow = row{caps: Capabilities{
	Name:             "FAST",
	StateMechanism:   "Learn action",
	UpdateDatapath:   "Slow path",
	ProcessingMode:   "Inline",
	FieldAccess:      "Fixed",
	EventHistory:     Yes,
	RelatedEvents:    Blank,
	NegativeMatch:    Yes,
	RuleTimeouts:     No,
	TimeoutActions:   No,
	SymmetricMatch:   Yes,
	WanderingMatch:   No,
	OutOfBand:        No,
	FullProvenance:   No,
	DropVisibility:   No,
	EgressVisibility: No,
	Counting:         Yes,
}, prov: core.ProvNone, state: flowTable}

// POF and P4, the register-based designs: fast-path register state,
// dynamic field access, an egress pipeline (P4 is "unique in considering
// this requirement"), but no timeout actions, no out-of-band events, and
// target-dependent wandering match (blank in the paper, rejected here).
var p4Row = row{caps: Capabilities{
	Name:             "POF and P4",
	StateMechanism:   "Flow registers",
	UpdateDatapath:   "Fast path",
	ProcessingMode:   "",
	FieldAccess:      "Dynamic",
	EventHistory:     Yes,
	RelatedEvents:    Yes,
	NegativeMatch:    Yes,
	RuleTimeouts:     Yes,
	TimeoutActions:   No,
	SymmetricMatch:   Yes,
	WanderingMatch:   Blank,
	OutOfBand:        No,
	FullProvenance:   No,
	DropVisibility:   Yes,
	EgressVisibility: Yes,
	Counting:         Yes,
}, prov: core.ProvNone, state: registers}

// SNAP's one-big-switch global arrays: fast-path array state with rich
// matching but no rule timeouts, no timeout actions, no out-of-band
// events; its compiler hides individual switch behaviour, so egress
// metadata of a particular switch is out of reach.
var snapRow = row{caps: Capabilities{
	Name:             "SNAP",
	StateMechanism:   "Global arrays",
	UpdateDatapath:   "Fast path",
	ProcessingMode:   "",
	FieldAccess:      "Dynamic",
	EventHistory:     Yes,
	RelatedEvents:    Yes,
	NegativeMatch:    Yes,
	RuleTimeouts:     No,
	TimeoutActions:   No,
	SymmetricMatch:   Yes,
	WanderingMatch:   Blank,
	OutOfBand:        No,
	FullProvenance:   No,
	DropVisibility:   No,
	EgressVisibility: No,
	Counting:         Yes,
}, prov: core.ProvNone, state: registers}

// Static Varanus, the paper's Sec 3.3 mitigation: the pipeline is bounded
// to one table per observation stage (constant depth), preserving
// wandering match but sacrificing out-of-band multiple match; state
// updates remain slow-path flow-table modifications.
var staticVaranus = row{caps: amend(varanusCaps, func(c *Capabilities) {
	c.Name = "Static Varanus"
	c.OutOfBand = No
}), prov: core.ProvLimited, state: flowTable}

// The ideal switch the paper argues for: register-speed indexed state,
// full visibility including drops, timeout actions, wandering and
// multiple match, and full provenance — the feature set Sec. 2 derives.
var idealRow = row{caps: Capabilities{
	Name:             "Ideal (this paper)",
	StateMechanism:   "Indexed instances",
	UpdateDatapath:   "Fast path",
	ProcessingMode:   "Inline",
	FieldAccess:      "Dynamic",
	EventHistory:     Yes,
	RelatedEvents:    Yes,
	NegativeMatch:    Yes,
	RuleTimeouts:     Yes,
	TimeoutActions:   Yes,
	SymmetricMatch:   Yes,
	WanderingMatch:   Yes,
	OutOfBand:        Yes,
	FullProvenance:   Yes,
	DropVisibility:   Yes,
	EgressVisibility: Yes,
	Counting:         Yes,
	StickyGuards:     Yes,
}, prov: core.ProvFull, state: registers}

// NewOpenFlow13 builds the controller-only OpenFlow 1.3 backend.
func NewOpenFlow13(sched *sim.Scheduler) *Chassis { return newChassis(sched, openFlow13) }

// NewOpenFlow15 builds the OpenFlow 1.5 backend.
func NewOpenFlow15(sched *sim.Scheduler) *Chassis { return newChassis(sched, openFlow15) }

// NewOpenState builds the OpenState backend.
func NewOpenState(sched *sim.Scheduler) *Chassis { return newChassis(sched, openState) }

// NewFAST builds the FAST backend.
func NewFAST(sched *sim.Scheduler) *Chassis { return newChassis(sched, fastRow) }

// NewP4 builds the POF/P4 backend.
func NewP4(sched *sim.Scheduler) *Chassis { return newChassis(sched, p4Row) }

// NewSNAP builds the SNAP backend.
func NewSNAP(sched *sim.Scheduler) *Chassis { return newChassis(sched, snapRow) }

// NewStaticVaranus builds the bounded-pipeline Varanus variant.
func NewStaticVaranus(sched *sim.Scheduler) *Chassis { return newChassis(sched, staticVaranus) }

// NewIdeal builds the ideal-switch backend.
func NewIdeal(sched *sim.Scheduler) *Chassis { return newChassis(sched, idealRow) }

// varanusCaps is Varanus's vector: the richest feature set of Table 2 —
// timeout actions, wandering match, out-of-band multiple match.
var varanusCaps = Capabilities{
	Name:             "Varanus",
	StateMechanism:   "Recursive learn",
	UpdateDatapath:   "Slow path",
	ProcessingMode:   "Split",
	FieldAccess:      "Fixed",
	EventHistory:     Yes,
	RelatedEvents:    Yes,
	NegativeMatch:    Yes,
	RuleTimeouts:     Yes,
	TimeoutActions:   Yes,
	SymmetricMatch:   Yes,
	WanderingMatch:   Yes,
	OutOfBand:        Yes,
	FullProvenance:   No,
	DropVisibility:   Yes,
	EgressVisibility: Yes,
	Counting:         No,
}

// Varanus runs the paper authors' actual mechanism, reimplemented in
// internal/varanus: each active monitor instance is its own table of
// fully concrete rules, unrolled by a recursive learn step as events
// arrive. The pipeline depth equals the live instance count and every
// unroll writes rules (slow path) — the cost structure of Sec. 3.3.
type Varanus struct {
	m     *varanus.Monitor
	nViol uint64
}

// NewVaranus builds the Varanus backend on the unrolled-table mechanism.
func NewVaranus(sched *sim.Scheduler) *Varanus {
	b := &Varanus{m: varanus.NewMonitor(sched)}
	b.m.OnViolation = func(string, time.Time, string) { b.nViol++ }
	return b
}

// Name implements Backend.
func (b *Varanus) Name() string { return varanusCaps.Name }

// Capabilities implements Backend.
func (b *Varanus) Capabilities() Capabilities { return varanusCaps }

// AddProperty enforces the capability vector, then compiles onto the
// unrolled-table mechanism (which additionally rejects this repository's
// extensions — counting, sticky guards — consistent with the vector).
func (b *Varanus) AddProperty(p *property.Property) error {
	if err := checkSupport(varanusCaps, p); err != nil {
		return err
	}
	return b.m.AddProperty(p)
}

// HandleEvent implements Backend (Varanus sees everything: drops, egress
// metadata, out-of-band events).
func (b *Varanus) HandleEvent(e core.Event) { b.m.HandleEvent(e) }

// Violations implements Backend.
func (b *Varanus) Violations() uint64 { return b.nViol }

// PipelineDepth implements Backend: the live instance-table count.
func (b *Varanus) PipelineDepth() int { return b.m.PipelineDepth() }

// StateUpdateCost implements Backend: concrete rules written by unrolls.
func (b *Varanus) StateUpdateCost() uint64 { return b.m.RuleInstalls }

// amend returns c with edit applied: a column that differs from another
// in a few cells.
func amend(c Capabilities, edit func(*Capabilities)) Capabilities {
	edit(&c)
	return c
}
