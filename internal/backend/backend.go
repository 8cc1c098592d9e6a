// Package backend implements the approaches to on-switch state the paper
// compares in Table 2 — OpenFlow 1.3 and 1.5 (controller-only),
// OpenState, FAST, POF/P4, SNAP, Varanus, and Static Varanus — plus the
// "ideal" switch the paper argues for and its sharded execution.
//
// Each backend carries a capability vector mirroring Table 2's rows and
// *enforces* it: compiling a property whose analyzed requirements exceed
// the capabilities fails with a typed error naming the gap. The Table 2
// reproduction in internal/tables probes these compile attempts rather
// than echoing constants, so every ✓/✗ cell in the regenerated table is
// an observed behaviour.
//
// Every approach that runs the core engine is one row — capability
// vector, provenance level, state atom — over one Chassis, which filters
// events by the vector's visibility cells (an architecture blind to
// drops, everything pre-Varanus per Sec. 2.2, loses those violations) and
// pays each state transition on a dataplane.Switch's own flow table or
// register file.
package backend

import (
	"errors"
	"fmt"
	"strings"

	"switchmon/internal/core"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// Tri is a Table 2 cell: supported, unsupported, or blank (not
// applicable / target-dependent, which the paper leaves empty).
type Tri uint8

// Tri values.
const (
	No Tri = iota
	Yes
	Blank
)

// Mark renders the Table 2 cell notation.
func (t Tri) Mark() string {
	switch t {
	case Yes:
		return "yes"
	case No:
		return "no"
	default:
		return ""
	}
}

// Capabilities mirrors the rows of the paper's Table 2, plus the
// drop-visibility axis Sec. 2.2 discusses (not a Table 2 row, but
// enforced the same way).
type Capabilities struct {
	Name string
	// Descriptive rows.
	StateMechanism string // "Controller only", "State machine", ...
	UpdateDatapath string // "Fast path", "Slow path", "—"
	ProcessingMode string // "Inline", "Split", ""
	FieldAccess    string // "Fixed", "Dynamic"
	// Boolean rows.
	EventHistory   Tri
	RelatedEvents  Tri // identification of related events (Feature 5)
	NegativeMatch  Tri
	RuleTimeouts   Tri
	TimeoutActions Tri
	SymmetricMatch Tri
	WanderingMatch Tri
	OutOfBand      Tri
	FullProvenance Tri
	// DropVisibility: can the approach observe drop decisions at all?
	DropVisibility Tri
	// EgressVisibility: can the approach match on egress metadata (output
	// port, multicast) — i.e. does it have pipeline stages after the
	// output decision?
	EgressVisibility Tri
	// Counting: can the approach accumulate quantitative thresholds
	// (counters) per instance? Not a Table 2 row — the paper scopes
	// quantitative properties out — but the extension is tracked the same
	// way.
	Counting Tri
	// StickyGuards: does the approach support permanent (retroactive)
	// obligation discharge? Only the ideal engine does; it is this
	// repository's extension.
	StickyGuards Tri
}

// ErrUnsupported reports the capability gaps that prevent a backend from
// compiling a property.
type ErrUnsupported struct {
	Backend  string
	Property string
	Missing  []string
}

// Error implements error.
func (e *ErrUnsupported) Error() string {
	return fmt.Sprintf("backend %s cannot monitor %s: missing %s",
		e.Backend, e.Property, strings.Join(e.Missing, ", "))
}

// IsUnsupported reports whether err is a capability-gap error.
func IsUnsupported(err error) bool {
	var u *ErrUnsupported
	return errors.As(err, &u)
}

// Backend is one approach to on-switch stateful monitoring.
type Backend interface {
	// Name returns the Table 2 column label.
	Name() string
	// Capabilities returns the declared capability vector.
	Capabilities() Capabilities
	// AddProperty compiles a property onto the backend, or returns
	// *ErrUnsupported naming the gaps.
	AddProperty(p *property.Property) error
	// HandleEvent feeds one switch event (the backend applies its own
	// visibility filter).
	HandleEvent(e core.Event)
	// Violations reports how many violations the backend has detected.
	Violations() uint64
	// PipelineDepth reports the number of match stages a packet traverses
	// — Sec 3.3's scaling quantity (tables for Varanus, stages for Static
	// Varanus, constant for register designs).
	PipelineDepth() int
	// StateUpdateCost reports accumulated state-update work in abstract
	// units (rule modifications for rule-based state, register operations
	// for register state).
	StateUpdateCost() uint64
}

// gaps compares a property's analyzed requirements against a capability
// vector. Blank cells count as unsupported for compilation purposes: a
// monitor cannot rely on target-dependent behaviour.
func gaps(caps Capabilities, ft property.Features) []string {
	var missing []string
	need := func(ok Tri, label string) {
		if ok != Yes {
			missing = append(missing, label)
		}
	}
	if ft.History {
		need(caps.EventHistory, "event history")
	}
	if ft.Identity {
		need(caps.RelatedEvents, "identification of related events")
	}
	if ft.NegMatch {
		need(caps.NegativeMatch, "negative match")
	}
	if ft.Timeouts {
		need(caps.RuleTimeouts, "rule timeouts")
	}
	if ft.TimeoutActions {
		need(caps.TimeoutActions, "timeout actions")
	}
	if ft.InstanceID == property.IDSymmetric {
		need(caps.SymmetricMatch, "symmetric match")
	}
	if ft.InstanceID == property.IDWandering {
		need(caps.WanderingMatch, "wandering match")
	}
	if ft.MultipleMatch || ft.OutOfBand {
		need(caps.OutOfBand, "out-of-band events")
	}
	if ft.DropVisibility {
		need(caps.DropVisibility, "dropped-packet visibility")
	}
	if ft.EgressVisibility {
		need(caps.EgressVisibility, "egress metadata matching")
	}
	if ft.Counting {
		need(caps.Counting, "counting state")
	}
	if ft.Sticky {
		need(caps.StickyGuards, "sticky (permanent) guards")
	}
	return missing
}

// controllerOnly is the State mechanism cell of the OpenFlow columns.
const controllerOnly = "Controller only"

// ControllerHosted reports whether an approach keeps its monitor state at
// an external controller rather than on the switch. Such an approach
// accepts any property, counts the packets it redirects, and builds no
// switch pipeline, so Table 2 cannot probe it.
func ControllerHosted(c Capabilities) bool { return c.StateMechanism == controllerOnly }

// Supports reports whether the backend's declared capabilities cover the
// property — the probe the Table 2 regeneration uses.
func Supports(b Backend, p *property.Property) error {
	return checkSupport(b.Capabilities(), p)
}

// checkSupport wraps gaps into the typed error.
func checkSupport(caps Capabilities, p *property.Property) error {
	ft := property.Analyze(p)
	if missing := gaps(caps, ft); len(missing) > 0 {
		return &ErrUnsupported{Backend: caps.Name, Property: p.Name, Missing: missing}
	}
	return nil
}

// Column is one Table 2 column: the approach's declared capabilities and
// its constructor, so a probe builds only the column it probes.
type Column struct {
	Caps Capabilities
	New  func(*sim.Scheduler) Backend
}

// Columns lists every approach in Table 2 column order followed by the
// ideal switch.
func Columns() []Column {
	chassis := func(r row) Column {
		return Column{r.caps, func(s *sim.Scheduler) Backend { return newChassis(s, r) }}
	}
	return []Column{
		chassis(openFlow13), chassis(openFlow15), chassis(openState),
		chassis(fastRow), chassis(p4Row), chassis(snapRow),
		{varanusCaps, func(s *sim.Scheduler) Backend { return NewVaranus(s) }},
		chassis(staticVaranus),
		{shardedCaps, func(s *sim.Scheduler) Backend { return NewShardedVaranus(s) }},
		chassis(idealRow),
	}
}

// All constructs one of every backend, each with its own monitor state on
// the shared scheduler, in Columns order. Feeding them starts the sharded
// backend's goroutines; Close stops them.
func All(sched *sim.Scheduler) []Backend {
	var bs []Backend
	for _, c := range Columns() {
		bs = append(bs, c.New(sched))
	}
	return bs
}

// Close stops the goroutines of every backend in bs that runs any (the
// sharded engine's shards). Reads stay valid afterwards.
func Close(bs []Backend) {
	for _, b := range bs {
		if c, ok := b.(interface{ Close() }); ok {
			c.Close()
		}
	}
}
