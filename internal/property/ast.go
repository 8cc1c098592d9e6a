// Package property defines the monitor's property language: a violation
// pattern is a sequence of observations which, when completed, witness a
// violation of a correctness property (Sec. 2 of the paper).
//
// The representation is deliberately explicit about the paper's semantic
// features so that Analyze can mechanically derive each property's
// requirements — the repository regenerates the paper's Table 1 from this
// analysis rather than asserting it.
//
// Properties are written in a textual language in the spirit of
// Varanus's query language (docs/LANGUAGE.md); a property reads like the
// paper's timeline diagrams:
//
//	property "firewall-until-close" {
//	  description "return traffic is admitted until close or timeout"
//	  on arrival "outgoing" {
//	    match in_port == 1
//	    bind $A = ip.src
//	    bind $B = ip.dst
//	  }
//	  on egress "return-dropped" within 60s {
//	    match ip.src == $B
//	    match ip.dst == $A
//	    match dropped == 1
//	    until packet { ip.src == $A; ip.dst == $B; tcp.fin == 1 }
//	  }
//	}
//
// Parse produces a validated *Property; Format renders the canonical
// text (Parse∘Format is the identity on ASTs). The shipped catalogue,
// catalog.properties, is written in that language.
package property

import (
	"fmt"
	"strings"
	"time"

	"switchmon/internal/packet"
)

// Var names a value bound by an earlier observation and referenced by a
// later one. Variables are the paper's cross-packet state: "A", "B" in the
// firewall property, the translated address in the NAT property.
type Var string

// EventClass selects which monitor events an observation can match.
type EventClass uint8

// Event classes.
const (
	// AnyPacket matches both arrivals and departures.
	AnyPacket EventClass = iota
	// Arrival matches a packet entering the switch.
	Arrival
	// Egress matches the switch's forwarding decision for a packet,
	// including decisions to drop (the paper's Feature 5 gap: OpenFlow's
	// egress tables never see drops).
	Egress
	// OutOfBand matches non-packet events such as link-down (Sec. 2.4,
	// multiple match).
	OutOfBand
)

// String names the class.
func (c EventClass) String() string {
	switch c {
	case AnyPacket:
		return "packet"
	case Arrival:
		return "arrival"
	case Egress:
		return "egress"
	case OutOfBand:
		return "oob"
	default:
		return fmt.Sprintf("EventClass(%d)", uint8(c))
	}
}

// CmpOp is a predicate comparison operator.
type CmpOp uint8

// Comparison operators. OpNe against a bound variable is the paper's
// Feature 6 ("negative match").
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the DSL operator token.
func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(o))
	}
}

// Compare applies the operator to two values. Ordered comparisons between
// a number and a string follow Value.Less (numbers sort first); equality
// between them is simply false.
func (o CmpOp) Compare(a, b packet.Value) bool {
	switch o {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a.Less(b)
	case OpLe:
		return a.Less(b) || a == b
	case OpGt:
		return b.Less(a)
	case OpGe:
		return b.Less(a) || a == b
	default:
		return false
	}
}

// OperandKind discriminates the right-hand side of a predicate.
type OperandKind uint8

// Operand kinds.
const (
	// OperandLit compares against a literal value.
	OperandLit OperandKind = iota
	// OperandVar compares against a variable bound by an earlier stage.
	OperandVar
	// OperandHash compares against a symmetric hash of fields of the
	// *current* event — the extrinsic-state facility FAST demonstrates
	// with hash-based load balancing.
	OperandHash
)

// HashSpec describes a symmetric-hash operand: the listed field values are
// sorted (making the hash direction-invariant for src/dst field sets),
// FNV-1a mixed, and reduced to Base + (hash % Mod).
type HashSpec struct {
	Fields []packet.Field
	Mod    uint64
	Base   uint64
}

// Operand is the right-hand side of a predicate.
type Operand struct {
	Kind OperandKind
	Var  Var
	Lit  packet.Value
	Hash *HashSpec
}

// Lit returns a literal operand.
func Lit(v packet.Value) Operand { return Operand{Lit: v} }

// LitNum returns a literal numeric operand.
func LitNum(n uint64) Operand { return Operand{Lit: packet.Num(n)} }

// LitStr returns a literal string operand.
func LitStr(s string) Operand { return Operand{Lit: packet.Str(s)} }

// Ref returns a variable-reference operand.
func Ref(v Var) Operand { return Operand{Kind: OperandVar, Var: v} }

// HashOf returns a symmetric-hash operand over the given fields.
func HashOf(mod, base uint64, fields ...packet.Field) Operand {
	return Operand{Kind: OperandHash, Hash: &HashSpec{Fields: fields, Mod: mod, Base: base}}
}

// IsVar reports whether the operand references a bound variable.
func (o Operand) IsVar() bool { return o.Kind == OperandVar }

// String renders the operand in DSL syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OperandVar:
		return "$" + string(o.Var)
	case OperandHash:
		names := make([]string, len(o.Hash.Fields))
		for i, f := range o.Hash.Fields {
			names[i] = f.String()
		}
		s := fmt.Sprintf("hash(%s) %% %d", strings.Join(names, ", "), o.Hash.Mod)
		if o.Hash.Base != 0 {
			s += fmt.Sprintf(" + %d", o.Hash.Base)
		}
		return s
	default:
		return o.Lit.String()
	}
}

// Pred constrains one field of the matched event.
type Pred struct {
	Field packet.Field
	Op    CmpOp
	Arg   Operand
}

// String renders the predicate in DSL syntax.
func (p Pred) String() string {
	return fmt.Sprintf("%s %s %s", p.Field, p.Op, p.Arg)
}

// Binding captures a field of the matched event into a variable, making it
// available to later stages (the paper's Feature 2, event history).
type Binding struct {
	Var   Var
	Field packet.Field
}

// String renders the binding in DSL syntax.
func (b Binding) String() string {
	return fmt.Sprintf("$%s := %s", b.Var, b.Field)
}

// PredGroup is one conjunction inside a Stage's AnyOf disjunction.
type PredGroup []Pred

// Guard is a bare event pattern used for obligations: when an event
// matching the guard occurs while an instance waits at the guarded stage,
// the instance is discharged without violation (the paper's Feature 4,
// "or until the connection is closed").
//
// A Sticky guard discharges *permanently*: the matching event suppresses
// the instance's identity forever, even retroactively — events matching a
// sticky guard seed the suppression set before any instance exists. This
// extension expresses "unless previously justified" properties (the
// paper's "no direct reply if neither pre-loaded nor prior reply seen"),
// which plain until-guards cannot: they forget the justification as soon
// as the instance is discharged. To make retroactive suppression
// well-defined, a sticky guard must carry an equality-against-variable
// predicate for every variable bound before its stage (so the suppressed
// identity can be synthesized from the event alone), and the property
// must not use packet identity in earlier stages.
type Guard struct {
	Class  EventClass
	Preds  []Pred
	Sticky bool
}

// Stage is one observation in a violation pattern.
//
// A positive stage advances when an event of its Class satisfying all
// Preds occurs (within Window of the previous stage, if Window > 0).
//
// A negative stage (Negative == true) is the paper's Feature 7: it
// advances when Window elapses *without* any matching event; a matching
// event before the deadline discharges the instance instead. Its deadline
// is set once, when the stage is entered, and never refreshed — the paper
// notes that refreshing would let a never-answered request train evade
// detection.
type Stage struct {
	// Label names the stage in reports ("outgoing", "return-dropped").
	Label string
	Class EventClass
	// Negative marks a negative observation; Window is then mandatory.
	Negative bool
	Preds    []Pred
	// AnyOf is an optional disjunction: in addition to Preds, at least one
	// group must hold in full. It expresses stages like the NAT property's
	// "destination not equal to A, P" (A'' != A *or* P'' != P).
	AnyOf []PredGroup
	Binds []Binding
	// Window bounds the time since the previous stage (Feature 3). Zero
	// means unbounded for positive stages.
	Window time.Duration
	// WindowVar, when set, takes the window duration in seconds from a
	// bound variable — e.g. a DHCP lease time carried in the lease packet
	// itself. Mutually exclusive with Window.
	WindowVar Var
	// SamePacketAs, when >= 0, requires this stage's event to concern the
	// same packet as the event matched at the given earlier stage index
	// (Feature 5, packet identity — arrival/egress correlation).
	SamePacketAs int
	// MinCount, when > 1, makes this a counting stage: it advances only
	// after MinCount matching events (within Window, if set). This is the
	// quantitative extension the paper's conclusion scopes out as future
	// work ("boolean conditions, rather than quantitative measurements").
	MinCount int
	// CountDistinct, when set on a counting stage, counts only events
	// carrying a new value of the given field — e.g. "10 distinct
	// destination ports" for port-scan detection.
	CountDistinct packet.Field
	// Until lists obligation guards active while an instance waits at this
	// stage (Feature 4).
	Until []Guard
}

// Property is a named violation pattern. Completing Stages[len-1]
// witnesses one violation of the monitored correctness property.
type Property struct {
	// Name is a short slug used in reports and the DSL.
	Name string
	// Description restates the correctness property in prose (the positive
	// statement whose violation the stages witness).
	Description string
	// Tenant names the owner for per-tenant quota accounting; empty
	// means the default (unquotaed) tenant. Not part of the DSL grammar —
	// operators attach it at install time (admin endpoint, wire update).
	Tenant string
	Stages []Stage
}

// String renders a compact description.
func (p *Property) String() string {
	return fmt.Sprintf("property %s (%d observations)", p.Name, len(p.Stages))
}

// Vars returns the variables bound anywhere in the property, in binding
// order without duplicates.
func (p *Property) Vars() []Var {
	var out []Var
	seen := map[Var]bool{}
	for _, s := range p.Stages {
		for _, b := range s.Binds {
			if !seen[b.Var] {
				seen[b.Var] = true
				out = append(out, b.Var)
			}
		}
	}
	return out
}
