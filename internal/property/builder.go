package property

import (
	"time"

	"switchmon/internal/packet"
)

// Predicate construction helpers, for properties built in Go (tests and
// the Table 2 witnesses) rather than written in the property language.

// Eq constrains field == numeric literal.
func Eq(f packet.Field, v uint64) Pred { return Pred{Field: f, Op: OpEq, Arg: LitNum(v)} }

// EqVar constrains field == bound variable.
func EqVar(f packet.Field, v Var) Pred { return Pred{Field: f, Op: OpEq, Arg: Ref(v)} }

// Ne constrains field != numeric literal.
func Ne(f packet.Field, v uint64) Pred { return Pred{Field: f, Op: OpNe, Arg: LitNum(v)} }

// Builder assembles a Property stage by stage. Create one with New, add
// observations, and call Build (which validates).
type Builder struct {
	p      Property
	stages []*StageBuilder
}

// New starts a property definition.
func New(name, description string) *Builder {
	return &Builder{p: Property{Name: name, Description: description}}
}

// StageBuilder configures one observation; its methods return the receiver
// for chaining.
type StageBuilder struct {
	s Stage
}

func (b *Builder) add(label string, class EventClass) *StageBuilder {
	sb := &StageBuilder{s: NewStage(label, class)}
	b.stages = append(b.stages, sb)
	return sb
}

// OnArrival adds a positive observation of a packet arrival.
func (b *Builder) OnArrival(label string) *StageBuilder { return b.add(label, Arrival) }

// OnEgress adds a positive observation of a forwarding decision.
func (b *Builder) OnEgress(label string) *StageBuilder { return b.add(label, Egress) }

// OnPacket adds a positive observation matching arrivals or departures.
func (b *Builder) OnPacket(label string) *StageBuilder { return b.add(label, AnyPacket) }

// OnOutOfBand adds a positive observation of a non-packet event.
func (b *Builder) OnOutOfBand(label string) *StageBuilder { return b.add(label, OutOfBand) }

// UnlessWithin adds a negative observation (Feature 7): the stage is
// satisfied when window elapses with no event of the given class matching
// the predicates.
func (b *Builder) UnlessWithin(label string, class EventClass, window time.Duration) *StageBuilder {
	sb := b.add(label, class)
	sb.s.Negative = true
	sb.s.Window = window
	return sb
}

// Build validates and returns the property.
func (b *Builder) Build() (*Property, error) {
	p := b.p
	p.Stages = make([]Stage, len(b.stages))
	for i, sb := range b.stages {
		p.Stages[i] = sb.s
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// MustBuild is Build for properties fixed in the program; it panics on a
// malformed property.
func (b *Builder) MustBuild() *Property {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Where adds predicates to the stage.
func (sb *StageBuilder) Where(preds ...Pred) *StageBuilder {
	sb.s.Preds = append(sb.s.Preds, preds...)
	return sb
}

// Bind captures a field into a variable.
func (sb *StageBuilder) Bind(v Var, f packet.Field) *StageBuilder {
	sb.s.Binds = append(sb.s.Binds, Binding{Var: v, Field: f})
	return sb
}

// Within bounds the time since the previous stage (Feature 3).
func (sb *StageBuilder) Within(d time.Duration) *StageBuilder {
	sb.s.Window = d
	return sb
}

// WithinVar bounds the time since the previous stage by a bound variable
// holding seconds (e.g. a DHCP lease duration).
func (sb *StageBuilder) WithinVar(v Var) *StageBuilder {
	sb.s.WindowVar = v
	return sb
}

// SamePacket requires the stage's event to concern the same packet as the
// event of the given earlier stage (Feature 5).
func (sb *StageBuilder) SamePacket(stage int) *StageBuilder {
	sb.s.SamePacketAs = stage
	return sb
}

// Count makes this a counting stage: it advances after n matching events.
func (sb *StageBuilder) Count(n int) *StageBuilder {
	sb.s.MinCount = n
	return sb
}

// Until adds an obligation guard (Feature 4): a matching event discharges
// the instance while it waits at this stage.
func (sb *StageBuilder) Until(class EventClass, preds ...Pred) *StageBuilder {
	sb.s.Until = append(sb.s.Until, Guard{Class: class, Preds: preds})
	return sb
}
