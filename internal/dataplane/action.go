package dataplane

import (
	"time"

	"switchmon/internal/packet"
)

// ActionKind discriminates rule actions.
type ActionKind uint8

// Action kinds.
const (
	// ActOutput emits the packet on a specific port.
	ActOutput ActionKind = iota
	// ActFlood emits the packet on every port except the ingress port.
	ActFlood
	// ActDrop explicitly drops the packet (ending the pipeline).
	ActDrop
	// ActGoto continues matching at a later table.
	ActGoto
	// ActSetField rewrites a header field (NAT and friends).
	ActSetField
	// ActController punts the packet to the controller (packet-in).
	ActController
	// ActLearn installs a new rule derived from the current packet — the
	// Open vSwitch "learn" action FAST builds on.
	ActLearn
)

// Action is one instruction of a rule. Exactly the fields relevant to its
// Kind are meaningful.
type Action struct {
	Kind  ActionKind
	Port  PortNo       // ActOutput
	Table int          // ActGoto
	Field packet.Field // ActSetField
	Value packet.Value // ActSetField
	Learn *LearnSpec   // ActLearn
}

// Convenience constructors.

// Output returns an action emitting on port.
func Output(p PortNo) Action { return Action{Kind: ActOutput, Port: p} }

// Flood returns an all-ports-but-ingress action.
func Flood() Action { return Action{Kind: ActFlood} }

// Drop returns an explicit drop action.
func Drop() Action { return Action{Kind: ActDrop} }

// Goto returns a continue-at-table action.
func Goto(table int) Action { return Action{Kind: ActGoto, Table: table} }

// SetField returns a header rewrite action.
func SetField(f packet.Field, v packet.Value) Action {
	return Action{Kind: ActSetField, Field: f, Value: v}
}

// ToController returns a packet-in action.
func ToController() Action { return Action{Kind: ActController} }

// LearnAction returns a learn action.
func LearnAction(spec *LearnSpec) Action { return Action{Kind: ActLearn, Learn: spec} }

// LearnMatch is one match-template entry of a learn action: the installed
// rule will match DstField either against a literal Value or against the
// triggering packet's FromField value.
type LearnMatch struct {
	DstField  packet.Field
	FromField packet.Field // 0 (FieldInvalid): use Value instead
	Value     packet.Value
}

// LearnSpec describes the rule a learn action installs.
type LearnSpec struct {
	Table       int
	Priority    int
	IdleTimeout time.Duration
	HardTimeout time.Duration
	Matches     []LearnMatch
	// Actions are literal actions for the installed rule.
	Actions []Action
	// OutputFromInPort adds an Output action whose port is the triggering
	// packet's ingress port (the MAC-learning idiom).
	OutputFromInPort bool
}
