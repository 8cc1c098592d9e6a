package core

import (
	"fmt"
	"strconv"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
)

// ProvLevel selects how much history a violation report carries —
// the paper's Feature 10 trade-off between full provenance and
// performance.
type ProvLevel uint8

// Provenance levels.
const (
	// ProvNone reports only the final trigger event.
	ProvNone ProvLevel = iota
	// ProvLimited additionally reports the variable bindings — header
	// values already retained for matching, so (as the paper observes)
	// recoverable "without added cost".
	ProvLimited
	// ProvFull additionally records every event that advanced the
	// instance.
	ProvFull
)

// String names the level.
func (l ProvLevel) String() string {
	switch l {
	case ProvNone:
		return "none"
	case ProvLimited:
		return "limited"
	case ProvFull:
		return "full"
	default:
		return fmt.Sprintf("ProvLevel(%d)", uint8(l))
	}
}

// ProvRecord is one step of a violation's history (ProvFull only). It
// is the ring's own history type, so a report and its ring record share
// one history slice.
type ProvRecord = obs.TraceStep

// Violation reports one completed violation pattern.
//
// A report's Bindings and History are shared with its record in the
// configured violation ring (Config.Violations): read them, never write
// to them.
type Violation struct {
	Property string
	Time     time.Time
	// Trigger describes the final event (or timeout) that completed the
	// pattern.
	Trigger string
	// Bindings holds the instance's variable values in variable-name
	// order (ProvLimited and up).
	Bindings []obs.Binding
	// History holds per-stage records (ProvFull only).
	History []ProvRecord
}

// Binding returns the value bound to the named variable, or the zero
// Value when the report carries none.
func (v *Violation) Binding(name property.Var) packet.Value {
	for _, b := range v.Bindings {
		if b.Var == string(name) {
			return b.Value
		}
	}
	return packet.Value{}
}

// String renders a human-readable report.
func (v *Violation) String() string {
	b := append([]byte("VIOLATION "), v.Property...)
	b = append(b, " at "...)
	b = v.Time.AppendFormat(b, time.RFC3339Nano)
	b = append(b, ": "...)
	b = append(b, v.Trigger...)
	if len(v.Bindings) > 0 {
		rendered := obs.RenderBindings(v.Bindings)
		b = append(b, " ["...)
		for i, bd := range v.Bindings {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, '$')
			b = append(b, bd.Var...)
			b = append(b, '=')
			b = append(b, rendered[bd.Var]...)
		}
		b = append(b, ']')
	}
	for _, r := range v.History {
		b = append(b, "\n  stage "...)
		b = strconv.AppendInt(b, int64(r.Stage), 10)
		b = append(b, " ("...)
		b = append(b, r.Label...)
		b = append(b, ") at "...)
		b = r.Time.AppendFormat(b, time.RFC3339Nano)
		b = append(b, ": "...)
		b = append(b, r.Event...)
	}
	return string(b)
}

// TraceRecord converts the violation into the obs trace-ring / JSON
// representation, carrying whatever provenance the report itself holds
// (bindings at ProvLimited and above, history at ProvFull). The record
// shares the report's Bindings (as Values) and History and renders
// nothing: its Bindings map is left for a reader to build with
// obs.RenderBindings. Seq is left zero; the ring stamps it on read.
func (v *Violation) TraceRecord() obs.TraceRecord {
	return obs.TraceRecord{Time: v.Time, Property: v.Property, Trigger: v.Trigger, Values: v.Bindings, History: v.History}
}
