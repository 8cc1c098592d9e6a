package core

import (
	"fmt"
	"slices"
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

// ProvRecord is one step of a violation's history (ProvFull only).
type ProvRecord struct {
	Stage int
	Label string
	Time  time.Time
	// Event is the summary of the advancing event; "timeout" for negative
	// observations advanced by their deadline.
	Event string
}

// Violation reports one completed violation pattern.
type Violation struct {
	Property string
	Time     time.Time
	// Trigger describes the final event (or timeout) that completed the
	// pattern.
	Trigger string
	// Bindings holds the instance's variable values (ProvLimited and up).
	Bindings map[property.Var]packet.Value
	// History holds per-stage records (ProvFull only).
	History []ProvRecord
}

// String renders a human-readable report.
func (v *Violation) String() string {
	b := append([]byte("VIOLATION "), v.Property...)
	b = append(b, " at "...)
	b = v.Time.AppendFormat(b, time.RFC3339Nano)
	b = append(b, ": "...)
	b = append(b, v.Trigger...)
	if len(v.Bindings) > 0 {
		vars := make([]property.Var, 0, len(v.Bindings))
		for k := range v.Bindings {
			vars = append(vars, k)
		}
		slices.Sort(vars)
		b = append(b, " ["...)
		for i, k := range vars {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, '$')
			b = append(b, k...)
			b = append(b, '=')
			b = append(b, v.Bindings[k].String()...)
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
// (bindings at ProvLimited and above, history at ProvFull). Seq is left
// zero; the ring stamps it on append.
func (v *Violation) TraceRecord() obs.TraceRecord {
	rec := obs.TraceRecord{Time: v.Time, Property: v.Property, Trigger: v.Trigger}
	if len(v.Bindings) > 0 {
		rec.Bindings = make(map[string]string, len(v.Bindings))
		for k, val := range v.Bindings {
			rec.Bindings[string(k)] = val.String()
		}
	}
	for _, h := range v.History {
		rec.History = append(rec.History, obs.TraceStep{
			Stage: h.Stage, Label: h.Label, Time: h.Time, Event: h.Event,
		})
	}
	return rec
}
