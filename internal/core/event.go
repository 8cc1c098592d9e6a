// Package core implements the on-switch stateful property monitor — the
// paper's primary contribution rendered as an executable engine. It
// provides all ten semantic features of Sec. 2:
//
//	F1  field access           — via the internal/packet field table
//	F2  event history          — variable bindings on monitor instances
//	F3  timeouts               — per-instance refreshed stage windows
//	F4  persistent obligation  — until-guards that discharge instances
//	F5  packet identity        — arrival/egress correlation by PacketID,
//	                             including dropped packets
//	F6  negative match         — != predicates against bound state
//	F7  timeout actions        — negative observations whose deadline
//	                             advances the instance (non-refreshing)
//	F8  instance identification— exact/symmetric/wandering indexes plus
//	                             multiple match
//	F9  side-effect control    — inline vs. split processing modes
//	F10 provenance             — none/limited/full violation history
package core

import (
	"fmt"
	"strconv"
	"time"

	"switchmon/internal/obs/tracer"
	"switchmon/internal/packet"
)

// PacketID identifies one packet traversal through the switch. The
// dataplane assigns a fresh ID at ingress and stamps the corresponding
// egress events with the same ID — the mechanism behind the paper's
// Feature 5 ("maintaining packet identity" is "most reliably captured on
// the switch itself").
type PacketID uint64

// EventKind discriminates monitor events.
type EventKind uint8

// Event kinds.
const (
	// KindArrival is a packet entering the switch.
	KindArrival EventKind = iota
	// KindEgress is the switch's forwarding decision for a packet: one
	// event per output port, or a single event with Dropped set. Unlike
	// OpenFlow's egress tables, drops are visible here.
	KindEgress
	// KindOutOfBand is a non-packet event (link up/down).
	KindOutOfBand
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case KindArrival:
		return "arrival"
	case KindEgress:
		return "egress"
	case KindOutOfBand:
		return "oob"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one observation input to the monitor.
type Event struct {
	Kind EventKind
	Time time.Time
	// SwitchID identifies the emitting switch (its datapath id), letting
	// one collector monitor several switches and properties scope
	// observations per switch — the NetSight-style aggregation Sec. 3.2
	// mentions for provenance. Zero when only one unnamed switch exists.
	SwitchID uint64
	// PacketID links an egress event to its arrival (zero for out-of-band
	// events).
	PacketID PacketID
	// Packet is the decoded packet for arrival/egress events.
	Packet *packet.Packet
	// InPort is the ingress port (arrival and egress events).
	InPort uint64
	// OutPort is the output port of an egress event (meaningless when
	// Dropped).
	OutPort uint64
	// Dropped marks an egress event recording a drop decision.
	Dropped bool
	// Multicast marks an egress event that is part of a multi-port output
	// (broadcast/flood).
	Multicast bool
	// OOBKind and OOBPort describe an out-of-band event.
	OOBKind packet.OOBKind
	OOBPort uint64
	// Trace is the event's sampled tracing span — nil for the vast
	// majority of events (1-in-N sampling). It rides along every copy
	// the pipeline makes but is pure observability metadata: no part of
	// the event's semantic identity, never consulted by property steps,
	// and carried on the wire in the batch's trace block rather than
	// the event encoding.
	Trace *tracer.Span
}

// Field extracts a field from the event: switch metadata from the event
// itself, everything else from the packet (Feature 1).
func (e *Event) Field(f packet.Field) (packet.Value, bool) {
	switch f {
	case packet.FieldSwitchID:
		return packet.Num(e.SwitchID), true
	case packet.FieldInPort:
		if e.Kind == KindArrival || e.Kind == KindEgress {
			return packet.Num(e.InPort), true
		}
		return packet.Value{}, false
	case packet.FieldOutPort:
		if e.Kind == KindEgress && !e.Dropped {
			return packet.Num(e.OutPort), true
		}
		return packet.Value{}, false
	case packet.FieldDropped:
		if e.Kind == KindEgress {
			if e.Dropped {
				return packet.Num(1), true
			}
			return packet.Num(0), true
		}
		return packet.Value{}, false
	case packet.FieldMulticast:
		if e.Kind == KindEgress {
			if e.Multicast {
				return packet.Num(1), true
			}
			return packet.Num(0), true
		}
		return packet.Value{}, false
	case packet.FieldOOBKind:
		if e.Kind == KindOutOfBand {
			return packet.Num(uint64(e.OOBKind)), true
		}
		return packet.Value{}, false
	case packet.FieldOOBPort:
		if e.Kind == KindOutOfBand {
			return packet.Num(e.OOBPort), true
		}
		return packet.Value{}, false
	default:
		if e.Packet == nil {
			return packet.Value{}, false
		}
		return e.Packet.Field(f)
	}
}

// Summary renders a one-line description for provenance and reports.
func (e *Event) Summary() string { return string(e.appendSummary(nil)) }

// appendSummary appends Summary's rendering to b.
func (e *Event) appendSummary(b []byte) []byte {
	switch e.Kind {
	case KindArrival:
		b = append(b, "arrival port="...)
		b = strconv.AppendUint(b, e.InPort, 10)
	case KindEgress:
		if e.Dropped {
			b = append(b, "egress DROP"...)
		} else {
			b = append(b, "egress port="...)
			b = strconv.AppendUint(b, e.OutPort, 10)
		}
	case KindOutOfBand:
		b = append(b, "oob "...)
		b = append(b, e.OOBKind.String()...)
		b = append(b, " port="...)
		return strconv.AppendUint(b, e.OOBPort, 10)
	default:
		return append(b, "unknown event"...)
	}
	b = append(b, " pkt#"...)
	b = strconv.AppendUint(b, uint64(e.PacketID), 10)
	b = append(b, ' ')
	return e.Packet.AppendSummary(b)
}
