package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
)

// An event that completes several instances is rendered once: the three
// firewall properties all violate on one dropped return, and their
// reports, the ring's records and the full-provenance record of that
// event share one trigger string.
func TestOneTriggerPerViolatingEvent(t *testing.T) {
	ring := obs.NewRing(8)
	h := newHarness(t, Config{Provenance: ProvFull, Violations: ring},
		catalogProp(t, "firewall-basic"), catalogProp(t, "firewall-timeout"), catalogProp(t, "firewall-until-close"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(3)
	trig := h.viols[0].Trigger
	if !strings.HasPrefix(trig, "egress DROP pkt#") {
		t.Fatalf("trigger = %q, want the dropped return", trig)
	}
	shared := func(s string) bool { return s == trig && unsafe.StringData(s) == unsafe.StringData(trig) }
	for _, v := range h.viols {
		if last := v.History[len(v.History)-1].Event; !shared(v.Trigger) || !shared(last) {
			t.Errorf("%s: trigger %q, last history event %q: rendered again for the same event", v.Property, v.Trigger, last)
		}
	}
	for _, rec := range ring.Snapshot() {
		if !shared(rec.Trigger) {
			t.Errorf("ring record %d of %s renders the trigger again", rec.Seq, rec.Property)
		}
	}
}

// fmtEventSummary and fmtViolationString are the fmt renderings the
// append-built ones replaced, kept as the reference they must match byte
// for byte (the packet half is internal/packet's fmtSummary).
func fmtEventSummary(e *Event) string {
	switch e.Kind {
	case KindArrival:
		return fmt.Sprintf("arrival port=%d pkt#%d %s", e.InPort, e.PacketID, e.Packet.Summary())
	case KindEgress:
		if e.Dropped {
			return fmt.Sprintf("egress DROP pkt#%d %s", e.PacketID, e.Packet.Summary())
		}
		return fmt.Sprintf("egress port=%d pkt#%d %s", e.OutPort, e.PacketID, e.Packet.Summary())
	case KindOutOfBand:
		return fmt.Sprintf("oob %s port=%d", e.OOBKind, e.OOBPort)
	default:
		return "unknown event"
	}
}

func fmtViolationString(v *Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "VIOLATION %s at %s: %s", v.Property, v.Time.Format(time.RFC3339Nano), v.Trigger)
	if len(v.Bindings) > 0 {
		vars := make([]string, 0, len(v.Bindings))
		for k := range v.Bindings {
			vars = append(vars, string(k))
		}
		sort.Strings(vars)
		parts := make([]string, len(vars))
		for i, k := range vars {
			parts[i] = fmt.Sprintf("$%s=%s", k, v.Bindings[property.Var(k)])
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(parts, " "))
	}
	for _, r := range v.History {
		fmt.Fprintf(&b, "\n  stage %d (%s) at %s: %s", r.Stage, r.Label, r.Time.Format(time.RFC3339Nano), r.Event)
	}
	return b.String()
}

// The event summary, the report's String and the timeout trigger are
// their fmt renderings, over every event kind, bindings of both value
// kinds, histories, and a stage label that needs quoting.
func TestVerdictRenderingMatchesFmt(t *testing.T) {
	p := tcpBA(packet.FlagACK)
	at := time.Date(2016, 11, 9, 1, 2, 3, 4500, time.UTC)
	events := []Event{
		{Kind: KindArrival, PacketID: 1, Packet: p, InPort: 2},
		{Kind: KindEgress, PacketID: 1 << 63, Packet: p, InPort: 2, OutPort: 9},
		{Kind: KindEgress, PacketID: 7, Packet: p, Dropped: true},
		{Kind: KindOutOfBand, OOBKind: packet.OOBLinkDown, OOBPort: 3},
		{Kind: KindOutOfBand, OOBKind: 9, OOBPort: 1<<64 - 1},
		{Kind: 7},
	}
	for i := range events {
		if got, want := events[i].Summary(), fmtEventSummary(&events[i]); got != want {
			t.Errorf("event %d: Summary() = %q, fmt rendering %q", i, got, want)
		}
	}
	viols := []*Violation{
		{Property: "p", Time: at, Trigger: events[2].Summary()},
		{Property: "dns", Time: at.Add(time.Second), Trigger: "t",
			Bindings: map[property.Var]packet.Value{"Q": packet.Str("a \"b\"\n"), "A": packet.Num(167772161), "Z": packet.Num(0)},
			History: []ProvRecord{
				{Stage: 0, Label: "query", Time: at, Event: events[0].Summary()},
				{Stage: 12, Label: "no (reply)", Time: at.Add(time.Minute), Event: "timeout"},
			}},
	}
	for _, v := range viols {
		if got, want := v.String(), fmtViolationString(v); got != want {
			t.Errorf("Violation.String() = %q, fmt rendering %q", got, want)
		}
	}
	for _, label := range []string{"no-reply", "say \"hi\"\t\\"} {
		b := property.New("neg", "timeout trigger")
		b.OnArrival("request").Bind("X", packet.FieldIPSrc)
		b.UnlessWithin(label, property.Egress, time.Second).Where(property.EqVar(packet.FieldIPDst, "X"))
		cp, err := compile(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("timeout: no event matched %q within the window", label); cp.timeoutTrigger != want {
			t.Errorf("timeout trigger = %q, fmt rendering %q", cp.timeoutTrigger, want)
		}
	}
}
