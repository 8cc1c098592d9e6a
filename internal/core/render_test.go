package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// An event that completes several instances is rendered once: the three
// firewall properties all violate on one dropped return, and their
// reports, the ring's records and the full-provenance record of that
// event share one trigger string. Each ring record shares its report's
// bindings and history too.
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
	for i, rec := range ring.Snapshot() {
		if !shared(rec.Trigger) {
			t.Errorf("ring record %d of %s renders the trigger again", rec.Seq, rec.Property)
		}
		if v := h.viols[i]; &rec.Values[0] != &v.Bindings[0] || &rec.History[0] != &v.History[0] {
			t.Errorf("ring record %d of %s copies the report's bindings or history", rec.Seq, rec.Property)
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
	if bindings := bindingMap(v); len(bindings) > 0 {
		vars := make([]string, 0, len(bindings))
		for k := range bindings {
			vars = append(vars, string(k))
		}
		sort.Strings(vars)
		parts := make([]string, len(vars))
		for i, k := range vars {
			parts[i] = fmt.Sprintf("$%s=%s", k, bindings[property.Var(k)])
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(parts, " "))
	}
	for _, r := range v.History {
		fmt.Fprintf(&b, "\n  stage %d (%s) at %s: %s", r.Stage, r.Label, r.Time.Format(time.RFC3339Nano), r.Event)
	}
	return b.String()
}

// bindingMap is a report's bindings in the map the engine built per
// report before the bindings became a name-ordered slice; the reference
// renderings start from it.
func bindingMap(v *Violation) map[property.Var]packet.Value {
	if len(v.Bindings) == 0 {
		return nil
	}
	m := make(map[property.Var]packet.Value, len(v.Bindings))
	for _, b := range v.Bindings {
		m[property.Var(b.Var)] = b.Value
	}
	return m
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
			Bindings: []obs.Binding{{Var: "A", Value: packet.Num(167772161)}, {Var: "Q", Value: packet.Str("a \"b\"\n")}, {Var: "Z", Value: packet.Num(0)}},
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

// A monitor's report lists its bindings in variable-name order whatever
// order the property binds them in (dns-response-match binds ID, Q, C),
// and its String is the map-based reference rendering — a query name
// that needs quoting and escaping, and a full history, included.
func TestReportBindingsNameOrdered(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvFull}, catalogProp(t, "dns-response-match"))
	name := "bank \"x\"\n<a>&b"
	h.forward(packet.NewDNSQuery(macA, macB, ipA, ipB, 5353, 42, name), 1, 2)
	h.forward(packet.NewDNSResponse(macB, macA, ipB, ipA, 5353, 42, "evil.example", packet.MustIPv4("6.6.6.6")), 2, 1)
	h.wantViolations(1)
	v := h.viols[0]
	var vars []string
	for _, b := range v.Bindings {
		vars = append(vars, b.Var)
	}
	if want := []string{"C", "ID", "Q"}; !slices.Equal(vars, want) {
		t.Fatalf("bindings in order %v, want %v", vars, want)
	}
	if v.Binding("Q") != packet.Str(name) || v.Binding("C") != packet.Num(ipA.Uint64()) || v.Binding("nope") != (packet.Value{}) {
		t.Fatalf("Binding accessor: Q=%v C=%v nope=%v", v.Binding("Q"), v.Binding("C"), v.Binding("nope"))
	}
	if len(v.History) != 2 {
		t.Fatalf("history has %d steps, want 2", len(v.History))
	}
	if got, want := v.String(), fmtViolationString(v); got != want {
		t.Errorf("Violation.String() = %q, map-based rendering %q", got, want)
	}
}

// A report costs only the engine's work. On the trio monitor in the
// daemons' engine shape (limited provenance, violation ring, registry,
// state accounting), a dropped return that completes all three firewall
// properties allocates three Violations, three bindings slices and the
// event's one trigger: the ring record shares the report's slices and
// renders nothing. Full provenance adds one history copy per report; the
// ring shares it rather than copying it again.
func TestReportAllocationBudget(t *testing.T) {
	skipAllocGateUnderRace(t)
	for _, tc := range []struct {
		prov   ProvLevel
		budget float64
	}{{ProvLimited, 7}, {ProvFull, 10}} {
		t.Run(tc.prov.String(), func(t *testing.T) {
			sched := sim.NewScheduler()
			reports := 0
			mon := NewMonitor(sched, Config{
				Provenance:  tc.prov,
				OnViolation: func(*Violation) { reports++ },
				Metrics:     obs.NewRegistry(),
				Violations:  obs.NewRing(256),
				StateTopK:   32,
				StateSample: 8,
			})
			for _, name := range []string{"firewall-basic", "firewall-timeout", "firewall-until-close"} {
				if err := mon.AddProperty(catalogProp(t, name)); err != nil {
					t.Fatal(err)
				}
			}
			const flows = 256
			var pid PacketID
			feed := func(p *packet.Packet, in, out uint64, dropped bool) {
				pid++
				mon.HandleEvent(Event{Kind: KindArrival, Time: sched.Now(), PacketID: pid, Packet: p, InPort: in})
				mon.HandleEvent(Event{Kind: KindEgress, Time: sched.Now(), PacketID: pid, Packet: p, InPort: in, OutPort: out, Dropped: dropped})
			}
			opens := make([]*packet.Packet, flows)
			returns := make([]*packet.Packet, flows)
			for f := range opens {
				src := packet.IPv4FromUint32(0x0a000000 | uint32(f))
				dst := packet.IPv4FromUint32(0xcb007100 | uint32(f))
				opens[f] = packet.NewTCP(macA, macB, src, dst, uint16(10000+f), 80, packet.FlagSYN, nil)
				returns[f] = packet.NewTCP(macB, macA, dst, src, 80, uint16(10000+f), packet.FlagACK, nil)
			}
			// The first cycle warms the store, the scratch buffers and the
			// ring; the second opens every flow again and measures only the
			// dropped returns.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			for cycle := 0; cycle < 2; cycle++ {
				for f := range opens {
					feed(opens[f], 1, 2, false)
				}
				if cycle == 1 {
					runtime.ReadMemStats(&before)
				}
				for f := range returns {
					feed(returns[f], 2, 0, true)
				}
			}
			runtime.ReadMemStats(&after)
			if reports != 2*3*flows {
				t.Fatalf("reports = %d, want %d: every dropped return completes the three properties", reports, 2*3*flows)
			}
			if avg := float64(after.Mallocs-before.Mallocs) / flows; avg > tc.budget {
				t.Fatalf("a dropped return completing three instances allocates %.1f, budget is %.0f", avg, tc.budget)
			}
		})
	}
}
