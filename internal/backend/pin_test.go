package backend

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/trace"
)

// pinStream is one fixed stream that touches every visibility axis:
// arrivals, forwarded and dropped egress, obligation discharges, a
// learning-switch population, an ARP mapping with a forwarded request,
// and a link-down out-of-band event with traffic after it. Workload
// packet IDs are rebased so no two workloads share one.
func pinStream() []core.Event {
	var events []core.Event
	now := sim.Epoch
	var base core.PacketID
	appendWorkload := func(evs []core.Event) {
		var top core.PacketID
		for _, e := range evs {
			if e.Kind != core.KindOutOfBand {
				e.PacketID += base
				if e.PacketID > top {
					top = e.PacketID
				}
			}
			events = append(events, e)
			now = e.Time
		}
		base = top
	}
	gap := time.Millisecond
	appendWorkload(trace.FirewallWorkload{Flows: 24, ReturnsPerFlow: 2, ViolationEvery: 5, CloseEvery: 4, Gap: gap}.Events(now))
	appendWorkload(trace.NATWorkload{Flows: 12, MistranslateEvery: 4, Gap: gap}.Events(now))
	appendWorkload(trace.LearningWorkload{Hosts: 6, PacketsPerHost: 3, Gap: gap}.Events(now))

	mapping := packet.NewARPReply(macA, ipA, macB, ipB)
	req := packet.NewARPRequest(macB, ipB, ipA)
	now = now.Add(gap)
	appendWorkload([]core.Event{
		{Kind: core.KindArrival, Time: now, PacketID: 1, Packet: mapping, InPort: 3},
		{Kind: core.KindEgress, Time: now, PacketID: 1, Packet: mapping, InPort: 3, OutPort: 4},
		{Kind: core.KindArrival, Time: now.Add(gap), PacketID: 2, Packet: req, InPort: 4},
		{Kind: core.KindEgress, Time: now.Add(gap), PacketID: 2, Packet: req, InPort: 4, OutPort: 3},
		{Kind: core.KindOutOfBand, Time: now.Add(2 * gap), OOBKind: packet.OOBLinkDown, OOBPort: 2},
	})
	appendWorkload(trace.LearningWorkload{Hosts: 6, PacketsPerHost: 2, Gap: gap}.Events(now))
	return events
}

// renderVerdictPin installs each catalogue property alone on a fresh copy
// of every backend, feeds pinStream, lets timers run, and renders one
// line per (property, backend): the install error, or the violation
// count, pipeline depth and state-update cost.
func renderVerdictPin() string {
	events := pinStream()
	var b strings.Builder
	for _, entry := range property.Catalog(property.DefaultParams()) {
		sched := sim.NewScheduler()
		backends := All(sched)
		var installed []Backend
		for _, bk := range backends {
			if err := bk.AddProperty(entry.Prop); err != nil {
				fmt.Fprintf(&b, "%s | %s | error: %v\n", entry.Prop.Name, bk.Name(), err)
				continue
			}
			installed = append(installed, bk)
		}
		for _, e := range events {
			for _, bk := range installed {
				bk.HandleEvent(e)
			}
		}
		sched.RunFor(time.Minute)
		for _, bk := range installed {
			fmt.Fprintf(&b, "%s | %s | violations=%d depth=%d cost=%d\n",
				entry.Prop.Name, bk.Name(), bk.Violations(), bk.PipelineDepth(), bk.StateUpdateCost())
		}
		Close(backends)
	}
	return b.String()
}

// TestVerdictPin pins every backend's verdict on every catalogue
// property against testdata/verdicts.golden, so a refactor of how the
// approaches are built cannot move a capability, a visibility filter or
// a state cost unnoticed.
func TestVerdictPin(t *testing.T) {
	want, err := os.ReadFile("testdata/verdicts.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderVerdictPin()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
