// Backends example: the paper's Table 2, live. The same violating event
// stream is fed to every surveyed switch-state approach; each either
// rejects the property at compile time (naming its capability gap) or
// monitors with its architectural visibility limits — reproducing the
// detection hierarchy the paper's comparison implies.
//
// Run: go run ./examples/backends
package main

import (
	"fmt"

	"switchmon/internal/backend"
	"switchmon/internal/core"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

func main() {
	sched := sim.NewScheduler()
	backends := backend.All(sched)
	defer backend.Close(backends)

	fw := property.CatalogByName(property.DefaultParams(), "firewall-basic")
	fmt.Printf("property: %s\n  %q\n\n", fw.Name, fw.Description)

	// Compile the property on every backend.
	installed := map[string]backend.Backend{}
	for _, b := range backends {
		if err := b.AddProperty(fw); err != nil {
			fmt.Printf("%-20s REJECTS: %v\n", b.Name(), err)
			continue
		}
		fmt.Printf("%-20s accepts\n", b.Name())
		installed[b.Name()] = b
	}

	// One violating stream: A->B outbound, then the return wrongfully
	// dropped.
	macA, macB := packet.MustMAC("02:00:00:00:00:0a"), packet.MustMAC("02:00:00:00:00:0b")
	ipA, ipB := packet.MustIPv4("10.0.0.1"), packet.MustIPv4("203.0.113.9")
	ab := packet.NewTCP(macA, macB, ipA, ipB, 1000, 80, packet.FlagSYN, nil)
	ba := packet.NewTCP(macB, macA, ipB, ipA, 80, 1000, packet.FlagACK, nil)
	events := []core.Event{
		{Kind: core.KindArrival, Time: sched.Now(), PacketID: 1, Packet: ab, InPort: 1},
		{Kind: core.KindEgress, Time: sched.Now(), PacketID: 1, Packet: ab, InPort: 1, OutPort: 2},
		{Kind: core.KindArrival, Time: sched.Now(), PacketID: 2, Packet: ba, InPort: 2},
		{Kind: core.KindEgress, Time: sched.Now(), PacketID: 2, Packet: ba, InPort: 2, Dropped: true},
	}
	for _, e := range events {
		for _, b := range installed {
			b.HandleEvent(e)
		}
	}

	fmt.Printf("\n%-20s %-10s %-8s %s\n", "backend", "violations", "depth", "notes")
	for _, b := range backends {
		bb, ok := installed[b.Name()]
		if !ok {
			continue
		}
		note := ""
		switch v := bb.(type) {
		case *backend.Chassis:
			if backend.ControllerHosted(v.Capabilities()) {
				note = fmt.Sprintf("redirected %d B to the controller, saw no drops", v.RedirectedBytes())
			}
		case *backend.Varanus:
			note = fmt.Sprintf("wrote %d concrete rules (recursive learn)", v.StateUpdateCost())
		}
		fmt.Printf("%-20s %-10d %-8d %s\n", bb.Name(), bb.Violations(), bb.PipelineDepth(), note)
	}
	fmt.Println("\nThe wrongful drop is visible only to architectures with drop-visible")
	fmt.Println("egress observation — the paper's Sec. 2.2 gap, live.")
}
