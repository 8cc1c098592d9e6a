// Firewall example: the paper's Sec. 2.1 properties (all three
// refinements) monitoring a stateful firewall on a simulated network with
// real hosts — including the timeout (Feature 3) and connection-close
// obligation (Feature 4) behaviours.
//
// The property text is given in the DSL to show the full pipeline:
// text -> parse -> compile -> monitor.
//
// Run: go run ./examples/firewall
package main

import (
	"fmt"
	"time"

	"switchmon/internal/apps"
	"switchmon/internal/core"
	"switchmon/internal/netsim"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

const firewallProperty = `
property "firewall-guarded" {
  description "for 60s after A->B traffic, or until the connection closes, B->A packets are not dropped"

  on arrival "outgoing" {
    match in_port == 1
    bind $A = ip.src
    bind $B = ip.dst
  }

  on egress "return-dropped" within 60s {
    match ip.src == $B
    match ip.dst == $A
    match dropped == 1
    until packet { ip.src == $A; ip.dst == $B; tcp.fin == 1 }
    until packet { ip.src == $B; ip.dst == $A; tcp.fin == 1 }
    until packet { ip.src == $A; ip.dst == $B; tcp.rst == 1 }
    until packet { ip.src == $B; ip.dst == $A; tcp.rst == 1 }
  }
}
`

func main() {
	prop, err := property.Parse(firewallProperty)
	if err != nil {
		panic(err)
	}
	fmt.Println("Loaded property (canonical form):")
	fmt.Println(property.Format(prop))

	sched := sim.NewScheduler()
	n := netsim.New(sched)
	n.LinkLatency = time.Millisecond

	sw := n.AddSwitch("fw", 1)
	macC, macS := packet.MustMAC("02:00:00:00:00:01"), packet.MustMAC("02:00:00:00:00:02")
	ipC, ipS := packet.MustIPv4("10.0.0.1"), packet.MustIPv4("203.0.113.9")
	client := n.AddHost("client", macC, ipC, sw, 1)
	server := n.AddHost("server", macS, ipS, sw, 2)
	server.ServePorts[443] = true

	// The firewall wrongfully drops every 4th admissible return packet.
	apps.NewFirewall(sw, 1, 2, 60*time.Second, apps.FirewallFaults{DropValidReturnEvery: 4})

	viols := 0
	mon := core.NewMonitor(sched, core.Config{
		Provenance: core.ProvFull,
		OnViolation: func(v *core.Violation) {
			viols++
			fmt.Println(v)
			fmt.Println()
		},
	})
	if err := mon.AddProperty(prop); err != nil {
		panic(err)
	}
	sw.Observe(mon.HandleEvent)

	fmt.Println("--- scenario 1: violating drops are caught ---")
	for i := 0; i < 8; i++ {
		client.Send(packet.NewTCP(macC, macS, ipC, ipS, uint16(40000+i), 443, packet.FlagSYN, nil))
		sched.RunFor(5 * time.Millisecond)
	}
	fmt.Printf("violations so far: %d (8 connections, every 4th return dropped)\n\n", viols)

	fmt.Println("--- scenario 2: a drop after the connection closes is NOT a violation ---")
	before := viols
	client.Send(packet.NewTCP(macC, macS, ipC, ipS, 41000, 443, packet.FlagSYN, nil))
	sched.RunFor(5 * time.Millisecond)
	client.Send(packet.NewTCP(macC, macS, ipC, ipS, 41000, 443, packet.FlagFIN|packet.FlagACK, nil))
	sched.RunFor(5 * time.Millisecond)
	// A stale server packet now gets (correctly) dropped by the firewall.
	server.Send(packet.NewTCP(macS, macC, ipS, ipC, 443, 41000, packet.FlagACK, nil))
	sched.RunFor(5 * time.Millisecond)
	fmt.Printf("violations added: %d (want 0: obligation was discharged by the FIN)\n\n", viols-before)

	fmt.Println("--- scenario 3: a drop after the 60s idle window is NOT a violation ---")
	before = viols
	client.Send(packet.NewTCP(macC, macS, ipC, ipS, 42000, 443, packet.FlagSYN, nil))
	sched.RunFor(61 * time.Second) // the monitor's window and the firewall's pinhole both lapse
	server.Send(packet.NewTCP(macS, macC, ipS, ipC, 443, 42000, packet.FlagACK, nil))
	sched.RunFor(5 * time.Millisecond)
	fmt.Printf("violations added: %d (want 0: window expired)\n", viols-before)

	st := mon.Stats()
	fmt.Printf("\nmonitor stats: events=%d created=%d discharged=%d expired=%d violations=%d\n",
		st.Events, st.Created, st.Discharged, st.Expired, st.Violations)
}
