package core_test

import (
	"fmt"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// Example builds the paper's basic stateful-firewall property with the
// builder API, feeds a violating event pair, and prints the report.
func Example() {
	sched := sim.NewScheduler()
	mon := core.NewMonitor(sched, core.Config{
		Provenance: core.ProvLimited,
		OnViolation: func(v *core.Violation) {
			fmt.Printf("violation of %s: $A=%v $B=%v\n",
				v.Property, v.Binding("A"), v.Binding("B"))
		},
	})

	prop, err := property.Parse(`property "firewall" {
  description "returns for open connections are admitted"
  on arrival "outgoing" {
    match in_port == 1
    bind $A = ip.src
    bind $B = ip.dst
  }
  on egress "return-dropped" {
    match ip.src == $B
    match ip.dst == $A
    match dropped == 1
  }
}`)
	if err == nil {
		err = mon.AddProperty(prop)
	}
	if err != nil {
		panic(err)
	}

	macA, macB := packet.MustMAC("02:00:00:00:00:01"), packet.MustMAC("02:00:00:00:00:02")
	ipA, ipB := packet.MustIPv4("10.0.0.1"), packet.MustIPv4("203.0.113.9")
	out := packet.NewTCP(macA, macB, ipA, ipB, 1000, 80, packet.FlagSYN, nil)
	ret := packet.NewTCP(macB, macA, ipB, ipA, 80, 1000, packet.FlagACK, nil)

	mon.HandleEvent(core.Event{Kind: core.KindArrival, Time: sched.Now(), PacketID: 1, Packet: out, InPort: 1})
	mon.HandleEvent(core.Event{Kind: core.KindEgress, Time: sched.Now(), PacketID: 2, Packet: ret, InPort: 2, Dropped: true})

	// Output:
	// violation of firewall: $A=167772161 $B=3405803785
}

// ExampleMonitor_negativeObservation shows a Feature 7 timeout action: a
// deadline firing without the awaited event completes the pattern.
func ExampleMonitor_negativeObservation() {
	sched := sim.NewScheduler()
	violations := 0
	mon := core.NewMonitor(sched, core.Config{
		OnViolation: func(v *core.Violation) {
			violations++
			fmt.Println(v.Trigger)
		},
	})

	prop, err := property.Parse(`property "ping-answered" {
  description "echo requests are answered within 2s"
  on arrival "request" {
    match icmp.type == 8
    bind $ID = icmp.id
  }
  unless egress "no-reply" within 2s {
    match icmp.type == 0
    match icmp.id == $ID
  }
}`)
	if err == nil {
		err = mon.AddProperty(prop)
	}
	if err != nil {
		panic(err)
	}

	macA, macB := packet.MustMAC("02:00:00:00:00:01"), packet.MustMAC("02:00:00:00:00:02")
	ping := packet.NewICMPEcho(macA, macB, packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2"), 7, 1, false)
	mon.HandleEvent(core.Event{Kind: core.KindArrival, Time: sched.Now(), PacketID: 1, Packet: ping, InPort: 1})

	sched.RunFor(3 * time.Second) // nobody answers

	// Output:
	// timeout: no event matched "no-reply" within the window
}
