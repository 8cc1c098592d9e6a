package apps

import (
	"testing"
	"time"

	"switchmon/internal/dataplane"
	"switchmon/internal/packet"
	"switchmon/internal/raceon"
)

// TestPuntPathZeroAlloc gates the path where the switch is the monitor:
// every packet punted to the firewall app, and the three firewall
// properties watching its arrival and egress, as on the onswitch-trio
// benchmark. Once the flow population is warm an injected packet
// allocates nothing: Inject copies only when a rule rewrites, and the
// packet-in byte count encodes into the switch's reused buffer.
func TestPuntPathZeroAlloc(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
	r := newRig(t, 2, "firewall-basic", "firewall-timeout", "firewall-until-close")
	NewFirewall(r.sw, 1, 2, 60*time.Second, FirewallFaults{})
	// One episode per flow: a SYN out, two returns, and a FIN back that
	// discharges firewall-until-close and closes the pinhole, so the next
	// pass re-creates both.
	type arrival struct {
		port dataplane.PortNo
		p    *packet.Packet
	}
	const flows = 256
	var stream []arrival
	for f := 0; f < flows; f++ {
		a := packet.IPv4FromUint32(0x0a000000 | uint32(f))
		b := packet.IPv4FromUint32(0xcb007100 | uint32(f))
		port := uint16(10000 + f)
		ret := packet.NewTCP(macB, macA, b, a, 443, port, packet.FlagACK, nil)
		stream = append(stream,
			arrival{1, packet.NewTCP(macA, macB, a, b, port, 443, packet.FlagSYN, nil)},
			arrival{2, ret}, arrival{2, ret},
			arrival{2, packet.NewTCP(macB, macA, b, a, 443, port, packet.FlagFIN|packet.FlagACK, nil)})
	}
	i := 0
	inject := func() {
		a := stream[i%len(stream)]
		i++
		r.sched.RunFor(time.Millisecond)
		r.sw.Inject(a.port, a.p)
	}
	for range stream {
		inject()
	}
	if avg := testing.AllocsPerRun(4*len(stream), inject); avg > 0.05 {
		t.Fatalf("punt path allocates %.2f per injected packet, want at most 0.05", avg)
	}
	if st := r.mon.Stats(); st.Discharged == 0 {
		t.Fatalf("monitor stats %+v: no FIN discharged firewall-until-close", st)
	}
	r.wantViolations(0)
}
