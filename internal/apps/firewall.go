package apps

import (
	"time"

	"switchmon/internal/core"
	"switchmon/internal/dataplane"
	"switchmon/internal/packet"
)

// FirewallFaults selects stateful-firewall misbehaviours.
type FirewallFaults struct {
	// DropValidReturnEvery drops every Nth admissible return packet
	// (0 = never) — violates all three firewall properties.
	DropValidReturnEvery int
	// IgnoreClose keeps admitting return traffic after a FIN/RST — not a
	// violation of the catalogue properties (they only check wrongful
	// drops) but a realistic bug the monitor should stay silent on.
	IgnoreClose bool
	// ForgetConnections drops connection state immediately, so all return
	// traffic is refused.
	ForgetConnections bool
}

// connKey identifies a connection by its internal/external address pair.
type connKey struct {
	internal packet.IPv4
	external packet.IPv4
}

// Firewall is a controller-resident stateful firewall: traffic from the
// internal port opens pinholes for return traffic, with an idle timeout
// and connection-close tracking.
type Firewall struct {
	sw       *dataplane.Switch
	faults   FirewallFaults
	internal dataplane.PortNo
	external dataplane.PortNo
	timeout  time.Duration
	// conns maps each open connection to its last outbound activity, in
	// virtual-clock nanoseconds: a pointer-free entry half the size of a
	// time.Time one.
	conns   map[connKey]int64
	returns int
}

// NewFirewall attaches a stateful firewall to sw.
func NewFirewall(sw *dataplane.Switch, internal, external dataplane.PortNo, timeout time.Duration, faults FirewallFaults) *Firewall {
	fw := &Firewall{
		sw: sw, faults: faults,
		internal: internal, external: external,
		timeout: timeout,
		conns:   map[connKey]int64{},
	}
	sw.SetController(fw, dataplane.MissController)
	return fw
}

// PacketIn applies the firewall policy to one packet.
func (fw *Firewall) PacketIn(sw *dataplane.Switch, inPort dataplane.PortNo, pid core.PacketID, p *packet.Packet) {
	if p.IPv4 == nil {
		sw.DropPacketAs(pid, inPort, p)
		return
	}
	now := sw.Scheduler().Now().UnixNano()
	switch inPort {
	case fw.internal:
		key := connKey{internal: p.IPv4.Src, external: p.IPv4.Dst}
		if !fw.faults.ForgetConnections {
			fw.conns[key] = now
		}
		if fw.closes(p) && !fw.faults.IgnoreClose {
			delete(fw.conns, key)
		}
		sw.SendPacketAs(pid, inPort, []dataplane.PortNo{fw.external}, p)
	case fw.external:
		key := connKey{internal: p.IPv4.Dst, external: p.IPv4.Src}
		last, open := fw.conns[key]
		admissible := open && time.Duration(now-last) <= fw.timeout
		if admissible {
			if fw.closes(p) && !fw.faults.IgnoreClose {
				delete(fw.conns, key)
				// The closing packet itself is still admitted.
			}
			fw.returns++
			if fw.faults.DropValidReturnEvery > 0 && fw.returns%fw.faults.DropValidReturnEvery == 0 {
				sw.DropPacketAs(pid, inPort, p) // the monitored bug
				return
			}
			sw.SendPacketAs(pid, inPort, []dataplane.PortNo{fw.internal}, p)
			return
		}
		sw.DropPacketAs(pid, inPort, p) // correct refusal
	default:
		sw.DropPacketAs(pid, inPort, p)
	}
}

// closes reports whether the packet ends its connection.
func (fw *Firewall) closes(p *packet.Packet) bool {
	return p.TCP != nil && (p.TCP.Flags.Has(packet.FlagFIN) || p.TCP.Flags.Has(packet.FlagRST))
}

// OpenConnections reports the tracked pinhole count.
func (fw *Firewall) OpenConnections() int { return len(fw.conns) }
