package packet

import "fmt"

// Endpoint is one side of a conversation: an IPv4 address plus L4 port.
// It is comparable and map-key friendly.
type Endpoint struct {
	Addr IPv4
	Port uint16
}

// String renders "addr:port".
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Flow is a directed 5-tuple-lite (the protocols here are unambiguous from
// context): source and destination endpoints plus IP protocol.
type Flow struct {
	Src, Dst Endpoint
	Proto    IPProto
}

// FlowOf extracts the flow of an IPv4 packet with an L4 layer. ok is false
// for non-IP or port-less packets.
func FlowOf(p *Packet) (Flow, bool) {
	if p.IPv4 == nil {
		return Flow{}, false
	}
	f := Flow{Proto: p.IPv4.Protocol}
	f.Src.Addr, f.Dst.Addr = p.IPv4.Src, p.IPv4.Dst
	switch {
	case p.TCP != nil:
		f.Src.Port, f.Dst.Port = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		f.Src.Port, f.Dst.Port = p.UDP.SrcPort, p.UDP.DstPort
	default:
		return Flow{}, false
	}
	return f, true
}

// Reverse returns the flow with endpoints swapped — the return direction.
func (f Flow) Reverse() Flow {
	return Flow{Src: f.Dst, Dst: f.Src, Proto: f.Proto}
}

// String renders "proto src->dst".
func (f Flow) String() string {
	return fmt.Sprintf("%s %s->%s", f.Proto, f.Src, f.Dst)
}

// fnv1aMix folds v into an FNV-1a running hash.
func fnv1aMix(h uint64, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

const fnvOffset = 14695981039346656037

// Hash returns a direction-sensitive hash of the flow.
func (f Flow) Hash() uint64 {
	h := uint64(fnvOffset)
	h = fnv1aMix(h, f.Src.Addr.Uint64()<<16|uint64(f.Src.Port))
	h = fnv1aMix(h, f.Dst.Addr.Uint64()<<16|uint64(f.Dst.Port))
	return fnv1aMix(h, uint64(f.Proto))
}

// HashValues computes an order-insensitive FNV-1a hash of a value
// multiset: the values are sorted before mixing, so any permutation
// (e.g. the src/dst fields of a flow and its reverse) hashes alike. It is
// the single hash definition shared by the monitor's hash operands and by
// hash-based network functions, so that "the port selected by the flow
// hash" means the same thing to the app and to the property checking it.
func HashValues(vals []Value) uint64 {
	return HashSorted(append([]Value(nil), vals...))
}

// HashSorted is HashValues for a caller that owns vals: it sorts the
// slice in place (an insertion sort — hash specs name a handful of
// fields) and allocates nothing.
func HashSorted(vals []Value) uint64 {
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j].Less(vals[j-1]); j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	const prime = 1099511628211
	sum := uint64(fnvOffset)
	mix := func(b byte) {
		sum ^= uint64(b)
		sum *= prime
	}
	for _, v := range vals {
		if v.IsStr() {
			s := v.Text()
			for i := 0; i < len(s); i++ {
				mix(s[i])
			}
			mix(0xff)
		} else {
			n := v.Uint64()
			for i := 0; i < 8; i++ {
				mix(byte(n >> (8 * i)))
			}
		}
	}
	return sum
}

// SymmetricHash returns a hash that is identical for a flow and its
// reverse, the property load balancers and connection trackers rely on
// (gopacket calls this FastHash symmetry).
func (f Flow) SymmetricHash() uint64 {
	a := f.Src.Addr.Uint64()<<16 | uint64(f.Src.Port)
	b := f.Dst.Addr.Uint64()<<16 | uint64(f.Dst.Port)
	if a > b {
		a, b = b, a
	}
	h := uint64(fnvOffset)
	h = fnv1aMix(h, a)
	h = fnv1aMix(h, b)
	return fnv1aMix(h, uint64(f.Proto))
}
