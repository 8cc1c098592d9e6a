package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
	"switchmon/internal/sim"
)

// Switch ports the generated traffic uses. 1 and 2 are the catalogue
// properties' internal/external ports (property.DefaultParams); 3 and 4
// carry traffic no firewall stage-0 matches.
const (
	portInternal = 1
	portExternal = 2
	portSideA    = 3
	portSideB    = 4
)

var (
	macInternal = packet.MustMAC("02:00:00:00:01:01")
	macExternal = packet.MustMAC("02:00:00:00:01:02")
	macSideA    = packet.MustMAC("02:00:00:00:01:03")
	macSideB    = packet.MustMAC("02:00:00:00:01:04")

	epochNs = sim.Epoch.UnixNano()
)

// recKind says what one generated input is.
type recKind uint8

const (
	recOut recKind = iota // internal→external packet arriving on the internal port
	recRet                // external→internal return: the switch's egress decision
	recBg                 // background UDP arriving on a side port
	recFin                // external→internal FIN (onswitch-trio)
)

// rec is one generated input: a raw Ethernet frame plus the metadata a
// switch attaches to it (ports, the forwarding decision, a timestamp).
// The system under test sees only these.
type rec struct {
	kind    recKind
	flow    int32
	dropped bool
	at      int64 // virtual time, ns
	pid     uint64
	frame   []byte
}

// event renders the record as the monitor event a switch would emit
// for it, over the decoded packet p.
func (r *rec) event(p *packet.Packet) core.Event {
	e := core.Event{Time: time.Unix(0, r.at), PacketID: core.PacketID(r.pid), Packet: p}
	switch r.kind {
	case recOut:
		e.Kind, e.InPort = core.KindArrival, portInternal
	case recBg:
		e.Kind, e.InPort = core.KindArrival, portSideA
	default:
		e.Kind, e.InPort = core.KindEgress, portExternal
		if r.dropped {
			e.Dropped = true
		} else {
			e.OutPort = portInternal
		}
	}
	return e
}

// digest folds the record into h: frame bytes and every metadata field.
func (r *rec) digest(h *[sha256.Size]byte) {
	var meta [32]byte
	meta[0] = byte(r.kind)
	if r.dropped {
		meta[1] = 1
	}
	binary.BigEndian.PutUint32(meta[4:], uint32(r.flow))
	binary.BigEndian.PutUint64(meta[8:], uint64(r.at))
	binary.BigEndian.PutUint64(meta[16:], r.pid)
	*h = sha256.Sum256(append(append(h[:], meta[:]...), r.frame...))
}

func mustEncode(p *packet.Packet) []byte {
	b, err := p.Encode()
	if err != nil {
		panic(err)
	}
	return b
}

func mustDecode(frame []byte) *packet.Packet {
	p, err := packet.Decode(frame)
	if err != nil {
		panic(err)
	}
	return p
}

// flowGen generates the steady firewall stream shared by inline-steady
// and fabric-steady: a fixed population of internal→external flows,
// each already open, probed by return traffic in a seeded round-robin
// order. One return in violEvery is wrongfully dropped; the flow is
// re-opened by the very next record, because firewall-basic consumes a
// flow's instance when it reports — without the re-open the population
// (and the violation rate) would decay. With background on, every other
// record is side-port UDP that no property stage can act on.
type flowGen struct {
	out, ret [][]byte // one frame per flow and direction
	bg       [][]byte
	order    []int32

	// violEvery and violPhase pick the dropped returns: return number k
	// (counted across the run) is dropped when (k+violPhase)%violEvery==0.
	violEvery, violPhase uint64
	background           bool

	pos     int
	returns uint64
	emitted uint64
	reopen  int32
	now     int64
	pid     uint64
	gapNs   int64
}

func newFlowGen(seed int64, flows int, violEvery uint64, background bool) *flowGen {
	rng := sim.NewRand(seed)
	baseA, baseB := rng.Uint32()&0xffffff, rng.Uint32()&0xffffff
	g := &flowGen{
		violEvery: violEvery, violPhase: uint64(rng.Int63n(1 << 20)),
		background: background, reopen: -1, now: epochNs, gapNs: 1000,
	}
	for f := 0; f < flows; f++ {
		a := packet.IPv4FromUint32(0x0a000000 | (baseA+uint32(f))&0xffffff)
		b := packet.IPv4FromUint32(0xcb000000 | (baseB+uint32(f))&0xffffff)
		port := uint16(10000 + rng.Intn(50000))
		g.out = append(g.out, mustEncode(packet.NewTCP(macInternal, macExternal, a, b, port, 443, packet.FlagSYN, nil)))
		g.ret = append(g.ret, mustEncode(packet.NewTCP(macExternal, macInternal, b, a, 443, port, packet.FlagACK, nil)))
	}
	for i := 0; background && i < 256; i++ {
		a := packet.IPv4FromUint32(0xac100000 | rng.Uint32()&0xffff)
		b := packet.IPv4FromUint32(0xac110000 | rng.Uint32()&0xffff)
		g.bg = append(g.bg, mustEncode(packet.NewUDP(macSideA, macSideB, a, b, uint16(1024+rng.Intn(60000)), 4789, nil)))
	}
	for _, f := range rng.Perm(flows) {
		g.order = append(g.order, int32(f))
	}
	return g
}

// open fills r with the record that opens flow f (set-up traffic).
func (g *flowGen) open(f int, r *rec) {
	g.now += g.gapNs
	g.pid++
	*r = rec{kind: recOut, flow: int32(f), at: g.now, pid: g.pid, frame: g.out[f]}
}

// next fills r with the next record of the steady stream.
func (g *flowGen) next(r *rec) {
	g.now += g.gapNs
	g.pid++
	g.emitted++
	*r = rec{at: g.now, pid: g.pid}
	switch {
	case g.reopen >= 0:
		r.kind, r.flow, r.frame = recOut, g.reopen, g.out[g.reopen]
		g.reopen = -1
	case g.background && g.emitted&1 == 0:
		r.kind, r.flow = recBg, -1
		r.frame = g.bg[int(g.emitted>>1)%len(g.bg)]
	default:
		f := g.order[g.pos]
		if g.pos++; g.pos == len(g.order) {
			g.pos = 0
		}
		g.returns++
		r.kind, r.flow, r.frame = recRet, f, g.ret[f]
		if (g.returns+g.violPhase)%g.violEvery == 0 {
			r.dropped = true
			g.reopen = f
		}
	}
}

// inputDigest generates the first n inputs of a workload from seed and
// hashes them, so two runs can be shown to have seen identical bytes.
func inputDigest(workload string, seed int64, n int) string {
	var h [sha256.Size]byte
	var r rec
	switch workload {
	case "inline-steady", "fabric-steady":
		g := newFlowGen(seed, 512, 1000, workload == "fabric-steady")
		for f := range g.out {
			g.open(f, &r)
			r.digest(&h)
		}
		for i := 0; i < n; i++ {
			g.next(&r)
			r.digest(&h)
		}
	case "churn-timeouts":
		g, ps := newChurnGen(seed), newPktSlot()
		var e core.Event
		for i := 0; i < n; i++ {
			g.next(&e, &ps)
			r = rec{at: e.Time.UnixNano(), pid: uint64(e.PacketID), dropped: e.Dropped,
				kind: recKind(e.Kind), flow: int32(e.InPort), frame: mustEncode(e.Packet)}
			r.digest(&h)
		}
	case "onswitch-trio":
		g := newTrioGen(seed, 512)
		for i := 0; i < n; i++ {
			g.next(&r)
			r.digest(&h)
		}
	}
	return hex.EncodeToString(h[:])
}
