// Package wire is the monitoring fabric's binary protocol: a versioned,
// length-prefixed frame codec connecting switch-side exporters
// (internal/exporter) to the central collector (internal/collector).
// The paper's scalability story (Sec. 3.3) runs monitoring adjacent to
// the switch and ships events to where the property state lives; this
// package is the ship.
//
// A connection carries five frame types:
//
//	Hello        exporter → collector: protocol magic and version, the
//	             exporter's datapath id, the sequence number of the next
//	             event it will send (its resume point), a feature bitmap
//	             and a send timestamp (the first clock sample).
//	HelloAck     collector → exporter: the last event sequence number
//	             the collector has applied for that datapath, so a
//	             reconnecting exporter can drop already-delivered
//	             batches and replay only the unacknowledged tail (the
//	             collector deduplicates any overlap), plus the negotiated
//	             features and receive/reply timestamps, completing an
//	             NTP-style clock-offset sample.
//	Batch        exporter → collector: a run of sequence-contiguous
//	             events starting at FirstSeq. Gaps between consecutive
//	             batches are loss, and the collector marks them in the
//	             soundness ledger; overlap is replay, and the collector
//	             skips it. An optional trailing trace block carries the
//	             clock-offset estimate and, per sampled event, the span
//	             key and the switch-side stage marks (FeatureTrace
//	             negotiated only).
//	Ack          collector → exporter: cumulative acknowledgment of the
//	             highest contiguous event sequence applied, timestamped
//	             for ongoing clock sampling.
//	Config       collector → exporter: one kind of replicated
//	             configuration — the property set or the fleet
//	             membership — epoch-stamped, pushed at handshake and on
//	             every change (negotiated kinds only).
//
// Both sides speak Version and nothing else; features are negotiated in
// one round, as the intersection of the Hello's offer and the
// collector's support.
//
// Every config kind shares one layout and one rule. The Config payload
// is kind byte, epoch, property list, DSL source, member list; a kind
// carries only its own fields and the others are empty. Kind k is
// negotiated by feature bit 1<<k. A receiver applies a config only when
// it is the first of its kind or its epoch is strictly greater than the
// last one applied (HighWater). Nothing is acknowledged on the wire.
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload, whose first byte is the frame type. Integers inside payloads
// are varints, timestamps are zigzag-encoded UnixNano, and packets ride
// as length-prefixed frames serialized by the packet codec. A frame's
// layout is written once, as its walk: one method per frame type that
// names the fields in order, run by a coder that appends them when
// encoding and reads them when decoding. Encoder and decoder cannot
// drift apart, and every check a walk makes holds both ways: encode
// refuses what decode rejects. Encoding is append-style and
// allocation-free once the destination buffer has capacity. Decoding
// goes through Reader.Next, and every decoded batch borrows pooled
// storage that the caller hands back with Release. Decoding is strict —
// unknown frame types, unknown flag bits, truncated or trailing bytes,
// and oversized frames are all errors, so a confused peer fails fast
// instead of feeding garbage to the monitor.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/packet"
)

// Version is the one protocol version this build speaks. Hello and
// HelloAck carry it, and either frame with any other version is a
// handshake error, so a peer from another protocol generation fails at
// connect instead of corrupting monitor state silently.
const Version uint16 = 2

// FeatureTrace is a feature bit offered in the Hello and answered
// (ANDed) in the HelloAck: it enables trace blocks on the connection's
// Batch frames. Bits 1 and up negotiate the config
// kinds (ConfigKind.Feature). Unknown bits are ignored, never rejected:
// a future peer offering more simply gets this build's subset back.
const FeatureTrace uint64 = 1 << 0

// ConfigKind names one kind of replicated configuration carried by a
// Config frame. Kind k is negotiated by feature bit 1<<k, so there is
// no kind 0: bit 0 is FeatureTrace.
type ConfigKind uint8

// Config kinds.
const (
	// ConfigProperties is the collector's live property set (Props and
	// Source), which co-located exporter-side engines mirror.
	ConfigProperties ConfigKind = 1
	// ConfigFleet is the fleet membership (Members), onto which every
	// federated exporter re-routes.
	ConfigFleet ConfigKind = 2
	// NumConfigKinds sizes tables indexed by ConfigKind (index 0 unused).
	NumConfigKinds = 3
)

// Feature is the Hello feature bit that negotiates the kind.
func (k ConfigKind) Feature() uint64 { return 1 << k }

func (k ConfigKind) valid() bool { return k >= ConfigProperties && k < NumConfigKinds }

// String names the kind.
func (k ConfigKind) String() string {
	switch k {
	case ConfigProperties:
		return "properties"
	case ConfigFleet:
		return "fleet"
	default:
		return fmt.Sprintf("ConfigKind(%d)", uint8(k))
	}
}

// helloMagic guards against pointing an exporter at a non-collector
// port (or vice versa): the first four payload bytes of a Hello spell
// "SWMF" (switch monitor fabric).
const helloMagic uint32 = 0x53574d46

// ConnBuffer is the kernel socket buffer, in bytes, both ends of a
// connection ask for. An exporter releases its whole send window as one
// burst after an ack; a burst overrunning a small autotuned buffer drops
// segments, each a ~200ms retransmission stall.
const ConnBuffer = 1 << 20

// MaxFrameLen bounds a frame payload (16 MiB). A length prefix beyond
// the bound is rejected before any allocation, so a garbage peer cannot
// make the reader allocate unbounded memory.
const MaxFrameLen = 1 << 24

// MaxBatchEvents bounds the event count declared by a batch header,
// again to cap what a hostile or corrupt declared count can allocate.
const MaxBatchEvents = 1 << 17

// FrameType discriminates frames on the wire.
type FrameType uint8

// Frame types.
const (
	// FrameHello opens a connection (exporter → collector).
	FrameHello FrameType = iota + 1
	// FrameHelloAck answers a Hello (collector → exporter).
	FrameHelloAck
	// FrameBatch carries sequence-contiguous events, and a trailing trace
	// block when traced.
	FrameBatch
	// FrameAck acknowledges applied events cumulatively.
	FrameAck
	// Types 5–9 and 11 are retired: 5 carried traced batches, which now
	// ride FrameBatch, 6–9 per-kind config frames in another layout, and
	// 11 an applied-config acknowledgment nothing read. They must decode
	// as unknown, never be misread.

	// FrameConfig carries one kind of replicated configuration
	// (collector → exporter; negotiated kinds only).
	FrameConfig FrameType = 10
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHelloAck:
		return "hello-ack"
	case FrameBatch:
		return "batch"
	case FrameAck:
		return "ack"
	case FrameConfig:
		return "config"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// Hello is the exporter's opening frame.
type Hello struct {
	// DPID is the datapath id of the switch this exporter speaks for.
	DPID uint64
	// NextSeq is the sequence number of the first event the exporter
	// will send on this connection (1 for a fresh exporter; the head of
	// its retained queue after a reconnect).
	NextSeq uint64
	// Features is the feature bitmap offered.
	Features uint64
	// SentNs is the sender's clock when the Hello was built, the T1 of
	// the handshake's clock-offset sample.
	SentNs int64
}

// HelloAck is the collector's handshake answer.
type HelloAck struct {
	// AckSeq is the highest contiguous event sequence the collector has
	// applied for the datapath (0 when it has seen nothing), the
	// exporter's replay trim point.
	AckSeq uint64
	// Features is the negotiated feature intersection.
	Features uint64
	// RecvNs and SentNs are the collector's clock when the Hello
	// arrived (T2) and when this answer was built (T3) — with the
	// exporter's T1/T4 they complete one NTP-style offset sample.
	RecvNs int64
	SentNs int64
}

// Ack is the collector's cumulative acknowledgment.
type Ack struct {
	// AckSeq is the highest contiguous event sequence applied.
	AckSeq uint64
	// SentNs is the collector's clock when the Ack was built — an
	// ongoing clock sample for the exporter's offset estimator.
	SentNs int64
}

// PropMeta is one property's identity inside a ConfigProperties Config.
type PropMeta struct {
	// Name is the property's slug.
	Name string `json:"name"`
	// Tenant is the owning tenant for quota accounting ("" = default).
	Tenant string `json:"tenant"`
}

// FleetMember is one collector endpoint inside a ConfigFleet Config.
// Weight is a relative routing capacity in fixed-point milli-units
// (1000 = weight 1.0), so fractional capacities survive the wire; the
// wire layer passes it through verbatim (the federation layer treats 0
// as the default weight 1.0).
type FleetMember struct {
	Addr   string
	Weight uint64
}

// Config is one kind of replicated configuration, pushed by a collector
// at handshake and on every change. It carries only its own kind's
// fields; encode and decode reject any other, so every value has
// exactly one wire form.
type Config struct {
	Kind ConfigKind
	// Epoch is the configuration's generation: the epoch of the fleet's
	// document (or of a daemon's own property-set edits) it was rendered
	// from; HighWater judges staleness.
	Epoch uint64
	// Props lists the installed properties in slot order
	// (ConfigProperties).
	Props []PropMeta
	// Source is the set's DSL source, enough to compile the same set;
	// empty ships identities only (ConfigProperties).
	Source string
	// Members lists the collector endpoints in the fleet (ConfigFleet).
	Members []FleetMember
}

// maxConfigEntries bounds a Config's property and member counts (the
// engines route at most 64 properties), capping what a corrupt count can
// allocate.
const maxConfigEntries = 1 << 10

// HighWater is one config kind's high-water mark and the one stale rule:
// the collector's retention, the fleet's property-set document and, on a
// switch, the federated router all apply it. The zero value has admitted
// nothing.
type HighWater struct {
	// Epoch is the newest epoch admitted; Count counts admissions.
	Epoch uint64
	Count uint64
}

// Newer reports whether a config at epoch applies: it is the first of
// its kind, or its epoch is strictly greater than the last admitted.
func (h *HighWater) Newer(epoch uint64) bool { return h.Count == 0 || epoch > h.Epoch }

// Admit records epoch if Newer allows it, reporting whether it did.
func (h *HighWater) Admit(epoch uint64) bool {
	if !h.Newer(epoch) {
		return false
	}
	h.Epoch, h.Count = epoch, h.Count+1
	return true
}

// Batch is a run of events with consecutive sequence numbers: event i
// carries sequence FirstSeq+i. An empty batch is a sequence-advance
// marker: "I will never send anything below FirstSeq" — how an exporter
// makes a loss at the tail of its stream (shed or NoteLoss with nothing
// following) detectable, since a gap is otherwise only visible once a
// later batch arrives.
type Batch struct {
	FirstSeq uint64
	Events   []core.Event

	// Traced appends the frame's trailing trace block: the clock-offset
	// estimate and the switch-side stage marks of every sampled event.
	// Only connections with FeatureTrace negotiated may set it.
	Traced bool
	// ClockOffsetNs/ClockDispNs are the sender's estimate of
	// (collector clock − switch clock) and its dispersion, shipped so
	// the collector can align the remote marks without re-deriving the
	// estimate (Traced batches only).
	ClockOffsetNs int64
	ClockDispNs   int64

	// arena is the pooled backing store this batch decoded into (nil
	// for batches the caller built, which own their storage).
	arena *batchArena
}

// batchArena is the pooled backing store for one decoded batch: the
// Batch header itself, the event slab, and the packet arena its
// embedded packets decode into. One pool Get covers the whole batch —
// header included — which is what keeps the collector's ingest path
// allocation-free per event and per frame.
type batchArena struct {
	b   Batch
	evs []core.Event
	pkt packet.Arena
	// release is the one bound closure for this arena's lifetime, handed
	// to borrowers via ReleaseFunc; building `b.Release` per batch would
	// allocate a method-value closure on every frame.
	release func()
}

var batchArenaPool sync.Pool

func init() {
	// Not a composite-literal New: the closure references (*Batch).Release,
	// which references the pool — an initialization cycle at package level.
	batchArenaPool.New = func() any {
		ba := new(batchArena)
		ba.release = ba.b.Release
		return ba
	}
}

// take returns the arena's event slab resized and zeroed for n events.
// Zeroing matters: the slab is reused across batches, and a stale
// Trace or Packet pointer surviving into a new event would alias freed
// state.
func (ba *batchArena) take(n int) []core.Event {
	if cap(ba.evs) < n {
		ba.evs = make([]core.Event, n)
	}
	ba.evs = ba.evs[:n]
	clear(ba.evs)
	return ba.evs
}

// Release returns a decoded batch's backing store for reuse. It is a
// no-op for batches that own their storage (exporter-built batches),
// so callers can invoke it unconditionally. After Release, the batch's
// Events — and every packet they reference — must not be touched.
func (b *Batch) Release() {
	ba := b.arena
	if ba == nil {
		return
	}
	b.arena = nil
	b.Events = nil
	ba.pkt.Reset()
	batchArenaPool.Put(ba)
}

// ReleaseFunc returns the batch's release callback without allocating:
// decoded batches reuse a closure bound once per arena, owned batches
// return nil (there is nothing to recycle, and a nil release tells
// borrow-based sinks the events are theirs to keep).
func (b *Batch) ReleaseFunc() func() {
	if b.arena == nil {
		return nil
	}
	return b.arena.release
}

// LastSeq is the sequence number of the batch's final event. For an
// empty (sequence-advance) batch it is FirstSeq-1 — the arithmetic that
// makes a marker retire from the retransmit queue as soon as the
// collector's cumulative ack reaches the seq before the gap.
func (b *Batch) LastSeq() uint64 { return b.FirstSeq + uint64(len(b.Events)) - 1 }

// Event flag bits.
const (
	flagDropped   = 1 << 0
	flagMulticast = 1 << 1
	flagHasPacket = 1 << 2
	flagsKnown    = flagDropped | flagMulticast | flagHasPacket
)

// coder runs a walk in one direction. The first error sticks: it moves
// off past the end, so every later read fails and leaves its field
// alone, and the caller checks err once the walk is done.
type coder struct {
	dec   bool
	err   error
	buf   []byte      // encode: the frame so far
	at    int         // encode: where the frame's length prefix sits in buf
	data  []byte      // decode: the frame payload
	off   int         // decode: the next byte to read
	arena *batchArena // decode: a Batch frame's pooled storage
}

// encoder starts a frame of type t: a length prefix end patches, then
// the type byte.
func encoder(buf []byte, t FrameType) coder {
	return coder{buf: append(buf, 0, 0, 0, 0, byte(t)), at: len(buf)}
}

// end patches the length prefix and returns the frame, or the walk's
// first error.
func (c *coder) end() ([]byte, error) {
	n := len(c.buf) - c.at - 4
	if n > MaxFrameLen {
		c.failf("wire: frame payload %d exceeds MaxFrameLen %d", n, MaxFrameLen)
	}
	if c.err != nil {
		return nil, c.err
	}
	binary.BigEndian.PutUint32(c.buf[c.at:], uint32(n))
	return c.buf, nil
}

var errTruncated, errVarint = errors.New("wire: truncated frame"), errors.New("wire: bad varint")

// fail records err unless an earlier error stands, and ends decoding.
func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.off = len(c.data)
}

func (c *coder) failf(format string, args ...any) {
	if c.err == nil {
		c.fail(fmt.Errorf(format, args...))
	}
}

// advance moves past a varint read of n bytes, or fails with err when
// the read found none (n <= 0).
func (c *coder) advance(n int, err error) bool {
	if n <= 0 {
		c.fail(err)
		return false
	}
	c.off += n
	return true
}

// u8 codes one byte.
func (c *coder) u8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if c.off < len(c.data) {
		*v = c.data[c.off]
		c.off++
	} else {
		c.fail(errTruncated)
	}
}

// uv codes a uvarint. A one-byte encode stays inline at the call site;
// every other case takes the call.
func (c *coder) uv(v *uint64) {
	if c.dec || *v >= 0x80 {
		c.uvarint(v)
		return
	}
	c.buf = append(c.buf, byte(*v))
}

func (c *coder) uvarint(v *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	if x, n := binary.Uvarint(c.data[c.off:]); c.advance(n, errVarint) {
		*v = x
	}
}

// v codes a zigzag varint.
func (c *coder) v(v *int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	if x, n := binary.Varint(c.data[c.off:]); c.advance(n, errVarint) {
		*v = x
	}
}

// time codes a timestamp as its zigzag UnixNano.
func (c *coder) time(t *time.Time) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, t.UnixNano())
		return
	}
	if ns, n := binary.Varint(c.data[c.off:]); c.advance(n, errVarint) {
		*t = time.Unix(0, ns)
	}
}

// be codes the low width bytes of v, big-endian.
func (c *coder) be(v *uint64, width int) {
	if !c.dec {
		for i := width - 1; i >= 0; i-- {
			c.buf = append(c.buf, byte(*v>>(8*i)))
		}
		return
	}
	if b := c.take(width); b != nil {
		*v = 0
		for _, by := range b {
			*v = *v<<8 | uint64(by)
		}
	}
}

// take returns the next n payload bytes (decode only).
func (c *coder) take(n int) []byte {
	if n < 0 || len(c.data)-c.off < n {
		c.failf("wire: truncated frame (want %d bytes, have %d)", n, len(c.data)-c.off)
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

// str codes a uvarint-length-prefixed string. Decoding copies it out of
// the frame buffer, which the Reader reuses across frames.
func (c *coder) str(s *string) {
	n := uint64(len(*s))
	c.uv(&n)
	if !c.dec {
		c.buf = append(c.buf, *s...)
		return
	}
	*s = string(c.take(int(n)))
}

// count codes a Config list's length, at most maxConfigEntries, and
// when decoding no more than the bytes left (an entry takes at least
// one), before anything is allocated.
func (c *coder) count(n int) int {
	x := uint64(n)
	c.uv(&x)
	if x > maxConfigEntries || c.dec && x > uint64(len(c.data)-c.off) {
		c.failf("wire: config declares %d entries in %d bytes, max %d", x, len(c.data)-c.off, maxConfigEntries)
		return 0
	}
	return int(x)
}

// kind codes a config kind, which must be one this build knows.
func (c *coder) kind(k *ConfigKind) {
	c.u8((*uint8)(k))
	if !k.valid() {
		c.failf("wire: unknown config kind %d", uint8(*k))
	}
}

// version codes a handshake frame's protocol version, which must be
// Version.
func (c *coder) version() {
	ver := uint64(Version)
	c.be(&ver, 2)
	if ver != uint64(Version) {
		c.failf("wire: protocol version %d, want %d", ver, Version)
	}
}

// Each frame's walk is its layout, field by field, in both directions.

func (h *Hello) walk(c *coder) {
	magic := uint64(helloMagic)
	c.be(&magic, 4)
	if magic != uint64(helloMagic) {
		c.failf("wire: bad hello magic %08x (peer is not a monitoring exporter?)", magic)
	}
	c.version()
	c.uv(&h.DPID)
	c.uv(&h.NextSeq)
	c.uv(&h.Features)
	c.v(&h.SentNs)
}

func (a *HelloAck) walk(c *coder) {
	c.version()
	c.uv(&a.AckSeq)
	c.uv(&a.Features)
	c.v(&a.RecvNs)
	c.v(&a.SentNs)
}

func (a *Ack) walk(c *coder) {
	c.uv(&a.AckSeq)
	c.v(&a.SentNs)
}

// walk is every config kind in the one layout: kind byte, epoch,
// property list, DSL source, member list. A kind carries only its own
// fields.
func (cfg *Config) walk(c *coder) {
	c.kind(&cfg.Kind)
	c.uv(&cfg.Epoch)
	n := c.count(len(cfg.Props))
	if c.dec {
		cfg.Props = make([]PropMeta, n)
	}
	for i := range n {
		c.str(&cfg.Props[i].Name)
		c.str(&cfg.Props[i].Tenant)
	}
	c.str(&cfg.Source)
	if n = c.count(len(cfg.Members)); c.dec {
		cfg.Members = make([]FleetMember, n)
	}
	for i := range n {
		c.str(&cfg.Members[i].Addr)
		c.uv(&cfg.Members[i].Weight)
	}
	switch {
	case cfg.Kind != ConfigProperties && (len(cfg.Props) > 0 || cfg.Source != ""):
		c.failf("wire: %s config carries a property set", cfg.Kind)
	case cfg.Kind != ConfigFleet && len(cfg.Members) > 0:
		c.failf("wire: %s config carries fleet members", cfg.Kind)
	}
}

// walk is the Batch layout: FirstSeq, the event count, the events, and
// the trace block when the batch is traced — whatever follows the
// events is the trace block, so a decoded batch is traced iff it has
// one.
func (b *Batch) walk(c *coder) {
	c.uv(&b.FirstSeq)
	n := uint64(len(b.Events))
	c.uv(&n)
	// At most MaxBatchEvents events, and sequence numbers that do not
	// wrap: an event past seq MaxUint64 would make the collector's
	// cumulative ack run backwards. Decoding also bounds the allocation
	// by the bytes present, as even a packetless event takes nine.
	switch {
	case n > MaxBatchEvents:
		c.failf("wire: batch of %d events exceeds MaxBatchEvents %d", n, MaxBatchEvents)
	case n > 0 && b.FirstSeq > math.MaxUint64-(n-1):
		c.failf("wire: batch of %d events from seq %d overflows the sequence space", n, b.FirstSeq)
	case c.dec && n > uint64(len(c.data)-c.off):
		c.failf("wire: batch declares %d events in %d bytes", n, len(c.data)-c.off)
	case c.dec:
		b.Events = c.arena.take(int(n))
	}
	for i := 0; c.err == nil && i < len(b.Events); i++ {
		if c.event(&b.Events[i]); c.err != nil {
			c.err = fmt.Errorf("wire: event %d: %w", i, c.err)
		}
	}
	if c.dec {
		b.Traced = c.off < len(c.data)
	}
	if b.Traced {
		c.traceBlock(b)
	}
}

// event is one event's layout: kind, flags, time, switch id, packet id,
// in port, out port, out-of-band kind and port, then the packet when
// the flags carry one.
func (c *coder) event(e *core.Event) {
	c.u8((*uint8)(&e.Kind))
	switch e.Kind {
	case core.KindArrival, core.KindEgress, core.KindOutOfBand:
	default:
		c.failf("unknown event kind %d", uint8(e.Kind))
		return
	}
	var flags byte
	if e.Dropped {
		flags |= flagDropped
	}
	if e.Multicast {
		flags |= flagMulticast
	}
	if e.Packet != nil {
		flags |= flagHasPacket
	}
	c.u8(&flags)
	if flags&^byte(flagsKnown) != 0 {
		c.failf("unknown event flags %02x", flags)
		return
	}
	if e.Kind != core.KindEgress && flags&(flagDropped|flagMulticast) != 0 {
		c.failf("dropped/multicast flags on a %s event", e.Kind)
		return
	}
	c.time(&e.Time)
	c.uv(&e.SwitchID)
	c.uv((*uint64)(&e.PacketID))
	c.uv(&e.InPort)
	c.uv(&e.OutPort)
	oob := uint64(e.OOBKind)
	c.uv(&oob)
	if oob > math.MaxUint8 {
		c.failf("out-of-band kind %d", oob)
		return
	}
	c.uv(&e.OOBPort)
	if c.dec {
		e.Dropped, e.Multicast = flags&flagDropped != 0, flags&flagMulticast != 0
		e.OOBKind = packet.OOBKind(oob)
	}
	if flags&flagHasPacket != 0 {
		c.packet(&e.Packet)
	}
}

// packet codes an embedded packet behind a fixed-width 4-byte length,
// so the packet serializes straight into buf and the length is patched
// afterwards (a varint prefix would need the length first, forcing a
// separate packet buffer and a copy). Decoding lands it in the batch's
// packet arena.
func (c *coder) packet(p **packet.Packet) {
	if !c.dec {
		at := len(c.buf)
		buf, err := (*p).AppendEncode(append(c.buf, 0, 0, 0, 0))
		if err != nil {
			c.failf("wire: encode packet: %w", err)
			return
		}
		binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
		c.buf = buf
		return
	}
	var raw []byte
	if n := c.take(4); n != nil {
		raw = c.take(int(binary.BigEndian.Uint32(n)))
	}
	if c.err != nil {
		return
	}
	if pkt, err := c.arena.pkt.Decode(raw); err != nil {
		c.failf("embedded packet: %w", err)
	} else {
		*p = pkt
	}
}

// switchMarks is the part of a span the wire ships: its switch-side
// stages.
func switchMarks(sp *tracer.Span) uint8 { return sp.StageMask() & tracer.SwitchStageMask }

// traceBlock is a traced Batch's tail: the clock-offset estimate, then
// one entry per event carrying a span — its index (strictly ascending),
// span key, switch-stage mask (nonzero) and the marks for each set bit
// (nonzero). Decoding materializes a span on each listed event, its
// marks flagged as remote-clock.
//
// Only SwitchStageMask bits are shipped: every switch-side stage is
// stamped before the send loop encodes the batch (and marks are
// write-once), so the masked view is stable even while a co-located
// engine keeps stamping the span's collector-side stages concurrently.
// That stability is what lets the count and the entries agree, and what
// makes a replayed batch re-encode the same block.
func (c *coder) traceBlock(b *Batch) {
	c.v(&b.ClockOffsetNs)
	disp := uint64(b.ClockDispNs)
	c.uv(&disp)
	var n uint64
	if c.dec {
		b.ClockDispNs = int64(disp)
	} else {
		for i := range b.Events {
			if switchMarks(b.Events[i].Trace) != 0 {
				n++
			}
		}
	}
	c.uv(&n)
	if n > uint64(len(b.Events)) {
		c.failf("wire: trace block declares %d entries for %d events", n, len(b.Events))
		return
	}
	last := -1
	for ; n > 0 && c.err == nil; n-- {
		idx := uint64(last + 1)
		for !c.dec && switchMarks(b.Events[idx].Trace) == 0 {
			idx++
		}
		c.uv(&idx)
		if c.err != nil || idx >= uint64(len(b.Events)) || int(idx) <= last {
			c.failf("wire: trace entry index %d (after %d, %d events)", idx, last, len(b.Events))
			return
		}
		last = int(idx)
		c.span(&b.Events[idx])
	}
}

// span is one trace block entry's key, mask and marks.
func (c *coder) span(e *core.Event) {
	sp := e.Trace
	if c.dec {
		sp = &tracer.Span{DPID: e.SwitchID, PacketID: uint64(e.PacketID), Kind: uint8(e.Kind)}
		e.Trace = sp
	}
	c.be(&sp.Key, 8)
	mask := switchMarks(sp)
	c.u8(&mask)
	if mask == 0 || mask&^tracer.SwitchStageMask != 0 {
		c.failf("wire: trace entry stage mask %02x", mask)
		return
	}
	if c.dec {
		sp.MarkRemote(mask)
	}
	for st := tracer.Stage(0); st < tracer.NumStages; st++ {
		if mask&(1<<st) == 0 {
			continue
		}
		m := sp.Mark(st)
		c.v(&m)
		if m == 0 {
			c.failf("wire: zero trace mark for stage %s", st)
			return
		}
		if c.dec {
			sp.StampAt(st, m)
		}
	}
}

// AppendHello appends an encoded Hello frame, stamped with Version, to
// buf.
func AppendHello(buf []byte, h Hello) []byte {
	c := encoder(buf, FrameHello)
	h.walk(&c)
	buf, _ = c.end() // nothing in a Hello can fail
	return buf
}

// AppendHelloAck appends an encoded HelloAck frame, stamped with
// Version, to buf.
func AppendHelloAck(buf []byte, a HelloAck) []byte {
	c := encoder(buf, FrameHelloAck)
	a.walk(&c)
	buf, _ = c.end()
	return buf
}

// AppendAck appends an encoded Ack frame to buf.
func AppendAck(buf []byte, a Ack) []byte {
	c := encoder(buf, FrameAck)
	a.walk(&c)
	buf, _ = c.end()
	return buf
}

// AppendConfig appends an encoded Config frame, every kind in the one
// layout. It refuses what decode rejects (an unknown kind, a foreign
// field, an oversized list) and a frame overflowing MaxFrameLen.
func AppendConfig(buf []byte, cfg *Config) ([]byte, error) {
	c := encoder(buf, FrameConfig)
	cfg.walk(&c)
	return c.end()
}

// AppendBatch appends an encoded Batch frame to buf. It refuses what
// decode rejects, a packet that cannot encode and a frame overflowing
// MaxFrameLen; buf's original content then stays valid.
func AppendBatch(buf []byte, b *Batch) ([]byte, error) {
	c := encoder(buf, FrameBatch)
	b.walk(&c)
	return c.end()
}

// decodePayload decodes one frame payload (type byte onward) by running
// its type's walk. The whole payload must be consumed: trailing bytes
// are an error, keeping the encoding canonical for the round-trip fuzz
// target. Batch frames decode into pool-backed storage and must be
// Released by the caller.
func decodePayload(payload []byte) (any, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("wire: empty frame payload")
	}
	t := FrameType(payload[0])
	c := coder{dec: true, data: payload, off: 1}
	var frame any
	switch t {
	case FrameHello:
		var h Hello
		h.walk(&c)
		frame = h
	case FrameHelloAck:
		var a HelloAck
		a.walk(&c)
		frame = a
	case FrameAck:
		var a Ack
		a.walk(&c)
		frame = a
	case FrameConfig:
		cfg := new(Config)
		cfg.walk(&c)
		frame = cfg
	case FrameBatch:
		// The header lives inside the arena too: decoding a batch frame
		// performs zero heap allocations in steady state. The header is
		// recycled with the rest of the arena on Release.
		c.arena = batchArenaPool.Get().(*batchArena)
		b := &c.arena.b
		*b = Batch{arena: c.arena}
		b.walk(&c)
		frame = b
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", payload[0])
	}
	if c.err == nil && c.off != len(payload) {
		c.err = fmt.Errorf("wire: %d trailing bytes after %s frame", len(payload)-c.off, t)
	}
	if c.err != nil {
		if c.arena != nil {
			c.arena.b.Release() // hand the arena back on the error path
		}
		return nil, c.err
	}
	return frame, nil
}

// Reader decodes a frame stream from an io.Reader, reusing one buffer
// across frames. Control frames own their data; a decoded Batch borrows
// its event slab and packet storage from a shared sync.Pool — one Get
// per batch, not per event — so the buffer reuse is invisible to
// callers either way.
type Reader struct {
	r   io.Reader
	buf []byte
	hdr [4]byte
}

// NewPooledReader wraps r. The caller calls (*Batch).Release once it no
// longer references a decoded batch's events; that is what keeps the
// collector's ingest path allocation-free per event in steady state. A
// batch that is never released is collected by the GC, so a caller that
// keeps its events owns them.
func NewPooledReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads and decodes the next frame. It returns io.EOF cleanly only
// on a frame boundary; a connection cut mid-frame is
// io.ErrUnexpectedEOF.
func (r *Reader) Next() (any, error) {
	// The length prefix reads into a Reader field, not a local: a local
	// array passed through the io.Reader interface escapes, costing one
	// heap allocation per frame on the ingest hot path.
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return nil, err // io.EOF on a clean boundary
	}
	n := binary.BigEndian.Uint32(r.hdr[:])
	if n > MaxFrameLen {
		return nil, fmt.Errorf("wire: frame length %d exceeds MaxFrameLen %d", n, MaxFrameLen)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return decodePayload(r.buf)
}
