// Package wire is the monitoring fabric's binary protocol: a versioned,
// length-prefixed frame codec connecting switch-side exporters
// (internal/exporter) to the central collector (internal/collector).
// The paper's scalability story (Sec. 3.3) runs monitoring adjacent to
// the switch and ships events to where the property state lives; this
// package is the ship.
//
// A connection carries six frame types:
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
//	ConfigAck    exporter → collector: the high-water epoch of a kind
//	             the exporter has applied (negotiated kinds only).
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
// last one applied (HighWater), and acks the highest epoch applied.
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload, whose first byte is the frame type. Integers inside payloads
// are varints, timestamps are zigzag-encoded UnixNano, and packets ride
// as length-prefixed frames serialized by the packet codec. Encoding is
// append-style and allocation-free once the destination buffer has
// capacity (packets serialize via packet.AppendEncode). Decoding goes
// through Reader.Next, and every decoded batch borrows pooled storage
// that the caller hands back with Release. Decoding is strict — unknown
// frame types, unknown flag bits, truncated or trailing bytes, and
// oversized frames are all errors, so a confused peer fails fast
// instead of feeding garbage to the monitor.
package wire

import (
	"encoding/binary"
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
	// Types 5–9 are retired: 5 carried traced batches, which now ride
	// FrameBatch, and 6–9 per-kind config frames in another layout. They
	// must decode as unknown, never be misread.

	// FrameConfig carries one kind of replicated configuration
	// (collector → exporter; negotiated kinds only).
	FrameConfig FrameType = 10
	// FrameConfigAck acknowledges a kind's applied epoch (exporter →
	// collector; negotiated kinds only).
	FrameConfigAck FrameType = 11
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
	case FrameConfigAck:
		return "config-ack"
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
	Name string
	// Tenant is the owning tenant for quota accounting ("" = default).
	Tenant string
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
	// Epoch is the configuration's generation (the collector engine's
	// lifecycle epoch, or the fleet epoch); HighWater judges staleness.
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

// ConfigAck acknowledges that the exporter has applied every config of
// the kind up to Epoch: for the fleet, re-routed behind its drain fence.
type ConfigAck struct {
	Kind  ConfigKind
	Epoch uint64
}

// maxConfigEntries bounds a Config's property and member counts (the
// engines route at most 64 properties), capping what a corrupt count can
// allocate.
const maxConfigEntries = 1 << 10

// check is what encode and decode both enforce: a known kind, no field
// of another kind, and lists within maxConfigEntries.
func (cfg *Config) check() error {
	switch {
	case !cfg.Kind.valid():
		return fmt.Errorf("wire: unknown config kind %d", uint8(cfg.Kind))
	case cfg.Kind != ConfigProperties && (len(cfg.Props) > 0 || cfg.Source != ""):
		return fmt.Errorf("wire: %s config carries a property set", cfg.Kind)
	case cfg.Kind != ConfigFleet && len(cfg.Members) > 0:
		return fmt.Errorf("wire: %s config carries fleet members", cfg.Kind)
	case len(cfg.Props) > maxConfigEntries || len(cfg.Members) > maxConfigEntries:
		return fmt.Errorf("wire: config lists %d properties and %d members, max %d", len(cfg.Props), len(cfg.Members), maxConfigEntries)
	}
	return nil
}

// HighWater is one config kind's high-water mark and the one stale rule:
// the exporter, the collector's retention and the federated router all
// apply it. The zero value has admitted nothing.
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

// beginFrame reserves the 4-byte length prefix and appends the type
// byte, returning the offset endFrame patches.
func beginFrame(buf []byte, t FrameType) ([]byte, int) {
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0, byte(t))
	return buf, lenAt
}

// endFrame patches the length prefix reserved by beginFrame.
func endFrame(buf []byte, lenAt int) ([]byte, error) {
	n := len(buf) - lenAt - 4
	if n > MaxFrameLen {
		return nil, fmt.Errorf("wire: frame payload %d exceeds MaxFrameLen %d", n, MaxFrameLen)
	}
	binary.BigEndian.PutUint32(buf[lenAt:lenAt+4], uint32(n))
	return buf, nil
}

// AppendHello appends an encoded Hello frame, stamped with Version, to
// buf.
func AppendHello(buf []byte, h Hello) []byte {
	buf, lenAt := beginFrame(buf, FrameHello)
	buf = binary.BigEndian.AppendUint32(buf, helloMagic)
	buf = binary.BigEndian.AppendUint16(buf, Version)
	buf = binary.AppendUvarint(buf, h.DPID)
	buf = binary.AppendUvarint(buf, h.NextSeq)
	buf = binary.AppendUvarint(buf, h.Features)
	buf = binary.AppendVarint(buf, h.SentNs)
	buf, _ = endFrame(buf, lenAt) // fixed-size payload, cannot overflow
	return buf
}

// AppendHelloAck appends an encoded HelloAck frame, stamped with
// Version, to buf.
func AppendHelloAck(buf []byte, a HelloAck) []byte {
	buf, lenAt := beginFrame(buf, FrameHelloAck)
	buf = binary.BigEndian.AppendUint16(buf, Version)
	buf = binary.AppendUvarint(buf, a.AckSeq)
	buf = binary.AppendUvarint(buf, a.Features)
	buf = binary.AppendVarint(buf, a.RecvNs)
	buf = binary.AppendVarint(buf, a.SentNs)
	buf, _ = endFrame(buf, lenAt)
	return buf
}

// AppendAck appends an encoded Ack frame to buf.
func AppendAck(buf []byte, a Ack) []byte {
	buf, lenAt := beginFrame(buf, FrameAck)
	buf = binary.AppendUvarint(buf, a.AckSeq)
	buf = binary.AppendVarint(buf, a.SentNs)
	buf, _ = endFrame(buf, lenAt)
	return buf
}

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendConfig appends an encoded Config frame, every kind in the one
// layout. It refuses what decode rejects (an unknown kind, a foreign
// field, an oversized list) and a frame overflowing MaxFrameLen.
func AppendConfig(buf []byte, cfg *Config) ([]byte, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	buf, lenAt := beginFrame(buf, FrameConfig)
	buf = append(buf, byte(cfg.Kind))
	buf = binary.AppendUvarint(buf, cfg.Epoch)
	buf = binary.AppendUvarint(buf, uint64(len(cfg.Props)))
	for i := range cfg.Props {
		buf = appendString(buf, cfg.Props[i].Name)
		buf = appendString(buf, cfg.Props[i].Tenant)
	}
	buf = appendString(buf, cfg.Source)
	buf = binary.AppendUvarint(buf, uint64(len(cfg.Members)))
	for i := range cfg.Members {
		buf = appendString(buf, cfg.Members[i].Addr)
		buf = binary.AppendUvarint(buf, cfg.Members[i].Weight)
	}
	return endFrame(buf, lenAt)
}

// AppendConfigAck appends an encoded ConfigAck frame. It refuses an
// unknown kind, which decode rejects.
func AppendConfigAck(buf []byte, a ConfigAck) ([]byte, error) {
	if !a.Kind.valid() {
		return nil, fmt.Errorf("wire: unknown config kind %d", uint8(a.Kind))
	}
	buf, lenAt := beginFrame(buf, FrameConfigAck)
	buf = append(buf, byte(a.Kind))
	buf = binary.AppendUvarint(buf, a.Epoch)
	return endFrame(buf, lenAt)
}

// AppendBatch appends an encoded Batch frame to buf. Events serialize
// in order; the error sources are what decode rejects (too many events,
// a sequence range past MaxUint64), a packet that cannot encode and a
// frame overflowing MaxFrameLen, in which case buf's original content is
// still valid but the returned slice must be discarded.
func AppendBatch(buf []byte, b *Batch) ([]byte, error) {
	if err := checkBatch(b.FirstSeq, uint64(len(b.Events))); err != nil {
		return nil, err
	}
	buf, lenAt := beginFrame(buf, FrameBatch)
	buf = binary.AppendUvarint(buf, b.FirstSeq)
	buf = binary.AppendUvarint(buf, uint64(len(b.Events)))
	var err error
	for i := range b.Events {
		buf, err = appendEvent(buf, &b.Events[i])
		if err != nil {
			return nil, err
		}
	}
	if b.Traced {
		buf = appendTraceBlock(buf, b)
	}
	return endFrame(buf, lenAt)
}

// checkBatch is the header rule encode and decode both enforce: at most
// MaxBatchEvents events, and sequence numbers that do not wrap — an
// event past seq MaxUint64 would make the collector's cumulative ack run
// backwards.
func checkBatch(firstSeq, n uint64) error {
	if n > MaxBatchEvents {
		return fmt.Errorf("wire: batch of %d events exceeds MaxBatchEvents %d", n, MaxBatchEvents)
	}
	if n > 0 && firstSeq > math.MaxUint64-(n-1) {
		return fmt.Errorf("wire: batch of %d events from seq %d overflows the sequence space", n, firstSeq)
	}
	return nil
}

// appendTraceBlock appends the batch's trace block: the clock-offset
// estimate, then one entry per event carrying a span — its index, span
// key, switch-stage mask, and the marks for each set bit.
//
// Only SwitchStageMask bits are shipped: every switch-side stage is
// stamped before the send loop encodes the batch (and marks are
// write-once), so the masked view is stable even while a co-located
// engine keeps stamping the span's collector-side stages concurrently.
// That stability is what lets the two passes below (count, then emit)
// agree, and what makes a replayed batch re-encode the same block.
func appendTraceBlock(buf []byte, b *Batch) []byte {
	buf = binary.AppendVarint(buf, b.ClockOffsetNs)
	buf = binary.AppendUvarint(buf, uint64(b.ClockDispNs))
	cnt := 0
	for i := range b.Events {
		if b.Events[i].Trace.StageMask()&tracer.SwitchStageMask != 0 {
			cnt++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(cnt))
	for i := range b.Events {
		sp := b.Events[i].Trace
		mask := sp.StageMask() & tracer.SwitchStageMask
		if mask == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(i))
		buf = binary.BigEndian.AppendUint64(buf, sp.Key)
		buf = append(buf, mask)
		for st := tracer.Stage(0); st < tracer.NumStages; st++ {
			if mask&(1<<st) != 0 {
				buf = binary.AppendVarint(buf, sp.Mark(st))
			}
		}
	}
	return buf
}

// appendEvent appends one event's encoding.
func appendEvent(buf []byte, e *core.Event) ([]byte, error) {
	buf = append(buf, byte(e.Kind))
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
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, e.Time.UnixNano())
	buf = binary.AppendUvarint(buf, e.SwitchID)
	buf = binary.AppendUvarint(buf, uint64(e.PacketID))
	buf = binary.AppendUvarint(buf, e.InPort)
	buf = binary.AppendUvarint(buf, e.OutPort)
	buf = binary.AppendUvarint(buf, uint64(e.OOBKind))
	buf = binary.AppendUvarint(buf, e.OOBPort)
	if e.Packet == nil {
		return buf, nil
	}
	// Length-prefix the packet: reserve a fixed-width 4-byte length so
	// the packet can serialize straight into buf and the prefix be
	// patched afterwards (a varint prefix would need the length first,
	// forcing a separate packet buffer and a copy).
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf, err := e.Packet.AppendEncode(buf)
	if err != nil {
		return nil, fmt.Errorf("wire: encode packet: %w", err)
	}
	binary.BigEndian.PutUint32(buf[lenAt:lenAt+4], uint32(len(buf)-lenAt-4))
	return buf, nil
}

// cursor walks a frame payload with strict varint reads.
type cursor struct {
	data []byte
	off  int
}

func (c *cursor) remaining() int { return len(c.data) - c.off }

func (c *cursor) byte() (byte, error) {
	if c.off >= len(c.data) {
		return 0, fmt.Errorf("wire: truncated frame")
	}
	b := c.data[c.off]
	c.off++
	return b, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint")
	}
	c.off += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint")
	}
	c.off += n
	return v, nil
}

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, fmt.Errorf("wire: truncated frame (want %d bytes, have %d)", n, c.remaining())
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// decodePayload decodes one frame payload (type byte onward). The whole
// payload must be consumed: trailing bytes are an error, keeping the
// encoding canonical for the round-trip fuzz target. Batch frames
// decode into pool-backed storage and must be Released by the caller.
func decodePayload(payload []byte) (any, error) {
	c := &cursor{data: payload}
	tb, err := c.byte()
	if err != nil {
		return nil, fmt.Errorf("wire: empty frame payload")
	}
	var frame any
	switch FrameType(tb) {
	case FrameHello:
		frame, err = decodeHello(c)
	case FrameHelloAck:
		frame, err = decodeHelloAck(c)
	case FrameBatch:
		frame, err = decodeBatch(c)
	case FrameAck:
		frame, err = decodeAck(c)
	case FrameConfig:
		frame, err = decodeConfig(c)
	case FrameConfigAck:
		frame, err = decodeConfigAck(c)
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", tb)
	}
	if err != nil {
		return nil, err
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %s frame", c.remaining(), FrameType(tb))
	}
	return frame, nil
}

func decodeHello(c *cursor) (Hello, error) {
	magic, err := c.u32()
	if err != nil {
		return Hello{}, err
	}
	if magic != helloMagic {
		return Hello{}, fmt.Errorf("wire: bad hello magic %08x (peer is not a monitoring exporter?)", magic)
	}
	if err := c.version(); err != nil {
		return Hello{}, err
	}
	var h Hello
	if h.DPID, err = c.uvarint(); err != nil {
		return Hello{}, err
	}
	if h.NextSeq, err = c.uvarint(); err != nil {
		return Hello{}, err
	}
	if h.Features, err = c.uvarint(); err != nil {
		return Hello{}, err
	}
	if h.SentNs, err = c.varint(); err != nil {
		return Hello{}, err
	}
	return h, nil
}

func decodeHelloAck(c *cursor) (HelloAck, error) {
	if err := c.version(); err != nil {
		return HelloAck{}, err
	}
	var a HelloAck
	var err error
	if a.AckSeq, err = c.uvarint(); err != nil {
		return HelloAck{}, err
	}
	if a.Features, err = c.uvarint(); err != nil {
		return HelloAck{}, err
	}
	if a.RecvNs, err = c.varint(); err != nil {
		return HelloAck{}, err
	}
	if a.SentNs, err = c.varint(); err != nil {
		return HelloAck{}, err
	}
	return a, nil
}

// version reads a handshake frame's protocol version, which must be
// Version.
func (c *cursor) version() error {
	b, err := c.take(2)
	if err != nil {
		return err
	}
	if ver := binary.BigEndian.Uint16(b); ver != Version {
		return fmt.Errorf("wire: protocol version %d, want %d", ver, Version)
	}
	return nil
}

func decodeAck(c *cursor) (Ack, error) {
	var a Ack
	var err error
	if a.AckSeq, err = c.uvarint(); err != nil {
		return Ack{}, err
	}
	if a.SentNs, err = c.varint(); err != nil {
		return Ack{}, err
	}
	return a, nil
}

// str reads a uvarint-length-prefixed string, copying out of the frame
// buffer (the Reader reuses it across frames).
func (c *cursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	b, err := c.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// count reads a Config list's length, bounded by maxConfigEntries and by
// the bytes left (an entry takes at least two) before any allocation.
func (c *cursor) count() (int, error) {
	n, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if n > maxConfigEntries || n > uint64(c.remaining()) {
		return 0, fmt.Errorf("wire: config declares %d entries in %d bytes, max %d", n, c.remaining(), maxConfigEntries)
	}
	return int(n), nil
}

func decodeConfig(c *cursor) (*Config, error) {
	kind, err := c.byte()
	if err != nil {
		return nil, err
	}
	cfg := &Config{Kind: ConfigKind(kind)}
	if cfg.Epoch, err = c.uvarint(); err != nil {
		return nil, err
	}
	n, err := c.count()
	if err != nil {
		return nil, err
	}
	cfg.Props = make([]PropMeta, n)
	for i := range cfg.Props {
		if cfg.Props[i].Name, err = c.str(); err != nil {
			return nil, err
		}
		if cfg.Props[i].Tenant, err = c.str(); err != nil {
			return nil, err
		}
	}
	if cfg.Source, err = c.str(); err != nil {
		return nil, err
	}
	if n, err = c.count(); err != nil {
		return nil, err
	}
	cfg.Members = make([]FleetMember, n)
	for i := range cfg.Members {
		if cfg.Members[i].Addr, err = c.str(); err != nil {
			return nil, err
		}
		if cfg.Members[i].Weight, err = c.uvarint(); err != nil {
			return nil, err
		}
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func decodeConfigAck(c *cursor) (ConfigAck, error) {
	kind, err := c.byte()
	if err != nil {
		return ConfigAck{}, err
	}
	a := ConfigAck{Kind: ConfigKind(kind)}
	if !a.Kind.valid() {
		return ConfigAck{}, fmt.Errorf("wire: unknown config kind %d", kind)
	}
	if a.Epoch, err = c.uvarint(); err != nil {
		return ConfigAck{}, err
	}
	return a, nil
}

// decodeBatch reads a Batch. Bytes left after the events are the trace
// block, so a batch is traced iff it has one.
func decodeBatch(c *cursor) (*Batch, error) {
	// The header lives inside the arena too: decoding a batch frame
	// performs zero heap allocations in steady state. The header is
	// recycled with the rest of the arena on Release.
	ba := batchArenaPool.Get().(*batchArena)
	b := &ba.b
	*b = Batch{arena: ba}
	var err error
	if b.FirstSeq, err = c.uvarint(); err != nil {
		b.Release()
		return nil, err
	}
	count, err := c.uvarint()
	if err != nil {
		b.Release()
		return nil, err
	}
	if err := checkBatch(b.FirstSeq, count); err != nil {
		b.Release()
		return nil, err
	}
	if count > 0 {
		// Sanity-bound the allocation by the bytes actually present:
		// even a packetless event costs at least 9 payload bytes.
		if int(count) > c.remaining() {
			b.Release()
			return nil, fmt.Errorf("wire: batch declares %d events in %d bytes", count, c.remaining())
		}
		b.Events = ba.take(int(count))
		for i := range b.Events {
			if err := decodeEvent(c, &b.Events[i], &ba.pkt); err != nil {
				b.Release() // hand the arena back on the error path
				return nil, fmt.Errorf("wire: event %d: %w", i, err)
			}
		}
	}
	if c.remaining() > 0 {
		b.Traced = true
		if err := decodeTraceBlock(c, b); err != nil {
			b.Release()
			return nil, err
		}
	}
	return b, nil
}

// decodeTraceBlock reads a Batch's trailing trace block and
// materializes a span on each listed event, carrying the switch-side
// marks flagged as remote-clock. Strictness mirrors the rest of the
// codec: entry indexes must be in range and strictly ascending, stage
// masks nonzero and within SwitchStageMask, marks nonzero — every
// accepted block re-encodes byte-identically.
func decodeTraceBlock(c *cursor, b *Batch) error {
	var err error
	if b.ClockOffsetNs, err = c.varint(); err != nil {
		return err
	}
	disp, err := c.uvarint()
	if err != nil {
		return err
	}
	b.ClockDispNs = int64(disp)
	count, err := c.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(len(b.Events)) {
		return fmt.Errorf("wire: trace block declares %d entries for %d events", count, len(b.Events))
	}
	last := -1
	for k := uint64(0); k < count; k++ {
		idx, err := c.uvarint()
		if err != nil {
			return err
		}
		if idx >= uint64(len(b.Events)) || int(idx) <= last {
			return fmt.Errorf("wire: trace entry index %d (after %d, %d events)", idx, last, len(b.Events))
		}
		last = int(idx)
		keyB, err := c.take(8)
		if err != nil {
			return err
		}
		mask, err := c.byte()
		if err != nil {
			return err
		}
		if mask == 0 || mask&^tracer.SwitchStageMask != 0 {
			return fmt.Errorf("wire: trace entry stage mask %02x", mask)
		}
		e := &b.Events[idx]
		sp := &tracer.Span{
			Key:      binary.BigEndian.Uint64(keyB),
			DPID:     e.SwitchID,
			PacketID: uint64(e.PacketID),
			Kind:     uint8(e.Kind),
		}
		sp.MarkRemote(mask)
		for st := tracer.Stage(0); st < tracer.NumStages; st++ {
			if mask&(1<<st) == 0 {
				continue
			}
			m, err := c.varint()
			if err != nil {
				return err
			}
			if m == 0 {
				return fmt.Errorf("wire: zero trace mark for stage %s", st)
			}
			sp.StampAt(st, m)
		}
		e.Trace = sp
	}
	return nil
}

// decodeEvent decodes one event, its embedded packet into pa.
func decodeEvent(c *cursor, e *core.Event, pa *packet.Arena) error {
	kb, err := c.byte()
	if err != nil {
		return err
	}
	kind := core.EventKind(kb)
	switch kind {
	case core.KindArrival, core.KindEgress, core.KindOutOfBand:
	default:
		return fmt.Errorf("unknown event kind %d", kb)
	}
	e.Kind = kind
	flags, err := c.byte()
	if err != nil {
		return err
	}
	if flags&^byte(flagsKnown) != 0 {
		return fmt.Errorf("unknown event flags %02x", flags)
	}
	if kind != core.KindEgress && flags&(flagDropped|flagMulticast) != 0 {
		return fmt.Errorf("dropped/multicast flags on a %s event", kind)
	}
	e.Dropped = flags&flagDropped != 0
	e.Multicast = flags&flagMulticast != 0
	nanos, err := c.varint()
	if err != nil {
		return err
	}
	e.Time = time.Unix(0, nanos)
	if e.SwitchID, err = c.uvarint(); err != nil {
		return err
	}
	pid, err := c.uvarint()
	if err != nil {
		return err
	}
	e.PacketID = core.PacketID(pid)
	if e.InPort, err = c.uvarint(); err != nil {
		return err
	}
	if e.OutPort, err = c.uvarint(); err != nil {
		return err
	}
	oobKind, err := c.uvarint()
	if err != nil {
		return err
	}
	e.OOBKind = packet.OOBKind(oobKind)
	if e.OOBPort, err = c.uvarint(); err != nil {
		return err
	}
	if flags&flagHasPacket == 0 {
		return nil
	}
	pktLen, err := c.u32()
	if err != nil {
		return err
	}
	raw, err := c.take(int(pktLen))
	if err != nil {
		return err
	}
	pkt, err := pa.Decode(raw)
	if err != nil {
		return fmt.Errorf("embedded packet: %w", err)
	}
	e.Packet = pkt
	return nil
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
