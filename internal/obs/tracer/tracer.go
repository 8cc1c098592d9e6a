// Package tracer records stage-stamped spans for sampled events as
// they traverse the monitoring fabric: dataplane ingress, exporter
// enqueue and batch seal, the wire send, collector receipt, shard
// dispatch, and finally the monitor's verdict. The paper's provenance
// feature (F10) explains *why* the monitor flagged a violation; spans
// explain *when* — per-stage detection latency becomes a first-class
// measurement instead of something inferred from two distant
// histograms.
//
// The design constraints mirror the rest of the telemetry stack
// (internal/obs):
//
//   - Sampling is deterministic: an event is traced iff a strong mix of
//     its identity hash (datapath id, packet id, event kind) lands in
//     the configured 1-in-N class. Every host that derives the key the
//     same way makes the same decision, so a span started on a switch
//     is continued — never re-decided — downstream.
//   - The unsampled path is allocation-free and nearly branch-free:
//     Sample is one hash and one compare, and every Span method is
//     nil-receiver safe, so instrumentation sites stamp uncondition-
//     ally and pay only a pointer test when the event is not traced.
//   - Stage marks are write-once (atomic compare-and-swap from zero),
//     which is what makes replay idempotent: a batch re-sent after a
//     reconnect re-stamps nothing, so wire spans stay exact without
//     any replay-awareness at the instrumentation sites.
//
// Completed spans land in a bounded obs.Log — the same sequence-
// numbered log behind /violations and /alerts — served as NDJSON from
// the /trace introspection endpoint, and their stage-to-stage deltas feed
// per-stage and end-to-end detection-latency histograms in the obs
// registry.
package tracer

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"switchmon/internal/obs"
)

// Stage identifies one instrumentation point along an event's path.
// The order is the event's causal order on a lossless path; spans may
// skip stages (an inline engine has no wire stages, a collector-
// originated span has no switch stages).
type Stage uint8

// Stages, in pipeline order.
const (
	// StageIngress is the dataplane emitting the event.
	StageIngress Stage = iota
	// StageEnqueue is the exporter accepting the event (Publish).
	StageEnqueue
	// StageBatchSeal is the event's batch closing (size or age).
	StageBatchSeal
	// StageWireSend is the batch's frame being written to the socket.
	StageWireSend
	// StageCollectorRecv is the collector decoding the batch.
	StageCollectorRecv
	// StageShardDispatch is the engine dequeuing the event for a shard.
	StageShardDispatch
	// StageVerdict is the engine completing the event's property steps.
	StageVerdict
	// NumStages counts the stages above.
	NumStages
)

var stageNames = [NumStages]string{
	"ingress", "enqueue", "batch_seal", "wire_send",
	"collector_recv", "shard_dispatch", "verdict",
}

// String names the stage as it appears in metric labels and NDJSON.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// SwitchStageMask is the set of stages stamped on the switch host —
// the only stages a wire trace block may carry, and the marks a
// collector must shift by the estimated clock offset before comparing
// them with its own.
const SwitchStageMask uint8 = 1<<StageIngress | 1<<StageEnqueue |
	1<<StageBatchSeal | 1<<StageWireSend

// Span is one sampled event's stage-stamped record. A span is shared
// by pointer between the goroutines that carry its event (exporter
// sender, shard workers), so all mutable state is atomic; spans are
// never copied after creation.
type Span struct {
	// Key is the sampling hash the span was selected on.
	Key uint64
	// DPID, PacketID and Kind identify the event the span traces.
	DPID     uint64
	PacketID uint64
	Kind     uint8

	// remote flags the stages whose marks were taken on another host's
	// clock (set once at wire decode, before the span is shared).
	remote uint8

	marks  [NumStages]atomic.Int64
	offset atomic.Int64 // remote-clock offset estimate (local − remote), ns
	disp   atomic.Int64 // offset dispersion estimate, ns
	refs   atomic.Int32 // outstanding shard deliveries (router-managed)
	done   atomic.Bool  // finished exactly once
}

// Stamp records time.Now for the stage if it has no mark yet. The
// first stamp wins: a replayed batch or a duplicate delivery re-stamps
// nothing. Nil-receiver safe and allocation-free.
func (s *Span) Stamp(st Stage) {
	if s == nil {
		return
	}
	s.marks[st].CompareAndSwap(0, time.Now().UnixNano())
}

// StampAt records an explicit mark (wire decode, tests). Zero marks
// are ignored — zero is the "unstamped" sentinel.
func (s *Span) StampAt(st Stage, ns int64) {
	if s == nil || ns == 0 {
		return
	}
	s.marks[st].CompareAndSwap(0, ns)
}

// Mark returns the stage's mark in ns (0 when unstamped).
func (s *Span) Mark(st Stage) int64 {
	if s == nil {
		return 0
	}
	return s.marks[st].Load()
}

// StageMask reports which stages are stamped, as a bitmask.
func (s *Span) StageMask() uint8 {
	if s == nil {
		return 0
	}
	var m uint8
	for st := Stage(0); st < NumStages; st++ {
		if s.marks[st].Load() != 0 {
			m |= 1 << st
		}
	}
	return m
}

// MarkRemote flags mask's stages as stamped on a remote clock. Called
// once at wire decode before the span is shared across goroutines.
func (s *Span) MarkRemote(mask uint8) {
	if s != nil {
		s.remote = mask
	}
}

// SetClock records the clock-offset estimate for the span's remote
// marks: offset is (local clock − remote clock) in ns, disp the
// estimate's dispersion.
func (s *Span) SetClock(offsetNs, dispNs int64) {
	if s == nil {
		return
	}
	s.offset.Store(offsetNs)
	s.disp.Store(dispNs)
}

// AddRefs registers n pending deliveries (a router fanning the event
// out to n shards). Release undoes one.
func (s *Span) AddRefs(n int32) {
	if s != nil {
		s.refs.Add(n)
	}
}

// Release drops one delivery reference and reports whether it was the
// last — the signal that the span's event has been fully processed
// and the verdict stage can be stamped. A span that never saw AddRefs
// (single-consumer pipeline) releases immediately.
func (s *Span) Release() bool {
	if s == nil {
		return false
	}
	return s.refs.Add(-1) <= 0
}

// adjusted returns the stage's mark shifted into the local clock.
func (s *Span) adjusted(st Stage) int64 {
	m := s.marks[st].Load()
	if m != 0 && s.remote&(1<<st) != 0 {
		m += s.offset.Load()
	}
	return m
}

// SpanRecord is the JSON rendering of a completed span: raw marks,
// the clock estimate applied to remote stages, per-stage durations
// (from the previous stamped stage), and the end-to-end detection
// latency when both endpoints were stamped.
type SpanRecord struct {
	// Seq numbers completed spans in Finish order, starting at 0. The
	// log evicts oldest-first, so retained seqs are contiguous: a
	// poller reading ?since=s that gets a first record with seq > s+1
	// has detected a gap (spans evicted between polls).
	Seq      uint64           `json:"seq"`
	Key      uint64           `json:"key"`
	DPID     uint64           `json:"dpid"`
	PacketID uint64           `json:"packet_id"`
	Kind     uint8            `json:"kind"`
	OffsetNs int64            `json:"clock_offset_ns,omitempty"`
	DispNs   int64            `json:"clock_dispersion_ns,omitempty"`
	Marks    map[string]int64 `json:"marks"`
	StageNs  map[string]int64 `json:"stage_ns,omitempty"`
	E2ENs    int64            `json:"detection_latency_ns,omitempty"`
}

// Config parameterizes a Tracer.
type Config struct {
	// SampleN traces one event in SampleN (by identity-hash class).
	// 0 disables sampling: Sample always returns nil, though the
	// tracer still finishes spans adopted from the wire.
	SampleN uint64
	// Ring bounds the completed-span ring (default 2048).
	Ring int
	// Metrics receives the tracer's series; nil-safe.
	Metrics *obs.Registry
	// Labels are attached to every series.
	Labels []obs.Label
}

// slot is the log's completed-span representation: fixed-size, no
// maps, so Finish renders a span without allocating. Page expands slots
// into JSON-friendly SpanRecords lazily, off the hot path. The deltas
// bitmask records which stages carry a stage_ns entry (a delta can
// legitimately clamp to zero, so presence can't be inferred from the
// value).
type slot struct {
	seq                 uint64
	key, dpid, packetID uint64
	kind                uint8
	deltas              uint8
	offsetNs, dispNs    int64
	marks               [NumStages]int64
	stageNs             [NumStages]int64
	e2eNs               int64
}

// record expands a slot into the /trace wire form.
func (sl *slot) record() SpanRecord {
	rec := SpanRecord{
		Seq: sl.seq,
		Key: sl.key, DPID: sl.dpid, PacketID: sl.packetID, Kind: sl.kind,
		OffsetNs: sl.offsetNs, DispNs: sl.dispNs, E2ENs: sl.e2eNs,
		Marks: make(map[string]int64, int(NumStages)),
	}
	for st := Stage(0); st < NumStages; st++ {
		if sl.marks[st] != 0 {
			rec.Marks[st.String()] = sl.marks[st]
		}
		if sl.deltas&(1<<st) != 0 {
			if rec.StageNs == nil {
				rec.StageNs = make(map[string]int64, int(NumStages))
			}
			rec.StageNs[st.String()] = sl.stageNs[st]
		}
	}
	return rec
}

// Tracer samples spans, finishes them into latency histograms, and
// retains completed spans in a bounded obs.Log for /trace. All methods
// are nil-receiver safe.
type Tracer struct {
	n     uint64
	spans *obs.Log[slot]

	sampledC   *obs.Counter
	completedC *obs.Counter
	stageH     [NumStages]*obs.Histogram
	e2eH       *obs.Histogram
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 2048
	}
	t := &Tracer{n: cfg.SampleN, spans: obs.NewLog(cfg.Ring, func(sl *slot, seq uint64) { sl.seq = seq })}
	if reg := cfg.Metrics; reg != nil {
		t.sampledC = reg.Counter("switchmon_trace_spans_sampled_total",
			"spans originated by the deterministic sampler", cfg.Labels...)
		t.completedC = reg.Counter("switchmon_trace_spans_completed_total",
			"spans finished into the ring and histograms", cfg.Labels...)
		for st := Stage(0); st < NumStages; st++ {
			lbls := append(append([]obs.Label(nil), cfg.Labels...), obs.L("stage", st.String()))
			t.stageH[st] = reg.Histogram("switchmon_trace_stage_ns",
				"ns from the previous stamped stage to this one", lbls...)
		}
		t.e2eH = reg.Histogram("switchmon_trace_detection_latency_ns",
			"ns from dataplane ingress to monitor verdict", cfg.Labels...)
	}
	return t
}

// SampleN reports the configured 1-in-N rate (0 = sampling off).
func (t *Tracer) SampleN() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Key derives the sampling key for an event's identity. Every host
// computes it the same way, so sampling decisions agree fleet-wide.
// The combine is word-at-a-time — three xor-multiply steps, not a byte
// loop — because this runs on every event, sampled or not, and
// obs.InSample's finalizer supplies the avalanche the short chain lacks.
func Key(dpid, packetID uint64, kind uint8) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := (offset ^ dpid) * prime
	h = (h ^ packetID) * prime
	return (h ^ uint64(kind)) * prime
}

// Sampled reports whether the identity would be traced, without
// allocating a span.
func (t *Tracer) Sampled(dpid, packetID uint64, kind uint8) bool {
	if t == nil || t.n == 0 {
		return false
	}
	return obs.InSample(Key(dpid, packetID, kind), t.n)
}

// Sample starts a span for the event identity if it falls in the
// sampled 1-in-N class, returning nil otherwise. The unsampled path
// performs no allocation — one hash, one compare.
func (t *Tracer) Sample(dpid, packetID uint64, kind uint8) *Span {
	if t == nil || t.n == 0 {
		return nil
	}
	key := Key(dpid, packetID, kind)
	if !obs.InSample(key, t.n) {
		return nil
	}
	t.sampledC.Inc()
	return &Span{Key: key, DPID: dpid, PacketID: packetID, Kind: kind}
}

// Finish completes a span: exactly once, it renders the span into the
// log and feeds the latency histograms, allocating nothing. Duplicate
// calls (an event delivered to several shards, a span finished by both
// an engine and a shutdown path) are no-ops.
func (t *Tracer) Finish(s *Span) {
	if t == nil || s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	t.completedC.Inc()

	sl := slot{
		key: s.Key, dpid: s.DPID, packetID: s.PacketID, kind: s.Kind,
		offsetNs: s.offset.Load(), dispNs: s.disp.Load(),
	}
	prev := int64(0)
	for st := Stage(0); st < NumStages; st++ {
		raw := s.marks[st].Load()
		if raw == 0 {
			continue
		}
		sl.marks[st] = raw
		adj := s.adjusted(st)
		if prev != 0 {
			d := adj - prev
			if d < 0 {
				d = 0 // clock-offset error; clamp rather than wrap
			}
			sl.deltas |= 1 << st
			sl.stageNs[st] = d
			t.stageH[st].Observe(uint64(d))
		}
		prev = adj
	}
	if in, v := s.adjusted(StageIngress), s.adjusted(StageVerdict); in != 0 && v != 0 {
		d := v - in
		if d < 0 {
			d = 0
		}
		sl.e2eNs = d
		t.e2eH.Observe(uint64(d))
	}
	t.spans.Record(sl)
}

// Total counts spans ever finished (including ones evicted from the
// log).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.spans.Total()
}

// Snapshot renders the retained completed spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	recs, _ := t.Page(obs.All)
	return recs
}

// Page renders the completed spans p selects, oldest first, with the
// all-time total read in the same critical section — the /trace page
// and its X-Trace-Total header.
func (t *Tracer) Page(p obs.Page) ([]SpanRecord, uint64) {
	if t == nil {
		return nil, 0
	}
	slots, total := t.spans.Page(p)
	out := make([]SpanRecord, len(slots))
	for i := range slots {
		out[i] = slots[i].record()
	}
	return out, total
}

// WriteNDJSON renders records one JSON object per line — the /trace
// endpoint's format (application/x-ndjson).
func WriteNDJSON(w io.Writer, recs []SpanRecord) error {
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
