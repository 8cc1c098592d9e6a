// Package exporter is the switch-side half of the distributed
// monitoring fabric: it subscribes to a dataplane switch's event stream
// (sw.Observe(exp.Publish)), assigns every observation a per-datapath
// sequence number, seals a batch whenever the sender is free or the
// batch is full, and ships wire.Batch frames to the central collector
// (internal/collector) over TCP.
//
// The paper's deployment question — "how much monitoring belongs on the
// switch?" — gets a concrete answer here: the switch keeps only a
// sequencer and a bounded queue; the stateful property engine runs
// wherever the collector does. What the fabric promises is that the
// soundness story survives the move:
//
//   - Delivery is at-least-once. Batches are retained until the
//     collector's cumulative Ack covers them; a reconnect replays the
//     unacknowledged tail from the HelloAck resume point and the
//     collector deduplicates by sequence number.
//   - Loss is never silent. Every event the exporter sheds (bounded
//     queue overflow under ShedDropNewest) or abandons (unacked at
//     Close) is recorded in a local soundness ledger under reason
//     wire-loss, and — because shed events consume sequence numbers
//     that are then never sent — surfaces independently at the
//     collector as a sequence gap, which marks the authoritative
//     per-property ledger there. A gap at the tail of the stream, with
//     no later batch to reveal it, is surfaced by an empty
//     sequence-advance batch queued right behind the loss, so even the
//     last event's disappearance is detectable. NoteLoss extends the
//     same guarantee to
//     loss upstream of the exporter: a fault.Injector wrapping Publish
//     reports its drops via OnDrop → NoteLoss, so even "the link ate
//     it" becomes a detectable gap rather than silently missing state
//     transitions.
//
// The queue policy is a core.ShedPolicy: ShedBlock applies backpressure
// to the dataplane (never loses events), ShedDropNewest sheds the batch
// being enqueued. Already-sent batches awaiting ack are never shed — they
// may be applied at the collector, and dropping them would turn
// "unacknowledged" into "unaccountable".
package exporter

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/sim"
	"switchmon/internal/wire"
)

// Config parameterizes an Exporter. The zero value of every field has a
// usable default except Addr (required unless Dial is set).
type Config struct {
	// Addr is the collector's TCP address (host:port).
	Addr string
	// DPID is the datapath id announced in the Hello handshake. Events
	// published with SwitchID zero are stamped with it.
	DPID uint64
	// TargetSealLatency, when positive, lets a seal controller lower the
	// batch target below BatchSizeMax: the largest size expected to fill
	// within this latency budget at the observed arrival rate (see
	// sealController), clamped to [1, BatchSizeMax]. Zero runs without the
	// controller, on the plain cap. Either way a sender with nothing
	// unsent seals the open batch itself and ships it, so batches grow
	// only while a write or a full queue holds the sender back.
	TargetSealLatency time.Duration
	// BatchSizeMax caps every batch (default 256): a batch that reaches
	// the target seals, and the target never exceeds this cap.
	BatchSizeMax int
	// Now overrides the clock the seal controller reads its arrival gaps
	// from (default time.Now); without a controller it is never read.
	// Tests inject a fake clock to pin controller trajectories
	// deterministically.
	Now func() time.Time
	// QueueBatches bounds the send queue, counting both unsent batches
	// and sent batches awaiting ack (default 64).
	QueueBatches int
	// Shed is the queue-overflow policy (default core.ShedBlock).
	Shed core.ShedPolicy
	// BackoffMin and BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 10ms and 2s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration
	// Metrics, when non-nil, receives the exporter's series, labeled
	// {dpid, collector=Addr} so the routes of one switch to N collectors
	// register N series. All instruments are nil-safe, so a nil registry
	// costs nothing.
	Metrics *obs.Registry
	// Tracer, when non-nil, enables event tracing on this exporter: the
	// enqueue, batch-seal and wire-send stages are stamped on sampled
	// spans, FeatureTrace is offered in the handshake, and once the
	// collector accepts it batches carry their spans' switch-side marks
	// plus the clock-offset estimate in a trace block.
	Tracer *tracer.Tracer
	// OnConfig holds one handler per config kind, indexed by
	// wire.ConfigKind (index 0 unused); the Hello offers the kinds with
	// one. Every pushed config is handed over off the reader goroutine (a
	// re-route drain-fences on this connection's acks), one at a time per
	// kind in arrival order; the handler judges staleness. Close does not
	// wait: a handler may still be running after it returns. An array, so
	// a copied Config never shares it.
	OnConfig [wire.NumConfigKinds]func(*wire.Config)
	// Dial overrides the transport, for tests and fault injection.
	Dial func() (net.Conn, error)
}

func (cfg *Config) fillDefaults() {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.BatchSizeMax <= 0 {
		cfg.BatchSizeMax = 256
	}
	if cfg.QueueBatches <= 0 {
		cfg.QueueBatches = 64
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = time.Second
	}
	if cfg.Dial == nil {
		addr := cfg.Addr
		timeout := cfg.DialTimeout
		cfg.Dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
	}
}

// Stats is a snapshot of the exporter's counters.
type Stats struct {
	// Published counts events accepted by Publish.
	Published uint64
	// LossNoted counts sequence numbers consumed by NoteLoss.
	LossNoted uint64
	// ShedEvents counts events lost to queue overflow.
	ShedEvents uint64
	// BatchesSent and BatchesAcked count wire batches (resends recount).
	BatchesSent  uint64
	BatchesAcked uint64
	// BytesSent counts encoded frame bytes written.
	BytesSent uint64
	// Reconnects counts connections established after the first.
	Reconnects uint64
	// QueueDepth is the current number of queued batches (sent-unacked
	// plus unsent).
	QueueDepth int
	// BatchTarget is the current batch-size target: the seal
	// controller's pick, or BatchSizeMax.
	BatchTarget int
}

// Exporter ships a switch's event stream to a collector. Publish and
// NoteLoss are safe for one producer goroutine (the dataplane is
// single-threaded); the sender runs on its own goroutines after Start.
type Exporter struct {
	cfg    Config
	ledger *core.Ledger

	mu           sync.Mutex
	space        sync.Cond // queue has room (ShedBlock waiters)
	sealParked   bool      // a seal holding a detached batch waits on space; see sealLocked
	senderIdle   bool      // the send loop waits for a kick with nothing to send; see runConn
	pending      []core.Event
	pendingFirst uint64
	nextSeq      uint64
	queue        []*wire.Batch
	sentIdx      int // queue[:sentIdx] sent awaiting ack; rest unsent
	conn         net.Conn
	closed       bool
	connected    uint64
	stats        Stats
	// Counters the registry reads, atomic so it reads them without mu.
	published, shed, batchesSent, bytesSent, reconnects atomic.Uint64

	kick    chan struct{} // unsent work available
	closeCh chan struct{}
	done    chan struct{}
	rng     *rand.Rand

	// configs is the per-kind apply state (guarded by mu).
	configs [wire.NumConfigKinds]configState
	// drainTimedOut flags that Close's drain deadline fired, releasing
	// its queue-empty wait (guarded by mu).
	drainTimedOut bool

	clock  *tracer.ClockEstimator
	sendNs map[uint64]int64 // batch LastSeq → local send ns (ack clock pairing)

	// ctl is the seal controller, nil when TargetSealLatency is zero.
	// Guarded by mu.
	ctl *sealController
	// freeEvs recycles acked batches' event slabs back into x.pending,
	// so steady-state sealing stops allocating a fresh slice per batch.
	// Bounded: the seal rate and the ack rate match in steady state, so
	// two slabs (one filling, one in flight) cover the common case.
	freeEvs [][]core.Event

	depthG  *obs.Gauge
	targetG *obs.Gauge
	rateG   *obs.Gauge
	sealsC  [sealReasons]*obs.Counter
}

// configState is one config kind's apply state: configs awaiting the
// handler, and whether an apply goroutine drains them.
type configState struct {
	queue   []*wire.Config
	running bool
}

// New builds an Exporter; Start launches it.
func New(cfg Config) (*Exporter, error) {
	if cfg.Addr == "" && cfg.Dial == nil {
		return nil, fmt.Errorf("exporter: Config.Addr or Config.Dial required")
	}
	if cfg.TargetSealLatency < 0 {
		return nil, fmt.Errorf("exporter: TargetSealLatency %v must be positive", cfg.TargetSealLatency)
	}
	if cfg.BatchSizeMax < 0 {
		return nil, fmt.Errorf("exporter: BatchSizeMax %d must be at least 1", cfg.BatchSizeMax)
	}
	cfg.fillDefaults()
	x := &Exporter{
		cfg:     cfg,
		ledger:  core.NewLedger(),
		nextSeq: 1,
		kick:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
		// The backoff jitter is seeded by the DPID: deterministic per
		// switch, and different switches reconnecting after one collector
		// restart spread out instead of retrying in lockstep.
		rng: sim.NewRand(int64(cfg.DPID)),
	}
	x.space.L = &x.mu
	var offG, dspG *obs.Gauge
	if reg := cfg.Metrics; reg != nil {
		dp, col := obs.L("dpid", fmt.Sprintf("%d", cfg.DPID)), obs.L("collector", cfg.Addr)
		offG = reg.Gauge("switchmon_exporter_clock_offset_ns",
			"estimated collector clock minus switch clock", dp, col)
		dspG = reg.Gauge("switchmon_exporter_clock_dispersion_ns",
			"clock-offset estimate dispersion (half RTT, smoothed)", dp, col)
		reg.CounterFunc("switchmon_exporter_events_total", "events accepted for export", x.published.Load, dp, col)
		reg.CounterFunc("switchmon_exporter_shed_events_total", "events lost to send-queue overflow", x.shed.Load, dp, col)
		reg.CounterFunc("switchmon_exporter_batches_sent_total", "wire batches written (resends recount)", x.batchesSent.Load, dp, col)
		reg.CounterFunc("switchmon_exporter_bytes_sent_total", "encoded frame bytes written", x.bytesSent.Load, dp, col)
		reg.CounterFunc("switchmon_exporter_reconnects_total", "connections established after the first", x.reconnects.Load, dp, col)
		x.depthG = reg.Gauge("switchmon_exporter_queue_depth", "queued batches (sent-unacked plus unsent)", dp, col)
		x.targetG = reg.Gauge("switchmon_exporter_batch_target", "current batch-size target (EWMA pick, or BatchSizeMax)", dp, col)
		x.rateG = reg.Gauge("switchmon_exporter_arrival_rate_eps", "estimated event arrival rate, events/sec (EWMA)", dp, col)
		for r := sealReason(0); r < sealReasons; r++ {
			x.sealsC[r] = reg.Counter("switchmon_exporter_batch_seals_total",
				"batches sealed, by what sealed them", dp, col, obs.L("reason", r.String()))
		}
	}
	if cfg.TargetSealLatency > 0 {
		x.ctl = newSealController(cfg.TargetSealLatency, cfg.BatchSizeMax)
	}
	x.targetG.Set(int64(x.batchTargetLocked()))
	x.clock = tracer.NewClockEstimator(offG, dspG)
	return x, nil
}

// batchTargetLocked is the current seal threshold: the controller's
// target, or BatchSizeMax without one. Caller holds mu (or is still
// constructing x).
func (x *Exporter) batchTargetLocked() int {
	if x.ctl != nil {
		return x.ctl.target
	}
	return x.cfg.BatchSizeMax
}

// Clock exposes the exporter's collector-clock offset estimator (fed
// by the Hello handshake and the Acks of traced connections).
func (x *Exporter) Clock() *tracer.ClockEstimator { return x.clock }

// Ledger exposes the exporter's local soundness ledger. All marks land
// on the pseudo-property "*": the exporter does not know which
// properties an event feeds — the collector's per-property ledger is
// the authoritative account — but its own process can still report "I
// lost n events since t" on exit and over /healthz.
func (x *Exporter) Ledger() *core.Ledger { return x.ledger }

// Start launches the sender.
func (x *Exporter) Start() {
	go x.senderLoop()
}

// Publish accepts one event, stamping SwitchID with the configured DPID
// when unset. It blocks only under core.ShedBlock with a full queue —
// deliberate backpressure; the shedding policies bound it. Events
// arriving after Close are dropped silently (the switch is shutting
// down).
func (x *Exporter) Publish(e core.Event) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return
	}
	if e.SwitchID == 0 {
		e.SwitchID = x.cfg.DPID
	}
	if x.ctl != nil {
		x.ctl.observe(x.cfg.Now().UnixNano())
	}
	if len(x.pending) == 0 {
		x.pendingFirst = x.nextSeq
		x.kickIdleLocked() // an idle sender seals the batch this event opens
	}
	x.nextSeq++
	x.published.Add(1)
	e.Trace.Stamp(tracer.StageEnqueue)
	x.pending = append(x.pending, e)
	if len(x.pending) >= x.batchTargetLocked() {
		x.sealLocked(sealSize)
	}
}

// NoteLoss records that n events were lost upstream of the exporter
// (e.g. dropped by a fault.Injector wrapping Publish — wire its OnDrop
// here). Each lost event consumes a sequence number without ever being
// sent, so the collector sees a gap and marks its ledger; the local
// ledger records the same loss for this process's own reporting.
func (x *Exporter) NoteLoss(n uint64) {
	if n == 0 {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return
	}
	x.sealLocked(sealLoss) // batches must stay sequence-contiguous
	x.ledger.Mark("*", core.UnsoundWireLoss, x.nextSeq, time.Now(), n, "lost before export")
	x.ledger.RecordLost(core.UnsoundWireLoss, n)
	x.nextSeq += n
	x.stats.LossNoted += n
	x.advanceLocked(x.nextSeq)
}

// Flush seals the pending batch immediately, without waiting for it to
// reach its target or for the sender to be free.
func (x *Exporter) Flush() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.sealLocked(sealFlush)
}

// sealLocked moves the pending events into the bounded queue, applying
// the shed policy on overflow, and — with a seal controller — retunes
// the batch-size target for the next batch. Caller holds mu.
func (x *Exporter) sealLocked(reason sealReason) {
	// One blocked seal at a time. A seal that parks for queue room (below)
	// has detached its batch and dropped mu; a second seal — the
	// publisher's next size seal, a Flush or a Drain — parked behind it
	// with a later batch could be woken first and enqueue a later FirstSeq
	// ahead of an earlier one, which the collector books as a gap and then
	// drops as a replay. Later seals therefore wait here, with their events
	// still in pending, until the parked one is through.
	for x.sealParked && !x.closed {
		x.space.Wait()
	}
	if len(x.pending) == 0 {
		return
	}
	if x.cfg.Tracer != nil {
		for i := range x.pending {
			x.pending[i].Trace.Stamp(tracer.StageBatchSeal)
		}
	}
	x.sealsC[reason].Inc()
	if x.ctl != nil {
		x.targetG.Set(int64(x.ctl.reseal()))
		x.rateG.Set(x.ctl.rateEPS())
	}
	b := &wire.Batch{FirstSeq: x.pendingFirst, Events: x.pending}
	if n := len(x.freeEvs); n > 0 {
		x.pending = x.freeEvs[n-1]
		x.freeEvs = x.freeEvs[:n-1]
	} else {
		x.pending = make([]core.Event, 0, x.cfg.BatchSizeMax)
	}
	for len(x.queue) >= x.cfg.QueueBatches && !x.closed {
		if x.cfg.Shed == core.ShedDropNewest {
			x.shedLocked(b, "send queue full, shed newest batch")
			return
		}
		x.sealParked = true
		x.space.Wait()
		x.sealParked = false
		x.space.Broadcast() // release the seals held back above
	}
	if x.closed && len(x.queue) >= x.cfg.QueueBatches {
		x.shedLocked(b, "closing with full send queue")
		return
	}
	x.queue = append(x.queue, b)
	x.depthG.Set(int64(len(x.queue)))
	x.kickSender()
}

// shedLocked accounts one batch of lost events. The sequence numbers it
// held are never sent, so the collector detects the gap — via the next
// real batch, or via the advance marker queued here if nothing follows.
func (x *Exporter) shedLocked(b *wire.Batch, detail string) {
	n := uint64(len(b.Events))
	x.shed.Add(n)
	x.ledger.Mark("*", core.UnsoundWireLoss, b.FirstSeq, time.Now(), n, detail)
	x.ledger.RecordLost(core.UnsoundWireLoss, n)
	x.advanceLocked(b.LastSeq() + 1)
}

// advanceLocked queues an empty sequence-advance batch telling the
// collector "nothing below firstSeq is still coming", making losses at
// the tail of the stream detectable (a gap is otherwise only visible
// once a later batch arrives). Markers bypass the queue bound — they
// carry no events and encode to a few bytes — and coalesce into an
// unsent marker already at the tail, so they cannot accumulate while
// disconnected. A marker whose FirstSeq trails later queued batches is
// harmless: the collector ignores stale advances. Caller holds mu.
func (x *Exporter) advanceLocked(firstSeq uint64) {
	if n := len(x.queue); n > x.sentIdx {
		if tail := x.queue[n-1]; len(tail.Events) == 0 {
			if firstSeq > tail.FirstSeq {
				tail.FirstSeq = firstSeq
			}
			return
		}
	}
	x.queue = append(x.queue, &wire.Batch{FirstSeq: firstSeq})
	x.depthG.Set(int64(len(x.queue)))
	x.kickSender()
}

// Stats snapshots the exporter's counters.
func (x *Exporter) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	s := x.stats
	s.Published, s.ShedEvents, s.Reconnects = x.published.Load(), x.shed.Load(), x.reconnects.Load()
	s.BatchesSent, s.BytesSent = x.batchesSent.Load(), x.bytesSent.Load()
	s.QueueDepth = len(x.queue)
	s.BatchTarget = x.batchTargetLocked()
	return s
}

// Drain seals pending events and waits up to timeout for the send
// queue to be fully acknowledged, without closing the exporter — the
// federated handoff fence: once Drain returns true, every event
// published so far has been applied by the collector, so a partition
// routed here can move to a new owner with nothing in flight. Returns
// false when the deadline fires (or the exporter closes) with batches
// still unacknowledged.
func (x *Exporter) Drain(timeout time.Duration) bool {
	x.mu.Lock()
	x.sealLocked(sealFlush)
	x.mu.Unlock()
	expired := false
	timer := time.AfterFunc(timeout, func() {
		x.mu.Lock()
		expired = true
		x.space.Broadcast()
		x.mu.Unlock()
	})
	x.mu.Lock()
	for len(x.queue) > 0 && !expired && !x.closed {
		x.space.Wait()
	}
	drained := len(x.queue) == 0
	x.mu.Unlock()
	timer.Stop()
	return drained
}

// Close seals pending events, waits up to drainTimeout for the queue to
// be acknowledged, then stops the sender. Events still unacknowledged
// are recorded in the local ledger as wire-loss ("unacked at close") —
// the collector may or may not have applied them; conservatively they
// count as lost. Returns the number of events abandoned.
func (x *Exporter) Close(drainTimeout time.Duration) uint64 {
	abandoned, _ := x.shutdown(drainTimeout, false)
	return abandoned
}

// CloseExtract is Close for the replay-based handoff path: events
// still unacknowledged at the drain deadline are returned in sequence
// order instead of being marked lost, so the caller can replay them to
// a partition's new owner. The old owner may have applied a sent-but-
// unacked prefix before dying — replay is the at-least-once side of
// the bargain, and the surviving fleet's dedup (per-route sequence
// spaces) guarantees no event is applied twice by the same collector.
func (x *Exporter) CloseExtract(drainTimeout time.Duration) []core.Event {
	_, extracted := x.shutdown(drainTimeout, true)
	return extracted
}

func (x *Exporter) shutdown(drainTimeout time.Duration, extract bool) (uint64, []core.Event) {
	x.mu.Lock()
	x.closed = true // before sealing, so the seal can never block on a full queue
	x.sealLocked(sealClose)
	x.space.Broadcast()
	x.mu.Unlock()

	// Event-driven drain wait: applyAck broadcasts on every ack (and
	// whenever the queue empties), so the wait wakes the moment the last
	// batch is acknowledged instead of polling; the timer releases it at
	// the deadline.
	timer := time.AfterFunc(drainTimeout, func() {
		x.mu.Lock()
		x.drainTimedOut = true
		x.space.Broadcast()
		x.mu.Unlock()
	})
	x.mu.Lock()
	for len(x.queue) > 0 && !x.drainTimedOut {
		x.space.Wait()
	}
	x.mu.Unlock()
	timer.Stop()

	close(x.closeCh)
	x.mu.Lock()
	if x.conn != nil {
		x.conn.Close() // unblock reads/writes in the sender
	}
	var abandoned uint64
	var extracted []core.Event
	for _, b := range x.queue {
		abandoned += uint64(len(b.Events))
		if extract {
			extracted = append(extracted, b.Events...)
		}
	}
	if abandoned > 0 && !extract {
		x.ledger.Mark("*", core.UnsoundWireLoss, x.queue[0].FirstSeq, time.Now(), abandoned, "unacked at close")
		x.ledger.RecordLost(core.UnsoundWireLoss, abandoned)
	}
	x.queue = nil
	x.sentIdx = 0
	x.depthG.Set(0)
	x.mu.Unlock()
	<-x.done
	return abandoned, extracted
}

// senderLoop owns the connection: dial with jittered exponential
// backoff, handshake, replay the unacknowledged tail, then stream new
// batches while a reader goroutine applies cumulative acks.
func (x *Exporter) senderLoop() {
	defer close(x.done)
	backoff := x.cfg.BackoffMin
	var encBuf []byte
	for {
		select {
		case <-x.closeCh:
			return
		default:
		}
		conn, err := x.cfg.Dial()
		if err != nil {
			if !x.sleepBackoff(&backoff) {
				return
			}
			continue
		}
		if !x.runConn(conn, &encBuf) {
			return
		}
		if !x.sleepBackoff(&backoff) {
			return
		}
	}
}

// sleepBackoff sleeps the current jittered backoff, doubling it for next
// time. Returns false when the exporter is closing.
func (x *Exporter) sleepBackoff(backoff *time.Duration) bool {
	x.mu.Lock()
	d := *backoff + time.Duration(x.rng.Int63n(int64(*backoff)))
	x.mu.Unlock()
	*backoff *= 2
	if *backoff > x.cfg.BackoffMax {
		*backoff = x.cfg.BackoffMax
	}
	select {
	case <-x.closeCh:
		return false
	case <-time.After(d):
		return true
	}
}

// runConn drives one connection to completion. Returns false when the
// exporter is closing (stop reconnecting).
func (x *Exporter) runConn(conn net.Conn, encBuf *[]byte) bool {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(wire.ConnBuffer)
	}

	x.mu.Lock()
	if x.closed && len(x.queue) == 0 {
		x.mu.Unlock()
		return false
	}
	x.conn = conn
	first := x.connected == 0
	x.connected++
	// The resume point is the oldest sequence number this exporter can
	// still deliver: the queue head, else unsealed pending events, else
	// the next unassigned sequence number.
	nextSeq := x.nextSeq
	if len(x.pending) > 0 {
		nextSeq = x.pendingFirst
	}
	if len(x.queue) > 0 {
		nextSeq = x.queue[0].FirstSeq
	}
	x.mu.Unlock()
	if !first {
		x.reconnects.Add(1)
	}

	var features uint64
	if x.cfg.Tracer != nil {
		features = wire.FeatureTrace
	}
	for k := wire.ConfigProperties; k < wire.NumConfigKinds; k++ {
		if x.cfg.OnConfig[k] != nil {
			features |= k.Feature()
		}
	}
	t1 := time.Now().UnixNano()
	hello := wire.Hello{DPID: x.cfg.DPID, NextSeq: nextSeq, Features: features, SentNs: t1}
	if _, err := conn.Write(wire.AppendHello(nil, hello)); err != nil {
		return true
	}
	r := wire.NewPooledReader(conn)
	f, err := r.Next()
	if err != nil {
		return true
	}
	ha, ok := f.(wire.HelloAck)
	if !ok {
		return true
	}
	// The handshake is the first clock sample: T1/T4 bracket it locally,
	// the ack's receive/reply stamps are the collector's midpoint.
	x.clock.AddSample(t1, (ha.RecvNs+ha.SentNs)/2, time.Now().UnixNano())
	negotiated := features & ha.Features
	traced := negotiated&wire.FeatureTrace != 0
	x.applyAck(ha.AckSeq)
	x.mu.Lock()
	x.sentIdx = 0 // everything still queued needs (re)sending on this conn
	x.sendNs = nil
	if traced {
		x.sendNs = make(map[uint64]int64)
	}
	x.mu.Unlock()

	// Reader goroutine: applies cumulative acks until the connection
	// dies, pairing each ack with the matching batch's send time for
	// ongoing clock sampling (traced connections record send times).
	connDead := make(chan struct{})
	go func() {
		defer close(connDead)
		for {
			f, err := r.Next()
			if err != nil {
				return
			}
			switch fr := f.(type) {
			case wire.Ack:
				t4 := time.Now().UnixNano()
				x.mu.Lock()
				sendT, found := x.sendNs[fr.AckSeq]
				for k := range x.sendNs {
					if k <= fr.AckSeq {
						delete(x.sendNs, k)
					}
				}
				x.mu.Unlock()
				if found {
					x.clock.AddSample(sendT, fr.SentNs, t4)
				}
				x.applyAck(fr.AckSeq)
			case *wire.Config:
				if negotiated&fr.Kind.Feature() == 0 {
					return // protocol violation: kind never negotiated
				}
				// One apply goroutine per kind at a time keeps applies in
				// arrival order; the handler drops what is stale.
				x.mu.Lock()
				cs := &x.configs[fr.Kind]
				cs.queue = append(cs.queue, fr)
				if !cs.running {
					cs.running = true
					go x.applyConfigs(fr.Kind)
				}
				x.mu.Unlock()
			}
		}
	}()

	for {
		x.mu.Lock()
		// A free sender does not wait for the open batch to fill: with
		// nothing unsent it seals the batch itself and ships it, so
		// batches grow only while a write or a full queue holds it back.
		x.senderIdle = false
		if x.sentIdx == len(x.queue) && x.idleSealableLocked() {
			x.sealLocked(sealIdle)
		}
		var b *wire.Batch
		if x.sentIdx < len(x.queue) {
			b = x.queue[x.sentIdx]
			x.sentIdx++
		} else {
			x.senderIdle = true
		}
		x.mu.Unlock()
		if b == nil {
			select {
			case <-x.closeCh:
				conn.Close()
				<-connDead
				return false
			case <-connDead:
				return true
			case <-x.kick:
				continue
			}
		}
		// Traced is per-connection state on a shared batch: a replay on a
		// later connection that did not negotiate FeatureTrace must encode
		// without the trace block, so it is (re)set on every send rather
		// than once at seal.
		b.Traced = traced
		if traced {
			for i := range b.Events {
				b.Events[i].Trace.Stamp(tracer.StageWireSend)
			}
			if off, dsp, ok := x.clock.Estimate(); ok {
				b.ClockOffsetNs, b.ClockDispNs = off, dsp
			}
			x.mu.Lock()
			nowNs := time.Now().UnixNano()
			x.evictSendNsLocked(nowNs)
			x.sendNs[b.LastSeq()] = nowNs
			x.mu.Unlock()
		}
		enc, err := wire.AppendBatch((*encBuf)[:0], b)
		if err != nil {
			// An unencodable batch can never be delivered; shed it so the
			// stream can make progress past the gap it leaves.
			x.mu.Lock()
			for i, q := range x.queue {
				if q == b {
					x.queue = append(x.queue[:i], x.queue[i+1:]...)
					x.sentIdx--
					break
				}
			}
			x.shedLocked(b, fmt.Sprintf("unencodable batch: %v", err))
			x.mu.Unlock()
			continue
		}
		*encBuf = enc
		if _, err := conn.Write(enc); err != nil {
			<-connDead
			return true
		}
		x.batchesSent.Add(1)
		x.bytesSent.Add(uint64(len(enc)))
	}
}

// sendNsHorizon bounds how long a send timestamp waits for its ack
// before eviction. Entries normally retire when an ack covers them, but
// a batch shed after its timestamp was recorded (e.g. unencodable)
// would strand its entry forever — a slow leak on a long-lived
// connection.
const sendNsHorizon = 10 * time.Second

// evictSendNsLocked drops send-time entries older than the horizon.
// Caller holds mu. Called on the send path, so the map's population is
// bounded by the batches sent per horizon even if no ack ever cleans it.
func (x *Exporter) evictSendNsLocked(nowNs int64) {
	for k, t := range x.sendNs {
		if nowNs-t > int64(sendNsHorizon) {
			delete(x.sendNs, k)
		}
	}
}

// applyAck pops acknowledged batches off the queue head, recycles their
// event slabs into the pending free list, and wakes ShedBlock waiters.
func (x *Exporter) applyAck(ackSeq uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for len(x.queue) > 0 && x.queue[0].LastSeq() <= ackSeq {
		b := x.queue[0]
		x.queue = x.queue[1:]
		if x.sentIdx > 0 {
			x.sentIdx--
		}
		x.stats.BatchesAcked++
		// An acked batch is never resent: its slab is free to back the
		// next pending batch instead of a fresh allocation.
		if cap(b.Events) > 0 && len(x.freeEvs) < 2 {
			x.freeEvs = append(x.freeEvs, b.Events[:0])
			b.Events = nil
		}
	}
	if len(x.pending) > 0 {
		x.kickIdleLocked() // the freed room lets an idle sender seal the waiting events
	}
	x.depthG.Set(int64(len(x.queue)))
	x.space.Broadcast()
}

// applyConfigs hands the kind's queued configs to its handler in
// arrival order; it exits when the queue is empty. Close does not wait
// for it: a removed route's re-route runs here and closes this very
// exporter.
func (x *Exporter) applyConfigs(k wire.ConfigKind) {
	cs := &x.configs[k]
	for {
		x.mu.Lock()
		if len(cs.queue) == 0 {
			cs.running = false
			x.mu.Unlock()
			return
		}
		cfg := cs.queue[0]
		cs.queue = cs.queue[1:]
		x.mu.Unlock()
		x.cfg.OnConfig[k](cfg)
	}
}

// idleSealableLocked reports whether the sender may seal the open batch
// itself. The sender must never wait inside sealLocked, for room only
// its own writes can free: so the queue must have room, and no seal may
// be parked — sealLocked holds later seals behind a parked one, whose
// batch then takes the room. Caller holds mu.
func (x *Exporter) idleSealableLocked() bool {
	return len(x.pending) > 0 && !x.sealParked && len(x.queue) < x.cfg.QueueBatches
}

// kickIdleLocked wakes the send loop if it is waiting with nothing to
// send, so it can seal the open batch. Caller holds mu.
func (x *Exporter) kickIdleLocked() {
	if x.senderIdle {
		x.senderIdle = false
		x.kickSender()
	}
}

// kickSender wakes the send loop without blocking.
func (x *Exporter) kickSender() {
	select {
	case x.kick <- struct{}{}:
	default:
	}
}
