// Package collector is the central half of the distributed monitoring
// fabric: a TCP server that accepts many switch-side exporters
// (internal/exporter), demultiplexes their per-datapath sequence
// spaces, and feeds the merged observation stream into one stateful
// property engine — the NetSight-style aggregation point Sec. 3.2 of
// the paper sketches, with the paper's soundness discipline carried
// over the wire.
//
// Sequence accounting is the whole trick. Each datapath's events are
// numbered by its exporter; the collector tracks, per datapath, the
// next sequence it expects, across reconnects:
//
//   - A batch starting beyond the expectation is a gap: those events
//     are gone (shed at the exporter, or dropped upstream of it and
//     reported via NoteLoss), so the collector marks every installed
//     property unsound from here with reason wire-loss — verdicts stay
//     trustworthy-or-flagged, never silently wrong.
//   - A batch starting before the expectation is a replay (the exporter
//     resent its unacknowledged tail after a reconnect): the
//     already-applied prefix is skipped, making delivery effectively
//     exactly-once on top of the exporter's at-least-once.
//
// Acks are cumulative: after applying a batch, the collector
// acknowledges the highest contiguous sequence applied, which is what
// lets the exporter retire its retained batches.
package collector

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/wire"
)

// Sink consumes the merged event stream. *core.ShardedMonitor satisfies
// it directly; tests substitute recorders.
type Sink interface {
	// SubmitBatch feeds a batch of events to the engine. When release is
	// non-nil the events are borrowed: the sink may read them (by
	// reference) until it calls release, after which the backing storage
	// is recycled. release must be called exactly once on every path,
	// including errors. A nil release means the events are owned by the
	// caller indefinitely and the sink may retain or copy them freely.
	SubmitBatch(evs []core.Event, release func()) error
	// Tick advances the engine's clocks to t (fires due timers).
	Tick(t time.Time)
	// MarkLoss records n lost events against every installed property.
	MarkLoss(reason core.UnsoundReason, at time.Time, n uint64, detail string)
}

// Config parameterizes a Collector.
type Config struct {
	// Addr is the TCP listen address (e.g. ":9190", "127.0.0.1:0").
	Addr string
	// Listener, when non-nil, overrides Addr (the collector takes
	// ownership and closes it).
	Listener net.Listener
	// Metrics, when non-nil, receives per-datapath series.
	Metrics *obs.Registry
	// Tracer, when non-nil, enables tracing on this collector: the
	// FeatureTrace offer is accepted in handshakes, spans shipped in
	// traced batches are stamped collector_recv and fed to the engine,
	// and events from exporters without a tracer get spans originated
	// here — the deterministic sampler makes the same 1-in-N decision
	// the switch would have.
	Tracer *tracer.Tracer
}

// Stats is a snapshot of collector-wide counters.
type Stats struct {
	// Conns counts currently connected exporters.
	Conns int
	// Datapaths counts distinct datapath ids ever seen.
	Datapaths int
	// Batches, Events and Bytes count applied traffic.
	Batches uint64
	Events  uint64
	Bytes   uint64
	// Deduped counts replayed events skipped by sequence dedup.
	Deduped uint64
	// GapEvents counts events declared lost by sequence gaps.
	GapEvents uint64
	// Reconnects counts connections beyond the first per datapath.
	Reconnects uint64
	// Configs is the retained (newest broadcast) config's high-water
	// mark per kind, indexed by wire.ConfigKind.
	Configs [wire.NumConfigKinds]wire.HighWater
}

// dpState is one datapath's demux state, shared across its reconnects.
type dpState struct {
	nextSeq uint64 // next event sequence expected
	conns   uint64 // connections ever accepted for this dpid
	windowG *obs.Gauge
	// Counters written under the collector's mu, atomic so their series
	// read them without it. acked is the highest cumulative ack issued.
	batches, events, bytes, gaps, deduped, acked, reconnects atomic.Uint64
}

// advanceAckedLocked folds the datapath's current cumulative ack into
// its monotone acked-events counter. Gap sequences count too: a
// cumulative ack covers them, and that is exactly the signal the
// counter exists to expose — acked minus applied equals lost. Caller
// holds mu.
func (dp *dpState) advanceAckedLocked() {
	if ack := dp.nextSeq - 1; ack > dp.acked.Load() {
		dp.acked.Store(ack)
	}
}

// connState is the collector's per-connection bookkeeping: the write
// mutex that serializes the read loop's acks against config broadcasts
// from other goroutines, and the negotiated feature mask (set under mu
// after the handshake reply, so a broadcast never races the HelloAck).
type connState struct {
	conn     net.Conn
	wmu      sync.Mutex
	features uint64
}

// write writes buf to the connection under the write mutex.
func (cs *connState) write(buf []byte) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	_, err := cs.conn.Write(buf)
	return err
}

// Collector accepts exporter connections and feeds a Sink.
type Collector struct {
	cfg  Config
	sink Sink
	ln   net.Listener

	mu       sync.Mutex
	dps      map[uint64]*dpState
	conns    map[net.Conn]*connState
	lastTick time.Time
	// configs is the retained config's high-water mark per kind.
	configs [wire.NumConfigKinds]wire.HighWater
	closed  bool
	// retained is the encoded frame of the newest config broadcast per
	// kind (nil until the first); a connection negotiating the kind
	// receives it right after the handshake.
	retained [wire.NumConfigKinds][]byte

	connsG *obs.Gauge
	wg     sync.WaitGroup
}

// New builds a collector and binds its listener (so Addr is concrete
// before Serve), but does not accept until Serve.
func New(cfg Config, sink Sink) (*Collector, error) {
	if sink == nil {
		return nil, fmt.Errorf("collector: nil sink")
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("collector: %w", err)
		}
	}
	c := &Collector{
		cfg:   cfg,
		sink:  sink,
		ln:    ln,
		dps:   map[uint64]*dpState{},
		conns: map[net.Conn]*connState{},
	}
	if reg := cfg.Metrics; reg != nil {
		c.connsG = reg.Gauge("switchmon_collector_conns", "currently connected exporters")
	}
	return c, nil
}

// Addr is the listener's bound address (useful with ":0").
func (c *Collector) Addr() net.Addr { return c.ln.Addr() }

// Serve runs the accept loop in background goroutines and returns.
func (c *Collector) Serve() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := c.ln.Accept()
			if err != nil {
				return // listener closed
			}
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				conn.Close()
				return
			}
			cs := &connState{conn: conn}
			c.conns[conn] = cs
			c.connsG.Add(1)
			c.mu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serveConn(conn, cs)
				c.mu.Lock()
				delete(c.conns, conn)
				c.connsG.Add(-1)
				c.mu.Unlock()
			}()
		}
	}()
}

// Close stops accepting, closes every live connection, and waits for
// the connection handlers to finish.
func (c *Collector) Close() {
	c.mu.Lock()
	c.closed = true
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.ln.Close()
	c.wg.Wait()
}

// Stats snapshots the collector's counters, summed over datapaths.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Conns: len(c.conns), Datapaths: len(c.dps), Configs: c.configs}
	for _, dp := range c.dps {
		s.Batches += dp.batches.Load()
		s.Events += dp.events.Load()
		s.Bytes += dp.bytes.Load()
		s.Deduped += dp.deduped.Load()
		s.GapEvents += dp.gaps.Load()
		s.Reconnects += dp.reconnects.Load()
	}
	return s
}

// dpStateFor gets or creates the demux state for a datapath. Caller
// holds mu.
func (c *Collector) dpStateFor(dpid uint64) *dpState {
	dp := c.dps[dpid]
	if dp != nil {
		return dp
	}
	dp = &dpState{nextSeq: 1}
	if reg := c.cfg.Metrics; reg != nil {
		l := obs.L("dpid", fmt.Sprintf("%d", dpid))
		reg.CounterFunc("switchmon_collector_batches_total", "wire batches applied", dp.batches.Load, l)
		reg.CounterFunc("switchmon_collector_events_total", "events applied to the engine", dp.events.Load, l)
		reg.CounterFunc("switchmon_collector_bytes_total", "frame bytes received", dp.bytes.Load, l)
		reg.CounterFunc("switchmon_collector_gap_events_total", "events declared lost by sequence gaps", dp.gaps.Load, l)
		reg.CounterFunc("switchmon_collector_deduped_events_total", "replayed events skipped by dedup", dp.deduped.Load, l)
		reg.CounterFunc("switchmon_collector_acked_events_total", "cumulative event sequence acknowledged (applied plus declared-lost)", dp.acked.Load, l)
		reg.CounterFunc("switchmon_collector_reconnects_total", "connections beyond the first", dp.reconnects.Load, l)
		dp.windowG = reg.Gauge("switchmon_collector_window_events", "events received but not yet acknowledged", l)
	}
	c.dps[dpid] = dp
	return dp
}

// countingReader counts bytes as the wire reader consumes them.
type countingReader struct {
	r io.Reader
	n uint64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += uint64(n)
	return n, err
}

// Broadcast pushes a config to every connected exporter that negotiated
// its kind and retains it for connections to come, which receive it
// right after their handshake. A config no newer than the retained one
// (wire.HighWater) is a no-op, so concurrent broadcasts leave the newest
// retained whatever order they finish in. The daemons broadcast every
// property-set change and every fleet the aggregation tier posts.
func (c *Collector) Broadcast(cfg *wire.Config) error {
	buf, err := wire.AppendConfig(nil, cfg)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if !c.configs[cfg.Kind].Admit(cfg.Epoch) {
		c.mu.Unlock()
		return nil
	}
	c.retained[cfg.Kind] = buf
	var targets []*connState
	for _, cs := range c.conns {
		if cs.features&cfg.Kind.Feature() != 0 {
			targets = append(targets, cs)
		}
	}
	c.mu.Unlock()
	for _, cs := range targets {
		if cs.write(buf) != nil {
			// The connection is dying; its read loop will notice and the
			// exporter will pick the config up again on reconnect.
			cs.conn.Close()
		}
	}
	return nil
}

// serveConn drives one exporter connection: handshake, then a
// batch/ack loop until the peer disconnects or misbehaves.
func (c *Collector) serveConn(conn net.Conn, cs *connState) {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(wire.ConnBuffer)
	}
	cr := &countingReader{r: conn}
	// Pooled decode: each batch's events live in a per-batch arena that
	// applyBatch lends to the sink and recycles on release — zero
	// steady-state allocation on the ingest path.
	r := wire.NewPooledReader(cr)
	f, err := r.Next()
	if err != nil {
		return
	}
	recvNs := time.Now().UnixNano() // the handshake's T2
	hello, ok := f.(wire.Hello)
	if !ok {
		return
	}
	// Negotiate: intersect the feature offer with what this collector
	// supports.
	var features uint64
	if c.cfg.Tracer != nil {
		features = hello.Features & wire.FeatureTrace
	}
	for k := wire.ConfigProperties; k < wire.NumConfigKinds; k++ {
		features |= hello.Features & k.Feature()
	}

	c.mu.Lock()
	dp := c.dpStateFor(hello.DPID)
	dp.conns++
	if dp.conns > 1 {
		dp.reconnects.Add(1)
	}
	// An exporter resuming beyond our expectation has already given up
	// on the intervening events (shed, or consumed by NoteLoss): account
	// the gap now rather than waiting for its first batch.
	if hello.NextSeq > dp.nextSeq {
		c.markGapLocked(hello.DPID, dp, hello.NextSeq, time.Now())
	}
	dp.advanceAckedLocked()
	ack := dp.nextSeq - 1
	c.mu.Unlock()

	ha := wire.HelloAck{AckSeq: ack, Features: features,
		RecvNs: recvNs, SentNs: time.Now().UnixNano()}
	if cs.write(wire.AppendHelloAck(nil, ha)) != nil {
		return
	}
	// Mark the connection broadcast-eligible and push the retained config
	// of every negotiated kind, so a reconnecting exporter converges
	// immediately instead of waiting for the next change.
	var pushes [][]byte
	c.mu.Lock()
	cs.features = features
	for k := wire.ConfigProperties; k < wire.NumConfigKinds; k++ {
		if buf := c.retained[k]; buf != nil && features&k.Feature() != 0 {
			pushes = append(pushes, buf)
		}
	}
	c.mu.Unlock()
	for _, buf := range pushes {
		if cs.write(buf) != nil {
			return
		}
	}

	var ackBuf []byte
	prevBytes := cr.n
	for {
		f, err := r.Next()
		if err != nil {
			return // disconnect (exporter will reconnect) or protocol error
		}
		recvNs := time.Now().UnixNano()
		b, ok := f.(*wire.Batch)
		if !ok {
			return // nothing else flows exporter→collector after the handshake
		}
		if b.FirstSeq == 0 || b.Traced && features&wire.FeatureTrace == 0 {
			// Sequences start at 1, and 0 would corrupt the gap math; a
			// trace block on a connection that did not negotiate tracing
			// is a protocol error.
			b.Release()
			return
		}
		ackSeq, applied := c.applyBatch(hello.DPID, dp, b, cr.n-prevBytes, recvNs)
		prevBytes = cr.n
		if !applied {
			return
		}
		// Every ack is timestamped: an ongoing clock sample.
		ackBuf = wire.AppendAck(ackBuf[:0], wire.Ack{AckSeq: ackSeq, SentNs: time.Now().UnixNano()})
		if cs.write(ackBuf) != nil {
			return
		}
	}
}

// applyBatch performs gap/replay accounting and feeds the batch's new
// events to the sink. It returns the cumulative ack for the datapath
// and whether the connection should continue.
func (c *Collector) applyBatch(dpid uint64, dp *dpState, b *wire.Batch, frameBytes uint64, recvNs int64) (uint64, bool) {
	c.mu.Lock()
	dp.windowG.Set(int64(len(b.Events)))

	if b.FirstSeq > dp.nextSeq {
		// Empty batches are sequence-advance markers: the exporter's way
		// of surfacing a loss at the tail of its stream, where no later
		// event batch would ever reveal the gap.
		at := time.Now()
		if len(b.Events) > 0 {
			at = b.Events[0].Time
		}
		c.markGapLocked(dpid, dp, b.FirstSeq, at)
	}
	skip := 0
	if b.FirstSeq < dp.nextSeq {
		skip = int(dp.nextSeq - b.FirstSeq)
		if skip > len(b.Events) {
			skip = len(b.Events)
		}
		dp.deduped.Add(uint64(skip))
	}
	evs := b.Events[skip:]
	dp.nextSeq += uint64(len(evs))
	dp.advanceAckedLocked()
	dp.batches.Add(1)
	dp.events.Add(uint64(len(evs)))
	dp.bytes.Add(frameBytes)
	ackSeq := dp.nextSeq - 1
	c.mu.Unlock()

	for i := range evs {
		e := &evs[i]
		if b.Traced {
			// Continue the span the switch started: align its remote
			// marks with the shipped clock estimate and stamp arrival.
			// Replayed copies of already-applied events sit in the
			// skipped prefix and never reach here, so no span is
			// stamped or finished twice.
			e.Trace.SetClock(b.ClockOffsetNs, b.ClockDispNs)
			e.Trace.StampAt(tracer.StageCollectorRecv, recvNs)
		} else if sp := c.cfg.Tracer.Sample(e.SwitchID, uint64(e.PacketID), uint8(e.Kind)); sp != nil {
			// Untraced exporter: originate the span here. The sampler is
			// deterministic, so the same 1-in-N events are traced either
			// way — just without switch-side stages.
			sp.StampAt(tracer.StageCollectorRecv, recvNs)
			e.Trace = sp
		}
	}
	// The sink borrows the batch's arena; it is recycled once the last
	// shard has dispatched. Read the tick time before handing the events
	// off — after SubmitBatch they may be released at any moment.
	var tickAt time.Time
	if len(evs) > 0 {
		tickAt = evs[len(evs)-1].Time
	}
	if err := c.sink.SubmitBatch(evs, b.ReleaseFunc()); err != nil {
		return 0, false // core.ErrClosed: the engine is shutting down
	}
	if len(evs) > 0 {
		c.tick(tickAt)
	}
	c.mu.Lock()
	dp.windowG.Set(0)
	c.mu.Unlock()
	return ackSeq, true
}

// markGapLocked declares [dp.nextSeq, upTo) lost for dpid and advances
// the expectation. Caller holds mu.
func (c *Collector) markGapLocked(dpid uint64, dp *dpState, upTo uint64, at time.Time) {
	lost := upTo - dp.nextSeq
	dp.gaps.Add(lost)
	detail := fmt.Sprintf("dpid %d lost events seq [%d,%d)", dpid, dp.nextSeq, upTo)
	dp.nextSeq = upTo
	// MarkLoss takes the engine's locks; drop ours around the call.
	c.mu.Unlock()
	c.sink.MarkLoss(core.UnsoundWireLoss, at, lost, detail)
	c.mu.Lock()
}

// tick advances the sink's clocks when event time moves forward. Events
// from different switches interleave, so the guard keeps the engine's
// virtual clock monotone even if one switch's stream lags another's.
func (c *Collector) tick(t time.Time) {
	c.mu.Lock()
	if !t.After(c.lastTick) {
		c.mu.Unlock()
		return
	}
	c.lastTick = t
	c.mu.Unlock()
	c.sink.Tick(t)
}
