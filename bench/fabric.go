package main

import (
	"net"
	"sync/atomic"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/obs"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/property"
)

// fabric-steady constants.
const (
	// rateOp is the open-loop operating rate, frozen at about 30 % of
	// the saturation rate phase B measured on the reference sandbox when
	// the benchmark was defined (README: "how rate_op was frozen").
	rateOp = 300_000
	// genTick is the generator's release interval. Events fall due
	// evenly through a tick and are released together at its end, as a
	// polling NIC driver would hand them over; each is timed from its own
	// due time.
	genTick = 250 * time.Microsecond
	// openLoopViolEvery / closedLoopViolEvery: one return in this many is
	// wrongfully dropped. The open loop wants ≥3000 latency samples per
	// 1-s window; the closed loop matches inline-steady.
	openLoopViolEvery   = 50
	closedLoopViolEvery = 1000
	// drainDeadline bounds the wait for the fabric to account for every
	// published event. Whatever is still missing then is counted failed;
	// the run goes on and prints every metric.
	drainDeadline = 10 * time.Second
	fabricDPID    = 1
	sockBuffer    = 1 << 20 // the exporter's and collector's own default
	// sendWindow is how many sealed batches the generator lets stand in
	// the exporter's send queue before it waits: the exporter's default
	// queue depth. The benchmark holds this window itself (admit) instead
	// of leaning on Publish blocking at a full queue, because a seal that
	// blocks there can be overtaken by the next one, the collector then
	// declares the overtaken batch lost, and a few hundred events of every
	// saturated run failed (README, "known findings"). The queue itself is
	// sized so that one burst on top of a full window still fits: a burst
	// of n events seals at most n+1 batches (size and age seals both need
	// an event published in between).
	sendWindow   = 64
	maxBurst     = 128
	queueBatches = sendWindow + maxBurst + 2
)

// connStats times one direction-pair of a TCP connection from outside:
// the traced pass hands the exporter and the collector wrapped
// connections (Config.Dial, Config.Listener).
type connStats struct {
	writes, writeNs, reads, readNs atomic.Int64
	spans                          *spanRec
}

type timedConn struct {
	net.Conn
	st *connStats
}

func (c *timedConn) Write(p []byte) (int, error) {
	ord := c.st.writes.Add(1)
	s := int32(-1)
	if c.st.spans != nil && ord%sampleBatches == 0 {
		s = c.st.spans.begin(spWrite, -1, uint32(ord))
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNs.Add(int64(time.Since(t0)))
	if s >= 0 {
		c.st.spans.end(s, 0)
	}
	return n, err
}

func (c *timedConn) Read(p []byte) (int, error) {
	ord := c.st.reads.Add(1)
	s := int32(-1)
	if c.st.spans != nil && ord%(2*sampleBatches) == 0 { // two reads a frame
		s = c.st.spans.begin(spRead, -1, uint32(ord/2))
	}
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.st.readNs.Add(int64(time.Since(t0)))
	if s >= 0 {
		c.st.spans.end(s, 0)
	}
	return n, err
}

// timedListener wraps accepted connections. The collector sizes the
// receive buffer only on a *net.TCPConn, so the wrapper does it first.
type timedListener struct {
	net.Listener
	st *connStats
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(sockBuffer) // best effort, as in the collector
	}
	return &timedConn{c, l.st}, nil
}

// timedSink brackets the collector's calls into its sink.
type timedSink struct {
	collector.Sink
	calls, ns, events atomic.Int64
	spans             *spanRec
}

func (s *timedSink) SubmitBatch(evs []core.Event, release func()) error {
	ord := s.calls.Add(1)
	sp := int32(-1)
	if s.spans != nil && ord%sampleBatches == 0 {
		sp = s.spans.begin(spSink, -1, uint32(ord))
	}
	t0 := time.Now()
	err := s.Sink.SubmitBatch(evs, release)
	s.ns.Add(int64(time.Since(t0)))
	s.events.Add(int64(len(evs)))
	if sp >= 0 {
		s.spans.end(sp, len(evs))
	}
	return err
}

// countSink is the engine removed: the ceiling the fabric alone sets.
type countSink struct{}

func (countSink) SubmitBatch(_ []core.Event, release func()) error {
	if release != nil {
		release()
	}
	return nil
}
func (countSink) Tick(time.Time)                                         {}
func (countSink) MarkLoss(core.UnsoundReason, time.Time, uint64, string) {}

// fabricRig is the whole distributed path in one process: exporter,
// loopback TCP, collector, sharded engine.
type fabricRig struct {
	g   *flowGen
	v   *verdicts
	reg *obs.Registry
	sm  *core.ShardedMonitor // nil behind a countSink
	col *collector.Collector
	x   *exporter.Exporter

	// Traced pass only.
	spans       *spanRec
	swTr, colTr *tracer.Tracer
	wconn       *connStats
	rconn       *connStats
	sink        *timedSink

	// blocking: no send window; Publish blocks at the exporter's default
	// queue bound (probeBlockingSeal only).
	blocking        bool
	transportClosed bool
}

// rigShape selects what newFabricRig leaves out: the engine (a counting
// sink in its place), the send window.
type rigShape struct{ counting, blocking bool }

// newFabricRig builds and connects the fabric and establishes the flow
// population through it. spans non-nil selects the traced shape: the
// program's own obs tracers at 1-in-64 through the public Config.Tracer
// fields, timing connections, a timing sink.
func newFabricRig(g *flowGen, v *verdicts, spans *spanRec, shape rigShape) *fabricRig {
	rig := &fabricRig{g: g, v: v, reg: obs.NewRegistry(), spans: spans, blocking: shape.blocking}
	if spans != nil {
		rig.swTr = tracer.New(tracer.Config{SampleN: sampleBatches})
		rig.colTr = tracer.New(tracer.Config{SampleN: sampleBatches, Ring: 1 << 16})
		rig.wconn, rig.rconn = &connStats{spans: spans}, &connStats{spans: spans}
	}
	var sink collector.Sink = countSink{}
	if !shape.counting {
		rig.sm = core.NewShardedMonitor(2, engineConfig(v, rig.reg, rig.colTr))
		must(rig.sm.AddProperty(catalogProp(property.DefaultParams(), "firewall-basic")))
		sink = rig.sm
	}
	ccfg := collector.Config{Addr: "127.0.0.1:0", Metrics: rig.reg, Tracer: rig.colTr}
	if spans != nil {
		rig.sink = &timedSink{Sink: sink, spans: spans}
		sink = rig.sink
		ln, err := net.Listen("tcp", ccfg.Addr)
		must(err)
		ccfg.Listener = &timedListener{ln, rig.rconn}
	}
	col, err := collector.New(ccfg, sink)
	must(err)
	col.Serve()
	rig.col = col

	// switchmon -export's defaults: adaptive sealing against a 250 µs
	// budget, batches of at most 256, back-pressure instead of shedding.
	xcfg := exporter.Config{
		Addr: col.Addr().String(), DPID: fabricDPID,
		TargetSealLatency: 250 * time.Microsecond, BatchSizeMax: 256,
		Shed: core.ShedBlock, QueueBatches: queueBatches,
		Metrics: obs.NewRegistry(), Tracer: rig.swTr,
	}
	if rig.blocking {
		xcfg.QueueBatches = 0 // the exporter's default
	}
	if spans != nil {
		addr := xcfg.Addr
		xcfg.Dial = func() (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return nil, err
			}
			// The exporter sizes the send buffer only on a *net.TCPConn.
			_ = c.(*net.TCPConn).SetWriteBuffer(sockBuffer)
			return &timedConn{c, rig.wconn}, nil
		}
	}
	rig.x, err = exporter.New(xcfg)
	must(err)
	rig.x.Start()

	var r rec
	for f := range g.out {
		if f%maxBurst == 0 {
			rig.admit()
		}
		g.open(f, &r)
		rig.x.Publish(r.event(mustDecode(r.frame)))
	}
	rig.drain()
	return rig
}

// admit is the closed loop's back-pressure, called before every burst
// of at most maxBurst events: with more than sendWindow batches queued
// the generator sleeps until a quarter of the window has been
// acknowledged, and says how long that took. The sender still has
// three quarters of a window to work on when the generator wakes, so
// it never runs dry and the fabric downstream sets the rate, as a
// blocking Publish would.
func (rig *fabricRig) admit() (waited time.Duration) {
	if rig.blocking || rig.x.Stats().QueueDepth <= sendWindow {
		return 0
	}
	t0 := time.Now()
	for rig.x.Stats().QueueDepth > sendWindow*3/4 {
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(t0)
}

// closeTransport shuts the exporter and the collector, leaving the
// engine and its state alone. Their counters stay readable.
func (rig *fabricRig) closeTransport() {
	if rig.transportClosed {
		return
	}
	rig.transportClosed = true
	rig.x.Close(2 * time.Second)
	rig.col.Close()
}

func (rig *fabricRig) close() {
	rig.closeTransport()
	if rig.sm != nil {
		rig.sm.Close()
	}
}

// drain is the rule that cannot hang: a phase ends when the fabric has
// accounted for every event published — applied, declared lost by a
// sequence gap, or shed — or when drainDeadline passes. It returns how
// many were still unaccounted for.
func (rig *fabricRig) drain() (missing uint64) {
	rig.x.Flush()
	deadline := time.Now().Add(drainDeadline)
	for {
		cs, xs := rig.col.Stats(), rig.x.Stats()
		accounted := cs.Events + cs.GapEvents + xs.ShedEvents
		if accounted >= xs.Published {
			break
		}
		if time.Now().After(deadline) {
			missing = xs.Published - accounted
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	if rig.sm != nil {
		rig.sm.Barrier()
	}
	return missing
}

func (rig *fabricRig) applied() uint64 { return rig.col.Stats().Events }

// step generates one input and publishes it: frame → packet.Decode →
// event → Exporter.Publish, each under a span when bs samples the batch.
// startWall is where a violation's latency is measured from (0: not
// sampled).
func (rig *fabricRig) step(r *rec, startWall int64, bs batchSpans) {
	s := bs.begin(spGen)
	rig.g.next(r)
	bs.end(s, 1)
	s = bs.begin(spDecode)
	p := mustDecode(r.frame)
	bs.end(s, 1)
	e := r.event(p)
	if sp := rig.swTr.Sample(fabricDPID, r.pid, uint8(e.Kind)); sp != nil {
		sp.Stamp(tracer.StageIngress)
		e.Trace = sp
	}
	if r.dropped {
		rig.v.expect(0, r.at, startWall)
	}
	s = bs.begin(spPublish)
	rig.x.Publish(e)
	bs.end(s, 1)
}

// openLoopStats is what phase A reports beyond detection latency.
type openLoopStats struct {
	rateAchieved float64
	lateP99Us    float64
	lateWindows  int // windows whose lateness p99 exceeded one tick
	batchMean    float64
	missing      uint64 // unaccounted for at the drain deadline
}

// openLoop is phase A: a fixed schedule at rateOp regardless of how the
// fabric keeps up. The generator busy-waits to its release times, as
// load generators do, which costs the fabric one of the box's cores for
// the phase. Measured alternatives were worse rulers: a sleeping
// goroutine wakes up to a millisecond late (the runtime's timer wait is
// rounded up to 1 ms), merging four ticks into one burst, and a
// yielding spin keeps its P permanently busy, so that P never polls the
// network and socket wake-ups wait for the other one.
func (rig *fabricRig) openLoop(dur, window time.Duration) openLoopStats {
	rig.g.violEvery = openLoopViolEvery
	perTick := int(rateOp * genTick / time.Second)
	if perTick > maxBurst {
		panic("bench: a tick's burst exceeds maxBurst")
	}
	gap := genTick / time.Duration(perTick)
	ticks := int(dur / genTick)
	x0 := rig.x.Stats()
	var late, lateWin []int64
	var st openLoopStats
	var r rec
	start := time.Now()
	edge := start.Add(window)
	for k := 0; k < ticks; k++ {
		tickStart := start.Add(time.Duration(k) * genTick)
		release := tickStart.Add(genTick)
		for time.Now().Before(release) {
		}
		rig.admit() // a stalled fabric makes the tick late, not lost
		now := time.Now()
		late = append(late, int64(now.Sub(release)))
		lateWin = append(lateWin, int64(now.Sub(release)))
		bs := rig.spans.sample(uint32(k))
		due := tickStart.UnixNano()
		for i := 0; i < perTick; i++ {
			rig.step(&r, due+int64(i)*int64(gap), bs)
		}
		bs.done(perTick)
		if now.After(edge) {
			rig.v.rollWindow()
			if pctNs(sortedCopy(lateWin), 0.99) > int64(genTick) {
				st.lateWindows++
			}
			lateWin, edge = lateWin[:0], now.Add(window)
		}
	}
	elapsed := time.Since(start)
	st.missing = rig.drain()
	x1 := rig.x.Stats()
	st.rateAchieved = float64(x1.Published-x0.Published) / elapsed.Seconds()
	st.lateP99Us = float64(pctNs(sortedCopy(late), 0.99)) / 1e3
	if b := x1.BatchesSent - x0.BatchesSent; b > 0 {
		st.batchMean = float64(x1.Published-x0.Published) / float64(b)
	}
	return st
}

// closedLoopStats is what phase B reports.
type closedLoopStats struct {
	rate, cpu     float64
	gcNs          float64
	events        uint64
	bytesPerEvent float64
	batchMean     float64
	blockedFrac   float64
	depthMax      int
	missing       uint64
}

// closedLoop is phase B: Publish as fast as the send window admits, so
// the fabric downstream of the exporter's queue sets the rate.
func (rig *fabricRig) closedLoop(dur, window time.Duration) closedLoopStats {
	rig.g.violEvery = closedLoopViolEvery
	var st closedLoopStats
	x0 := rig.x.Stats()
	m := newMeter(window, rig.applied())
	start := time.Now()
	deadline := start.Add(dur)
	var r rec
	var blocked time.Duration
	for chunk := uint32(0); ; chunk++ {
		blocked += rig.admit()
		if rig.spans == nil {
			for i := 0; i < 64; i++ {
				rig.step(&r, 0, batchSpans{})
			}
		} else {
			// Traced: one chunk in 64 gets spans, and queue depth is
			// polled.
			bs := rig.spans.sample(chunk)
			for i := 0; i < 64; i++ {
				rig.step(&r, 0, bs)
			}
			bs.done(64)
			if d := rig.x.Stats().QueueDepth; d > st.depthMax {
				st.depthMax = d
			}
		}
		now := time.Now()
		if m.roll(now, rig.applied) {
			rig.v.rollWindow()
		}
		if now.After(deadline) {
			break
		}
	}
	elapsed := time.Since(start)
	st.missing = rig.drain()
	st.rate, st.cpu, st.events = m.finish(rig.applied())
	st.gcNs = m.gcNs(rig.applied())
	x1 := rig.x.Stats()
	if n := x1.Published - x0.Published; n > 0 {
		st.bytesPerEvent = float64(x1.BytesSent-x0.BytesSent) / float64(n)
		if b := x1.BatchesSent - x0.BatchesSent; b > 0 {
			st.batchMean = float64(n) / float64(b)
		}
	}
	st.blockedFrac = blocked.Seconds() / elapsed.Seconds()
	return st
}

// fabricOutcome is one fabric run: both phases, and the rig still open
// so the caller can read layer counters before closing it.
type fabricOutcome struct {
	a          openLoopStats
	b          closedLoopStats
	detect     [4]float64 // p50, p99, p99 of all samples, max (µs), phase A
	samples    int
	stages     map[string]float64 // obs tracer stage p50s (µs), phase A
	publishNs  float64            // mean self time of Publish spans, phase A
	attempted  uint64
	failed     uint64
	heap       float64
	liveMax    int64
	setup      float64
	allocs     uint64
	verdictErr uint64
	engineNs   float64 // engine apply telemetry per event, phase B
}

// runFabricPhases runs phase A for shareA of the time and phase B for
// the rest on a fresh rig.
func runFabricPhases(o options, shareA float64) (*fabricRig, fabricOutcome) {
	var (
		rig    *fabricRig
		fo     fabricOutcome
		setups []float64
	)
	for o.moreSetups(setups) {
		if rig != nil {
			rig.close()
		}
		g := newFlowGen(o.seed, o.flows(), closedLoopViolEvery, true)
		v := newVerdicts("firewall-basic")
		t0 := time.Now()
		rig = newFabricRig(g, v, o.spans, rigShape{})
		setups = append(setups, time.Since(t0).Seconds())
	}
	fo.setup = median(setups)
	cs0, xs0 := rig.col.Stats(), rig.x.Stats()

	rig.v.resetLatency()
	fo.a = rig.openLoop(o.duration(shareA), o.window())
	p50, p99, p99All, max, n := rig.v.detect()
	fo.detect, fo.samples = [4]float64{p50, p99, p99All, max}, n
	if o.spans != nil {
		fo.stages = stageP50s(rig.colTr)
		fo.publishNs = o.spans.selfTimes()[spPublish].quantile(0.5)
	}
	fo.liveMax = liveInstances(rig.reg)
	// Phase A is judged on its own, before saturation: an event lost in
	// phase B would leave a ledger mark on the property, which excuses
	// every verdict still missing.
	fo.verdictErr = rig.v.errors(rig.sm.Ledger(), rig.g.now)
	rig.v.forget()

	allocs0 := mallocs()
	engine0, _ := applyNs(rig.reg)
	fo.b = rig.closedLoop(o.duration(1-shareA), o.window())
	fo.allocs = mallocs() - allocs0
	if engine1, _ := applyNs(rig.reg); fo.b.events > 0 {
		fo.engineNs = float64(engine1-engine0) / float64(fo.b.events)
	}
	if n := liveInstances(rig.reg); n > fo.liveMax {
		fo.liveMax = n
	}

	cs1, xs1 := rig.col.Stats(), rig.x.Stats()
	fo.attempted = xs1.Published - xs0.Published
	fo.failed = (cs1.GapEvents - cs0.GapEvents) + (xs1.ShedEvents - xs0.ShedEvents) + fo.a.missing + fo.b.missing +
		rig.sm.Stats().ShedEvents
	fo.verdictErr += rig.v.errors(rig.sm.Ledger(), rig.g.now)
	// The heap is read with the transport drained and closed and the
	// engine's state still held. With the exporter open it is a lottery:
	// acknowledged batches stay reachable through the front of its queue
	// slice's backing array until that array is reallocated, and identical
	// runs differed by 4 MB (25 %) on where that happened to stand.
	rig.closeTransport()
	rig.g = nil // the generator's frame tables are the harness's, not the system's
	fo.heap = heapMiB()
	return rig, fo
}

// stageP50s reads the program's own obs tracer: the p50 of each stage
// delta over the completed spans, in µs, keyed by the tracer's stage
// names.
func stageP50s(tr *tracer.Tracer) map[string]float64 {
	by := map[string][]int64{}
	for _, rec := range tr.Snapshot() {
		for st, ns := range rec.StageNs {
			by[st] = append(by[st], ns)
		}
	}
	out := map[string]float64{}
	for st, ns := range by {
		out[st] = float64(pctNs(sortedCopy(ns), 0.50)) / 1e3
	}
	return out
}

// runFabric is the fabric-steady workload.
func runFabric(o options) outcome {
	rig, fo := runFabricPhases(o, 0.4)
	defer rig.close()
	out := newOutcome()
	out.attempted, out.failed, out.verdictErrors = fo.attempted, fo.failed, fo.verdictErr
	out.detectSamples, out.engineNsPerEvent = fo.samples, fo.engineNs
	out.e2e["events_per_s"] = fo.b.rate
	out.e2e["cpu_ns_per_event"] = fo.b.cpu
	out.e2e["detect_p50_us"] = fo.detect[0]
	out.layer["harness.detect_p99_us"] = fo.detect[1]
	out.e2e["heap_mb"] = fo.heap
	out.e2e["setup_s"] = fo.setup
	coreLayer(&out, rig.sm.Stats(), rig.reg, rig.sm.Ledger(), fo.liveMax, fo.b.events, fo.allocs)
	out.layer["core.shard_skew"] = shardSkew(rig.sm)
	out.layer["runtime.gc_ns_per_event"] = fo.b.gcNs
	fabricLayer(&out, rig, fo)
	return out
}

// shardSkew is max÷mean of the per-shard applied-event counts: it
// bounds what one more shard can give.
func shardSkew(sm *core.ShardedMonitor) float64 {
	var max, sum float64
	ss := sm.ShardStats()
	for _, s := range ss {
		n := float64(s.Events)
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(ss)))
}

// fabricLayer reports the layers only the fabric exercises. The
// connection, sink and stage numbers exist in the traced pass only.
func fabricLayer(out *outcome, rig *fabricRig, fo fabricOutcome) {
	cs, xs := rig.col.Stats(), rig.x.Stats()
	l := out.layer
	l["gen.late_p99_us"] = fo.a.lateP99Us
	l["gen.late_windows"] = float64(fo.a.lateWindows)
	l["gen.rate_achieved"] = fo.a.rateAchieved
	l["exporter.batch_events_mean"] = fo.a.batchMean
	l["exporter.batch_events_mean_b"] = fo.b.batchMean
	l["exporter.shed_events"] = float64(xs.ShedEvents)
	l["exporter.reconnects"] = float64(xs.Reconnects)
	l["exporter.wire_bytes_per_event"] = fo.b.bytesPerEvent
	l["collector.batches"] = float64(cs.Batches)
	l["collector.gap_events"] = float64(cs.GapEvents)
	l["collector.deduped_events"] = float64(cs.Deduped)
	l["fabric.detect_p50_us"] = fo.detect[0]
	l["fabric.detect_p99_all_us"] = fo.detect[2]
	l["fabric.detect_max_us"] = fo.detect[3]
	if rig.spans == nil {
		return
	}
	l["exporter.publish_ns"] = fo.publishNs
	l["exporter.publish_blocked_frac"] = fo.b.blockedFrac
	l["exporter.queue_depth_max"] = float64(fo.b.depthMax)
	l["exporter.sock_writes"] = float64(rig.wconn.writes.Load())
	if n := float64(xs.Published); n > 0 {
		l["exporter.sock_write_ns_per_event"] = float64(rig.wconn.writeNs.Load()) / n
		l["collector.sock_read_ns_per_event"] = float64(rig.rconn.readNs.Load()) / n
	}
	if n := rig.sink.events.Load(); n > 0 {
		l["collector.submit_ns_per_event"] = float64(rig.sink.ns.Load()) / float64(n)
	}
	l["obs.stage.enqueue_seal_us"] = fo.stages[tracer.StageBatchSeal.String()]
	l["obs.stage.seal_send_us"] = fo.stages[tracer.StageWireSend.String()]
	l["obs.stage.send_recv_us"] = fo.stages[tracer.StageCollectorRecv.String()]
	l["obs.stage.recv_dispatch_us"] = fo.stages[tracer.StageShardDispatch.String()]
	l["obs.stage.dispatch_verdict_us"] = fo.stages[tracer.StageVerdict.String()]
}
