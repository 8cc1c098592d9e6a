package integration

import (
	"net"
	"testing"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/obs"
	"switchmon/internal/obs/histdb"
	"switchmon/internal/obs/slo"
	"switchmon/internal/obs/tracer"
)

// attachSelfMonitor runs the full self-monitoring tier — a fast-cadence
// history sampler plus the built-in SLO rules — over reg for the life
// of the test. The differential tests use it to prove observation
// changes nothing: sampling and burn-rate evaluation ride alongside the
// engine, and verdicts must stay byte-identical to the inline
// reference.
func attachSelfMonitor(t *testing.T, reg *obs.Registry) {
	t.Helper()
	db := histdb.New(histdb.Config{Registry: reg, SampleEvery: 10 * time.Millisecond, Retention: time.Minute})
	slo.New(slo.Config{DB: db, Rules: slo.BuiltinRules(), Registry: reg})
	db.Start()
	t.Cleanup(db.Close)
}

// newTracedFabricRig is newFabricRig with end-to-end tracing wired in:
// one switch-side tracer shared by both dataplane switches and their
// exporters, one collector-side tracer on the collector and the sharded
// engine. A non-zero wireDelay interposes a delay proxy on the
// exporter->collector path.
// A non-zero adaptiveSLO turns on the exporters' seal controller, which
// may lower the target below the batchSize cap.
func newTracedFabricRig(t *testing.T, batchSize int, sampleN uint64, wireDelay, adaptiveSLO time.Duration) (*fabricRig, *tracer.Tracer, *tracer.Tracer) {
	t.Helper()
	swTr := tracer.New(tracer.Config{SampleN: sampleN})
	colTr := tracer.New(tracer.Config{SampleN: sampleN})

	rig := &fabricRig{n: buildFabricPath(t), rec: &violationRecorder{}}
	// The engine runs fully observed: metrics on, history sampled at a
	// deliberately aggressive 10ms cadence, SLO rules evaluating live.
	reg := obs.NewRegistry()
	attachSelfMonitor(t, reg)
	rig.sm = core.NewShardedMonitor(4, core.Config{
		Provenance: core.ProvLimited, OnViolation: rig.rec.record, Tracer: colTr, Metrics: reg,
	})
	if err := rig.sm.AddProperty(parseLeasedMAC(t)); err != nil {
		t.Fatal(err)
	}
	col, err := collector.New(collector.Config{Addr: "127.0.0.1:0", Tracer: colTr}, rig.sm)
	if err != nil {
		t.Fatal(err)
	}
	col.Serve()
	rig.col = col
	dialAddr := col.Addr().String()
	if wireDelay > 0 {
		dialAddr = delayProxy(t, dialAddr, wireDelay)
	}
	for i, dpid := range []uint64{1, 2} {
		xcfg := exporter.Config{Addr: dialAddr, DPID: dpid, BatchSizeMax: batchSize, TargetSealLatency: adaptiveSLO, Tracer: swTr}
		x, err := exporter.New(xcfg)
		if err != nil {
			t.Fatal(err)
		}
		x.Start()
		rig.exps[i] = x
	}
	rig.n.Switch("edge").SetTracer(swTr)
	rig.n.Switch("core").SetTracer(swTr)
	return rig, swTr, colTr
}

// TestFabricTracingDifferential is the acceptance gate for the tracing
// layer: with tracing enabled at any sample rate, fabric verdicts must
// stay byte-identical to the inline engine — spans are observability
// metadata, never semantics. At 1-in-1 sampling the collector must also
// complete spans that carry all seven stages. The adaptive case runs
// the same traffic with the seal controller choosing batch sizes: how
// events are grouped into wire batches must never leak into verdicts.
func TestFabricTracingDifferential(t *testing.T) {
	want := runInline(t)
	if len(want) != 2 {
		t.Fatalf("inline reference found %d violations, want 2:\n%v", len(want), want)
	}

	cases := []struct {
		name    string
		sampleN uint64
		slo     time.Duration
	}{
		{"fixed/sample=1", 1, 0},
		{"fixed/sample=3", 3, 0},
		{"adaptive/sample=1", 1, 250 * time.Microsecond},
	}
	for _, tc := range cases {
		rig, _, colTr := newTracedFabricRig(t, 4, tc.sampleN, 0, tc.slo)
		rig.n.Switch("edge").Observe(rig.exps[0].Publish)
		rig.n.Switch("core").Observe(rig.exps[1].Publish)
		driveFabricTraffic(rig.n, func() { rig.sync(t) })
		rig.settle(t)

		got := rig.rec.sorted()
		if len(got) != len(want) {
			t.Fatalf("%s: fabric found %d violations, inline %d:\nfabric: %v\ninline: %v",
				tc.name, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: verdict %d differs with tracing on\nfabric: %s\ninline: %s",
					tc.name, i, got[i], want[i])
			}
		}
		if !rig.sm.Ledger().Sound() {
			t.Fatalf("%s: tracing left unsound ledger: %+v", tc.name, rig.sm.Ledger().Snapshot())
		}

		recs := colTr.Snapshot()
		if len(recs) == 0 {
			t.Fatalf("%s: no spans completed at the collector", tc.name)
		}
		if tc.sampleN == 1 {
			full := 0
			for _, r := range recs {
				if len(r.Marks) == int(tracer.NumStages) {
					full++
				}
			}
			if full == 0 {
				t.Fatalf("%s: no span carries all %d stages: %+v", tc.name, tracer.NumStages, recs[0].Marks)
			}
		}
		rig.close()
	}
}

// delayProxy forwards TCP both ways between the exporters and the
// collector, sleeping d before relaying each read — a deterministic
// wire-delay fault with symmetric one-way latency.
func delayProxy(t *testing.T, target string, d time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	relay := func(dst, src net.Conn) {
		defer dst.Close()
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				time.Sleep(d)
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			go relay(up, down)
			go relay(down, up)
		}
	}()
	return ln.Addr().String()
}

// TestFaultMatrixWireDelayTracingMonotone is the fault-matrix cell for
// wire delay with tracing on: spans cross a delayed link, and within
// each host's clock domain — {ingress, enqueue, batch_seal, wire_send}
// on the switch, {collector_recv, shard_dispatch, verdict} on the
// collector — raw stage marks must stay monotone. Cross-domain deltas
// go through the offset estimate and may wobble; intra-domain order is
// physical and must not.
func TestFaultMatrixWireDelayTracingMonotone(t *testing.T) {
	const oneWay = 3 * time.Millisecond
	rig, _, colTr := newTracedFabricRig(t, 2, 1, oneWay, 0)
	defer rig.close()
	rig.n.Switch("edge").Observe(rig.exps[0].Publish)
	rig.n.Switch("core").Observe(rig.exps[1].Publish)
	driveFabricTraffic(rig.n, func() { rig.sync(t) })
	rig.settle(t)

	switchStages := []string{"ingress", "enqueue", "batch_seal", "wire_send"}
	collectorStages := []string{"collector_recv", "shard_dispatch", "verdict"}
	recs := colTr.Snapshot()
	if len(recs) == 0 {
		t.Fatal("no spans completed across the delayed wire")
	}
	sawFlight := false
	for _, r := range recs {
		for _, group := range [][]string{switchStages, collectorStages} {
			prev := int64(0)
			for _, st := range group {
				m := r.Marks[st]
				if m == 0 {
					continue
				}
				if m < prev {
					t.Fatalf("span %x: stage %s mark %d precedes previous stage (%d); marks=%v",
						r.Key, st, m, prev, r.Marks)
				}
				prev = m
			}
		}
		// The wire flight (collector_recv's delta from wire_send after
		// offset adjustment) should reflect the injected delay for spans
		// that crossed the proxy.
		if ns, ok := r.StageNs["collector_recv"]; ok && ns >= oneWay.Nanoseconds()/2 {
			sawFlight = true
		}
	}
	if !sawFlight {
		t.Fatalf("no span shows wire flight >= %v/2 across the delay proxy", oneWay)
	}
}
