package tracer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"switchmon/internal/obs"
	"switchmon/internal/raceon"
)

func TestSamplingDeterministic(t *testing.T) {
	tr := New(Config{SampleN: 8})
	hits := 0
	for pid := uint64(0); pid < 8000; pid++ {
		a := tr.Sample(1, pid, 1)
		b := tr.Sampled(1, pid, 1)
		if (a != nil) != b {
			t.Fatalf("Sample and Sampled disagree for pid %d", pid)
		}
		if a != nil {
			hits++
		}
	}
	// 1-in-8 over 8000 structured keys: the mix keeps the class near
	// uniform; accept a generous band.
	if hits < 700 || hits > 1300 {
		t.Fatalf("sampled %d of 8000 at 1-in-8, want ~1000", hits)
	}
	// Same identity, same decision — always.
	for pid := uint64(0); pid < 100; pid++ {
		if tr.Sampled(1, pid, 1) != tr.Sampled(1, pid, 1) {
			t.Fatal("sampling decision not deterministic")
		}
	}
}

func TestSampleDisabledAndNil(t *testing.T) {
	var nilT *Tracer
	if nilT.Sample(1, 2, 3) != nil || nilT.Sampled(1, 2, 3) || nilT.SampleN() != 0 {
		t.Fatal("nil tracer sampled something")
	}
	nilT.Finish(&Span{})
	if nilT.Snapshot() != nil || nilT.Total() != 0 {
		t.Fatal("nil tracer retained something")
	}
	off := New(Config{SampleN: 0})
	for pid := uint64(0); pid < 100; pid++ {
		if off.Sample(1, pid, 1) != nil {
			t.Fatal("SampleN=0 sampled an event")
		}
	}
}

func TestStampFirstWins(t *testing.T) {
	var s Span
	s.StampAt(StageEnqueue, 100)
	s.StampAt(StageEnqueue, 200) // replay: must not overwrite
	if got := s.Mark(StageEnqueue); got != 100 {
		t.Fatalf("mark = %d, want 100 (first stamp wins)", got)
	}
	s.StampAt(StageIngress, 0) // zero is the unstamped sentinel
	if s.Mark(StageIngress) != 0 {
		t.Fatal("zero mark recorded")
	}
	if s.StageMask() != 1<<StageEnqueue {
		t.Fatalf("mask = %08b", s.StageMask())
	}
	// Nil-safety of every span method.
	var np *Span
	np.Stamp(StageIngress)
	np.StampAt(StageIngress, 5)
	np.SetClock(1, 1)
	np.MarkRemote(0xf)
	np.AddRefs(2)
	if np.Mark(StageIngress) != 0 || np.StageMask() != 0 || np.Release() {
		t.Fatal("nil span did something")
	}
}

func TestFinishComputesStageAndE2E(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{SampleN: 1, Metrics: reg})
	s := tr.Sample(7, 9, 1)
	base := int64(1_000_000_000_000)
	s.StampAt(StageIngress, base)
	s.StampAt(StageEnqueue, base+1000)
	s.StampAt(StageBatchSeal, base+3000)
	s.StampAt(StageWireSend, base+4000)
	s.MarkRemote(SwitchStageMask)
	s.SetClock(500, 40) // collector clock runs 500ns ahead
	s.StampAt(StageCollectorRecv, base+500+10_000)
	s.StampAt(StageShardDispatch, base+500+11_000)
	s.StampAt(StageVerdict, base+500+12_000)
	tr.Finish(s)
	tr.Finish(s) // idempotent

	if tr.Total() != 1 {
		t.Fatalf("total = %d, want 1 (Finish must be idempotent)", tr.Total())
	}
	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("snapshot len = %d", len(recs))
	}
	r := recs[0]
	if r.DPID != 7 || r.PacketID != 9 || r.OffsetNs != 500 {
		t.Fatalf("record = %+v", r)
	}
	// Switch marks shift by +500 before deltas: wire flight is
	// (recv_local) − (send_remote + offset) = 10500 − 4500 = 6000.
	want := map[string]int64{
		"enqueue": 1000, "batch_seal": 2000, "wire_send": 1000,
		"collector_recv": 6000, "shard_dispatch": 1000, "verdict": 1000,
	}
	for k, v := range want {
		if r.StageNs[k] != v {
			t.Fatalf("stage %s = %d, want %d (%+v)", k, r.StageNs[k], v, r.StageNs)
		}
	}
	// E2E: verdict_local − (ingress_remote + offset) = 12500 − 500 = 12000.
	if r.E2ENs != 12000 {
		t.Fatalf("e2e = %d, want 12000", r.E2ENs)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("switchmon_trace_spans_completed_total"); got != 1 {
		t.Fatalf("completed counter = %d", got)
	}
}

func TestNegativeDeltaClamps(t *testing.T) {
	tr := New(Config{SampleN: 1})
	s := tr.Sample(1, 1, 0)
	s.StampAt(StageWireSend, 10_000)
	s.MarkRemote(SwitchStageMask)
	s.SetClock(-9000, 100) // bad offset estimate: recv appears before send
	s.StampAt(StageCollectorRecv, 500)
	tr.Finish(s)
	r := tr.Snapshot()[0]
	if r.StageNs["collector_recv"] != 0 {
		t.Fatalf("negative delta must clamp to 0, got %d", r.StageNs["collector_recv"])
	}
}

func TestReleaseRefCounting(t *testing.T) {
	var s Span
	s.AddRefs(3)
	if s.Release() || s.Release() {
		t.Fatal("released early")
	}
	if !s.Release() {
		t.Fatal("last release not signalled")
	}
	// No AddRefs: single-consumer spans release immediately.
	var lone Span
	if !lone.Release() {
		t.Fatal("unreferenced span must release immediately")
	}
}

func TestRingWrapAndSnapshotOrder(t *testing.T) {
	tr := New(Config{SampleN: 1, Ring: 4})
	for i := 0; i < 10; i++ {
		s := &Span{Key: uint64(i), PacketID: uint64(i)}
		s.StampAt(StageVerdict, int64(i+1))
		tr.Finish(s)
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("retained = %d, want 4", len(recs))
	}
	for i, r := range recs {
		if r.PacketID != uint64(6+i) {
			t.Fatalf("record %d = pkt %d, want %d (oldest first)", i, r.PacketID, 6+i)
		}
	}
}

func TestWriteNDJSON(t *testing.T) {
	tr := New(Config{SampleN: 1})
	s := tr.Sample(3, 4, 1)
	s.StampAt(StageIngress, 100)
	s.StampAt(StageVerdict, 350)
	tr.Finish(s)
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("lines = %d", len(lines))
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line not valid JSON: %v", err)
	}
	if rec.DPID != 3 || rec.E2ENs != 250 || rec.Marks["ingress"] != 100 {
		t.Fatalf("decoded = %+v", rec)
	}
}

func TestClockEstimator(t *testing.T) {
	reg := obs.NewRegistry()
	offG := reg.Gauge("off", "o")
	dspG := reg.Gauge("dsp", "d")
	ce := NewClockEstimator(offG, dspG)
	if _, _, ok := ce.Estimate(); ok {
		t.Fatal("estimate before any sample")
	}
	// Peer clock runs 1ms ahead; RTT 200µs.
	ce.AddSample(1_000_000, 2_100_000, 1_200_000)
	off, dsp, ok := ce.Estimate()
	if !ok || off != 1_000_000 || dsp != 100_000 {
		t.Fatalf("estimate = %d/%d/%v, want 1ms/100µs", off, dsp, ok)
	}
	// EWMA: a second, different sample moves the estimate by 1/8.
	ce.AddSample(2_000_000, 3_900_000, 2_200_000)
	off, _, _ = ce.Estimate()
	if off != 1_100_000 {
		t.Fatalf("EWMA offset = %d, want 1.1ms", off)
	}
	if offG.Value() != 1_100_000 {
		t.Fatalf("gauge = %d", offG.Value())
	}
	// Negative RTT and nil receivers are inert.
	ce.AddSample(500, 1, 400)
	if ce.Samples() != 2 {
		t.Fatalf("samples = %d, want 2", ce.Samples())
	}
	var nc *ClockEstimator
	nc.AddSample(1, 2, 3)
	if _, _, ok := nc.Estimate(); ok || nc.Samples() != 0 {
		t.Fatal("nil estimator not inert")
	}
}

func TestConcurrentStampAndFinish(t *testing.T) {
	tr := New(Config{SampleN: 1, Ring: 64})
	const spans = 64
	var wg sync.WaitGroup
	for i := 0; i < spans; i++ {
		s := tr.Sample(1, uint64(i), 1)
		s.AddRefs(4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(s *Span) {
				defer wg.Done()
				s.Stamp(StageShardDispatch)
				if s.Release() {
					s.Stamp(StageVerdict)
					tr.Finish(s)
				}
			}(s)
		}
	}
	wg.Wait()
	if tr.Total() != spans {
		t.Fatalf("finished %d spans, want %d (exactly once each)", tr.Total(), spans)
	}
}

// The unsampled path runs once per event on every instrumented hot
// path: it must not allocate. check.sh gates on this test by name.
func TestUnsampledPathZeroAlloc(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
	tr := New(Config{SampleN: 1 << 40, Metrics: obs.NewRegistry()}) // effectively never samples
	var nilSpan *Span
	pid := uint64(0)
	avg := testing.AllocsPerRun(1000, func() {
		if sp := tr.Sample(1, pid, 1); sp != nil {
			t.Fatal("unexpected sample")
		}
		nilSpan.Stamp(StageEnqueue)
		nilSpan.Stamp(StageWireSend)
		if nilSpan.Release() {
			t.Fatal("nil span released")
		}
		tr.Finish(nilSpan)
		pid++
	})
	if avg != 0 {
		t.Fatalf("unsampled tracing path allocates %.1f/op, want 0", avg)
	}
}

// Finishing a sampled span renders it into a fixed-size slot of the
// completed-span log — evicting the oldest once the log is full — and
// feeds the histograms without allocating; spans render into
// SpanRecords only when /trace reads them.
func TestFinishSampledZeroAlloc(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
	const runs = 200
	tr := New(Config{SampleN: 1, Ring: 4, Metrics: obs.NewRegistry()})
	spans := make([]*Span, 4+runs+1) // AllocsPerRun adds one warm-up run
	for i := range spans {
		spans[i] = tr.Sample(1, uint64(i), 1)
		spans[i].StampAt(StageIngress, int64(100+i))
		spans[i].StampAt(StageVerdict, int64(300+i))
	}
	for _, sp := range spans[:4] {
		tr.Finish(sp) // fill the log
	}
	next := 4
	avg := testing.AllocsPerRun(runs, func() {
		tr.Finish(spans[next])
		next++
	})
	if avg != 0 {
		t.Fatalf("finishing a sampled span into a full log allocates %.1f/op, want 0", avg)
	}
	if tr.Total() != uint64(len(spans)) || len(tr.Snapshot()) != 4 {
		t.Fatalf("total %d retained %d, want %d and 4", tr.Total(), len(tr.Snapshot()), len(spans))
	}
}

func TestKeyDistinguishesIdentity(t *testing.T) {
	seen := map[uint64]string{}
	for dpid := uint64(1); dpid <= 3; dpid++ {
		for pid := uint64(1); pid <= 100; pid++ {
			for kind := uint8(0); kind < 3; kind++ {
				k := Key(dpid, pid, kind)
				id := fmt.Sprintf("%d/%d/%d", dpid, pid, kind)
				if prev, dup := seen[k]; dup {
					t.Fatalf("key collision: %s and %s", prev, id)
				}
				seen[k] = id
			}
		}
	}
}
