package exporter

import (
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/wire"
)

// TestReconnectReplayWithTracing kills the first connection with one
// unacked traced batch in flight and lets the replay land on a second
// connection. Stage marks are first-stamp-wins, so the replayed batch
// must carry byte-for-byte the same switch-stage marks as the original
// send — no double stamping — and the replay (delivered, just twice)
// must leave the wire-loss ledger clean.
func TestReconnectReplayWithTracing(t *testing.T) {
	srv := newStubServer(t)
	srv.ackFeatures = wire.FeatureTrace
	srv.killAfterBatches = 1

	tr := tracer.New(tracer.Config{SampleN: 1})
	x, err := New(Config{Addr: srv.addr(), DPID: 1, BatchSizeMax: 4, BackoffMin: time.Millisecond, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}

	// Published before Start, the four events reach the cap and seal as
	// one batch; a sender already running could idle-seal the first alone.
	const n = 4
	spans := make([]*tracer.Span, 0, n)
	for i := 1; i <= n; i++ {
		e := ev(i)
		e.PacketID = core.PacketID(i)
		// Originate the span the way the dataplane would, pre-exporter.
		sp := tr.Sample(1, uint64(e.PacketID), uint8(e.Kind))
		if sp == nil {
			t.Fatalf("1-in-1 sampler skipped event %d", i)
		}
		sp.Stamp(tracer.StageIngress)
		e.Trace = sp
		spans = append(spans, sp)
		x.Publish(e)
	}
	x.Start()

	waitFor(t, "first (killed) batch", func() bool { _, b := srv.snapshot(); return len(b) >= 1 })
	// Snapshot the switch-stage marks as of the first send.
	firstMarks := make([][tracer.NumStages]int64, n)
	for i, sp := range spans {
		for st := tracer.Stage(0); st < tracer.NumStages; st++ {
			firstMarks[i][st] = sp.Mark(st)
		}
		for _, st := range []tracer.Stage{tracer.StageIngress, tracer.StageEnqueue, tracer.StageBatchSeal, tracer.StageWireSend} {
			if sp.Mark(st) == 0 {
				t.Fatalf("span %d missing %s before replay", i, st)
			}
		}
	}

	srv.mu.Lock()
	srv.killAfterBatches = 0
	srv.mu.Unlock()
	waitFor(t, "replayed batch", func() bool { _, b := srv.snapshot(); return len(b) >= 2 })
	if abandoned := x.Close(2 * time.Second); abandoned != 0 {
		t.Fatalf("abandoned %d events", abandoned)
	}

	// No local span gained a second stamp from the replay.
	for i, sp := range spans {
		for st := tracer.Stage(0); st < tracer.NumStages; st++ {
			if got := sp.Mark(st); got != firstMarks[i][st] {
				t.Errorf("span %d stage %s restamped on replay: %d -> %d", i, st, firstMarks[i][st], got)
			}
		}
	}

	// Both wire copies are traced and carry identical mark sets.
	_, batches := srv.snapshot()
	if len(batches) < 2 {
		t.Fatalf("got %d batches", len(batches))
	}
	orig, replay := batches[0], batches[1]
	if !orig.Traced || !replay.Traced {
		t.Fatalf("traced flags = %v/%v, want true/true", orig.Traced, replay.Traced)
	}
	if orig.FirstSeq != replay.FirstSeq || len(orig.Events) != len(replay.Events) {
		t.Fatalf("replay shape differs: seq %d x%d vs seq %d x%d",
			orig.FirstSeq, len(orig.Events), replay.FirstSeq, len(replay.Events))
	}
	for i := range orig.Events {
		so, sr := orig.Events[i].Trace, replay.Events[i].Trace
		if so == nil || sr == nil {
			t.Fatalf("event %d lost its span on the wire (%v/%v)", i, so, sr)
		}
		if so.StageMask() != tracer.SwitchStageMask || sr.StageMask() != so.StageMask() {
			t.Fatalf("event %d stage masks differ: %08b vs %08b", i, so.StageMask(), sr.StageMask())
		}
		for st := tracer.Stage(0); st < tracer.NumStages; st++ {
			if so.Mark(st) != sr.Mark(st) {
				t.Errorf("event %d stage %s: original %d, replay %d", i, st, so.Mark(st), sr.Mark(st))
			}
		}
	}

	// Replay is delivery, not loss: the ledger stays sound.
	if !x.Ledger().Sound() {
		t.Fatalf("replayed traced events marked unsound: %+v", x.Ledger().Snapshot())
	}
}

// TestShedWithTracingMarksExactLoss re-runs the shed-policy scenario
// with tracing enabled: the wire-loss ledger mark must stay exactly one
// mark with the true count, unskewed by span bookkeeping.
func TestShedWithTracingMarksExactLoss(t *testing.T) {
	tr := tracer.New(tracer.Config{SampleN: 1})
	x, err := New(Config{
		Addr: "127.0.0.1:1", DPID: 2, BatchSizeMax: 1, QueueBatches: 2,
		Shed: core.ShedDropNewest, BackoffMin: 10 * time.Millisecond,
		DialTimeout: 10 * time.Millisecond, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	for i := 1; i <= 10; i++ {
		e := ev(i)
		e.Trace = tr.Sample(2, uint64(i), uint8(e.Kind))
		e.Trace.Stamp(tracer.StageIngress)
		x.Publish(e)
	}
	st := x.Stats()
	x.Close(10 * time.Millisecond)
	marks := x.Ledger().Snapshot()
	if len(marks) != 1 || marks[0].Reason != core.UnsoundWireLoss {
		t.Fatalf("marks = %+v", marks)
	}
	if st.ShedEvents == 0 || marks[0].Events < st.ShedEvents {
		t.Fatalf("shed %d but ledger counts %d", st.ShedEvents, marks[0].Events)
	}
}
