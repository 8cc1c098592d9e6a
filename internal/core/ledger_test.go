package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/sim"
)

// The first mark pins a property's reason and since-point; later marks —
// even with a different reason — only accumulate the loss count. The
// degradation story a ledger tells is "unsound since X because Y", not
// the most recent incident.
func TestLedgerFirstMarkWins(t *testing.T) {
	l := newLedger()
	t0 := sim.Epoch
	l.Mark("p", UnsoundQuota, 10, t0, 3, "queue share exhausted")
	l.Mark("p", UnsoundInjectedLoss, 50, t0.Add(time.Second), 7, "later loss")
	marks := l.Snapshot()
	if len(marks) != 1 {
		t.Fatalf("marks = %+v, want one entry for p", marks)
	}
	m := marks[0]
	if m.Reason != UnsoundQuota || m.SinceSeq != 10 || !m.SinceTime.Equal(t0) || m.Detail != "queue share exhausted" {
		t.Fatalf("first mark not pinned: %+v", m)
	}
	if m.Events != 10 {
		t.Fatalf("Events = %d, want 10 (3 + 7 accumulated)", m.Events)
	}
}

func TestLedgerSoundAndSnapshotOrder(t *testing.T) {
	l := newLedger()
	if !l.Sound() {
		t.Fatal("fresh ledger must be sound")
	}
	if marks := l.Snapshot(); len(marks) != 0 {
		t.Fatalf("fresh ledger has marks: %+v", marks)
	}
	l.Mark("zebra", UnsoundEvicted, 1, sim.Epoch, 1, "")
	l.Mark("alpha", UnsoundQuarantine, 2, sim.Epoch, 0, "panic")
	l.Mark("mid", UnsoundSplitOverflow, 3, sim.Epoch, 2, "")
	if l.Sound() {
		t.Fatal("marked ledger claims soundness")
	}
	marks := l.Snapshot()
	if len(marks) != 3 || marks[0].Property != "alpha" || marks[1].Property != "mid" || marks[2].Property != "zebra" {
		t.Fatalf("snapshot not sorted by property: %+v", marks)
	}
}

// Aggregate totals come from recordLost (once per occurrence), not from
// per-property Marks: one lost burst affecting many properties counts
// its events once.
func TestLedgerTotalsCountOccurrencesOnce(t *testing.T) {
	l := newLedger()
	// One loss of 5 events that three properties would have seen.
	for _, p := range []string{"a", "b", "c"} {
		l.Mark(p, UnsoundInjectedLoss, 9, sim.Epoch, 5, "lost")
	}
	l.recordLost(UnsoundInjectedLoss, 5)
	if loss, _ := l.lostEvents(); loss != 5 {
		t.Fatalf("loss total = %d, want 5 (once, not per property)", loss)
	}
	if q := l.quarantined(); q != 0 {
		t.Fatalf("quarantined = %d, want 0", q)
	}
	// Quarantining the same property twice counts once.
	l.Mark("a", UnsoundQuarantine, 11, sim.Epoch, 0, "panic")
	l.Mark("a", UnsoundQuarantine, 12, sim.Epoch, 0, "panic again")
	l.Mark("b", UnsoundQuarantine, 13, sim.Epoch, 0, "panic")
	if q := l.quarantined(); q != 2 {
		t.Fatalf("quarantined = %d, want 2 distinct properties", q)
	}
	l.recordLost(UnsoundInjectedLoss, 4)
	l.recordLost(UnsoundSplitOverflow, 6)
	if loss, ovfl := l.lostEvents(); loss != 9 || ovfl != 6 {
		t.Fatalf("lostEvents = (%d, %d), want (9, 6)", loss, ovfl)
	}
}

// Reasons render as stable names in JSON — the contract /healthz and the
// CLI exit report rely on.
func TestUnsoundReasonJSON(t *testing.T) {
	for reason, want := range map[UnsoundReason]string{
		UnsoundQuarantine:    `"quarantine"`,
		UnsoundInjectedLoss:  `"injected-loss"`,
		UnsoundSplitOverflow: `"split-overflow"`,
		UnsoundEvicted:       `"evicted"`,
	} {
		b, err := json.Marshal(reason)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Errorf("reason %d marshals to %s, want %s", reason, b, want)
		}
	}
	mark := UnsoundMark{Property: "p", Reason: UnsoundQuarantine, SinceSeq: 7, SinceTime: sim.Epoch, Detail: "panic: boom"}
	b, err := json.Marshal(mark)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"property":"p"`, `"reason":"quarantine"`, `"since_seq":7`, `"detail":"panic: boom"`} {
		if !strings.Contains(string(b), frag) {
			t.Errorf("mark JSON %s missing %s", b, frag)
		}
	}
}

// Instrumented ledgers keep the unsound-properties gauge and the
// per-reason counters in lockstep with the marks; an uninstrumented
// ledger records through nil handles without crashing.
func TestLedgerInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	l := newLedger()
	l.instrument(reg, nil)
	l.Mark("a", UnsoundQuota, 1, sim.Epoch, 2, "")
	l.Mark("b", UnsoundQuarantine, 2, sim.Epoch, 0, "panic")
	l.recordLost(UnsoundQuota, 2)
	l.recordLost(UnsoundInjectedLoss, 3)
	l.recordLost(UnsoundSplitOverflow, 4)
	want := map[string]int64{
		"switchmon_monitor_unsound_properties":          2,
		"switchmon_ledger_quota_events_total":           2,
		"switchmon_ledger_quarantined_properties_total": 1,
		"switchmon_ledger_injected_loss_events_total":   3,
		"switchmon_ledger_overflow_events_total":        4,
	}
	got := map[string]int64{}
	for _, fam := range reg.Snapshot().Families {
		if _, ok := want[fam.Name]; !ok {
			continue
		}
		for _, s := range fam.Series {
			got[fam.Name] += s.Value
		}
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}

	// Uninstrumented: same operations, no registry, no panic.
	u := newLedger()
	u.Mark("a", UnsoundQuota, 1, sim.Epoch, 1, "")
	u.recordLost(UnsoundQuota, 1)
	if u.Sound() {
		t.Fatal("uninstrumented ledger lost its mark")
	}
}

// lostEvents reports the injected-loss and overflow aggregates.
func (l *Ledger) lostEvents() (loss, overflow uint64) {
	return l.loss.Load(), l.overflow.Load()
}
