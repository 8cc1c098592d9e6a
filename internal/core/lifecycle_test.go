package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// --- Inline lifecycle: install, remove, epoch, purge ----------------------

func TestInlineInstallRemoveLive(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	if got := h.mon.Epoch(); got != 0 {
		t.Fatalf("bootstrap epoch = %d, want 0", got)
	}

	// Open a flow: one live obligation instance.
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	if got := h.mon.ActiveInstances(); got != 1 {
		t.Fatalf("ActiveInstances = %d, want 1", got)
	}

	if err := h.mon.RemoveProperty("firewall-basic"); err != nil {
		t.Fatalf("RemoveProperty: %v", err)
	}
	if got := h.mon.Epoch(); got != 1 {
		t.Fatalf("epoch after live remove = %d, want 1", got)
	}
	if got := h.mon.ActiveInstances(); got != 0 {
		t.Fatalf("ActiveInstances after remove = %d, want 0 (purged)", got)
	}
	if got := h.mon.Properties(); len(got) != 0 {
		t.Fatalf("Properties after remove = %v, want none", got)
	}

	// The wrongful drop that would have violated: no property, no verdict.
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(0)

	// Removing twice is an error.
	if err := h.mon.RemoveProperty("firewall-basic"); err == nil {
		t.Fatal("second RemoveProperty succeeded, want error")
	}

	// Reinstall into the tombstoned slot; verdicts restart from here.
	if err := h.mon.InstallProperty(catalogProp(t, "firewall-basic")); err != nil {
		t.Fatalf("reinstall: %v", err)
	}
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	h.wantViolations(1)
}

func TestInstallDuplicateNameRejected(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	if err := h.mon.InstallProperty(catalogProp(t, "firewall-basic")); err == nil {
		t.Fatal("duplicate install succeeded, want error")
	}
	// Replace is the sanctioned swap: one reinstall mark, not an error.
	if err := h.mon.ReplaceProperty(catalogProp(t, "firewall-basic")); err != nil {
		t.Fatalf("ReplaceProperty: %v", err)
	}
}

// --- Ledger × lifecycle: first-mark-wins across Remove→Install ------------

func TestFirstMarkWinsAcrossReinstall(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2) // go live so installs stamp watermarks

	h.mon.MarkFeedLoss(h.sched.Now(), 3, "lossy tap")
	if err := h.mon.RemoveProperty("firewall-basic"); err != nil {
		t.Fatal(err)
	}
	if err := h.mon.InstallProperty(catalogProp(t, "firewall-basic")); err != nil {
		t.Fatal(err)
	}

	marks := h.mon.Ledger().Snapshot()
	if len(marks) != 1 {
		t.Fatalf("marks = %+v, want exactly one", marks)
	}
	// The original injected-loss mark survives the remove/reinstall cycle:
	// first mark wins, the reinstall does not relabel the degradation.
	if marks[0].Reason != UnsoundInjectedLoss {
		t.Fatalf("mark reason = %s, want injected-loss (first mark wins)", marks[0].Reason)
	}
	recs := h.mon.Ledger().InstallSnapshot()
	if len(recs) != 1 || recs[0].Generation != 2 {
		t.Fatalf("install records = %+v, want one at generation 2", recs)
	}
}

func TestReinstallAloneMarksReinstalled(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	if err := h.mon.RemoveProperty("firewall-basic"); err != nil {
		t.Fatal(err)
	}
	if err := h.mon.InstallProperty(catalogProp(t, "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	marks := h.mon.Ledger().Snapshot()
	if len(marks) != 1 || marks[0].Reason != UnsoundReinstalled {
		t.Fatalf("marks = %+v, want one reinstalled mark", marks)
	}
}

// --- Ledger × lifecycle: losses predating the install point ---------------

func TestFeedLossBeforeInstallDoesNotMark(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	before := h.sched.Now()
	h.advance(10 * time.Second)

	// nat-reverse installs live at now > before.
	if err := h.mon.InstallProperty(catalogProp(t, "nat-reverse")); err != nil {
		t.Fatal(err)
	}

	// A loss stamped before nat-reverse's install point owes it nothing.
	h.mon.MarkFeedLoss(before, 5, "loss predating install")
	for _, m := range h.mon.Ledger().Snapshot() {
		if m.Property == "nat-reverse" {
			t.Fatalf("nat-reverse marked for a pre-install loss: %+v", m)
		}
		if m.Property == "firewall-basic" && m.Events != 5 {
			t.Fatalf("firewall-basic lost=%d, want 5", m.Events)
		}
	}

	// A loss after the install point marks both.
	h.mon.MarkFeedLoss(h.sched.Now(), 2, "loss after install")
	found := false
	for _, m := range h.mon.Ledger().Snapshot() {
		if m.Property == "nat-reverse" {
			found = true
			if m.Events != 2 {
				t.Fatalf("nat-reverse lost=%d, want 2 (only the post-install loss)", m.Events)
			}
		}
	}
	if !found {
		t.Fatal("nat-reverse not marked for a post-install loss")
	}
}

// --- Ledger × lifecycle: quarantined-property removal ---------------------

func TestQuarantinedRemovalClearsRoutingBit(t *testing.T) {
	props := []*property.Property{
		catalogProp(t, "firewall-basic"),
		catalogProp(t, "firewall-until-close"),
		catalogProp(t, "nat-reverse"),
	}
	const victim = 1 // firewall-until-close
	var mu sync.Mutex
	counts := map[string]int{}
	sm := NewShardedMonitor(4, Config{OnViolation: func(v *Violation) {
		mu.Lock()
		counts[v.Property]++
		mu.Unlock()
	}})
	defer sm.Close()
	for _, p := range props {
		if err := sm.AddProperty(p); err != nil {
			t.Fatal(err)
		}
	}
	// The probe is armed for the first phase only: after the remove we
	// disarm it so the reinstalled property (same slot index) runs clean.
	var armed atomic.Bool
	armed.Store(true)
	if err := sm.SetShardProbe(2, func(prop int, seq uint64) {
		if prop == victim && armed.Load() {
			panic("injected step panic (lifecycle)")
		}
	}); err != nil {
		t.Fatal(err)
	}

	evs := superviseStream(300, 3)
	for i := range evs {
		sm.Feed(evs[i])
	}
	sm.Barrier()
	if sm.Quarantined() == 0 {
		t.Fatal("victim not quarantined; the probe never fired")
	}

	// Removing the quarantined property clears its routing-mask bit.
	if err := sm.RemoveProperty(props[victim].Name); err != nil {
		t.Fatalf("remove quarantined: %v", err)
	}
	if got := sm.Quarantined(); got != 0 {
		t.Fatalf("quarantine mask after remove = %b, want 0", got)
	}

	// The freed slot is clean: disarm the probe, reinstall the same name,
	// feed fresh flows — the property evaluates again (its quarantine
	// history survives in the ledger, first mark wins).
	armed.Store(false)
	if err := sm.InstallProperty(catalogProp(t, "firewall-until-close")); err != nil {
		t.Fatalf("reinstall into freed slot: %v", err)
	}
	mu.Lock()
	preReinstall := counts[props[victim].Name]
	mu.Unlock()
	evs2 := superviseStream(100, 3)
	last := evs[len(evs)-1].Time
	for i := range evs2 {
		evs2[i].Time = last.Add(time.Second).Add(evs2[i].Time.Sub(sim.Epoch))
		sm.Feed(evs2[i])
	}
	sm.AdvanceTo(evs2[len(evs2)-1].Time.Add(time.Hour))
	if got := sm.Quarantined(); got != 0 {
		t.Fatalf("reinstalled property re-quarantined: mask=%b", got)
	}
	mu.Lock()
	postReinstall := counts[props[victim].Name]
	mu.Unlock()
	if postReinstall <= preReinstall {
		t.Fatalf("reinstalled property found no violations (pre=%d post=%d); slot still dead",
			preReinstall, postReinstall)
	}
	var quarMark *UnsoundMark
	for _, m := range sm.Ledger().Snapshot() {
		if m.Property == props[victim].Name {
			m := m
			quarMark = &m
		}
	}
	if quarMark == nil || quarMark.Reason != UnsoundQuarantine {
		t.Fatalf("quarantine history lost across remove/reinstall: %+v", quarMark)
	}
	if !strings.Contains(quarMark.Detail, "injected step panic") {
		t.Fatalf("mark detail %q lost the panic attribution", quarMark.Detail)
	}
	if err := sm.SelfCheck(); err != nil {
		t.Fatalf("post-lifecycle invariants: %v", err)
	}
}
