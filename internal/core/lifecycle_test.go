package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// The lifecycle cases run over the engine table (engine_contract_test.go):
// the lifecycle is propSet's, whichever engine embeds it.

// --- Lifecycle: install, remove, epoch, purge ------------------------------

func TestInlineInstallRemoveLive(t *testing.T) {
	forEachEngine(t, func(t *testing.T, row engineRow) {
		r := newRig(t, row, Config{}, catalogProp(t, "firewall-basic"))
		if got := r.eng.Epoch(); got != 0 {
			t.Fatalf("bootstrap epoch = %d, want 0", got)
		}

		// Open a flow: one live obligation instance.
		r.forward(tcpAB(packet.FlagSYN), 1, 2)
		if got := r.eng.ActiveInstances(); got != 1 {
			t.Fatalf("ActiveInstances = %d, want 1", got)
		}

		if err := r.eng.Apply(1, nil); err != nil {
			t.Fatalf("Apply of the empty set: %v", err)
		}
		if got := r.eng.Epoch(); got != 1 {
			t.Fatalf("epoch after live remove = %d, want 1", got)
		}
		if got := r.eng.ActiveInstances(); got != 0 {
			t.Fatalf("ActiveInstances after remove = %d, want 0 (purged)", got)
		}
		if got := r.eng.Properties(); len(got) != 0 {
			t.Fatalf("Properties after remove = %v, want none", got)
		}

		// The wrongful drop that would have violated: no property, no verdict.
		r.forward(tcpBA(packet.FlagACK), 2, 0)
		if got := r.violations("firewall-basic"); got != 0 {
			t.Fatalf("violations with no property installed = %d", got)
		}

		// Reinstall into the tombstoned slot; verdicts restart from here.
		if err := r.eng.Apply(2, []*property.Property{catalogProp(t, "firewall-basic")}); err != nil {
			t.Fatalf("reinstall: %v", err)
		}
		if got := r.eng.Epoch(); got != 2 {
			t.Fatalf("epoch after live reinstall = %d, want 2", got)
		}
		if epoch, ok := r.eng.Ledger().InstallEpoch("firewall-basic"); !ok || epoch != 2 {
			t.Fatalf("ledger install epoch = %d (installed %v), want 2", epoch, ok)
		}
		r.forward(tcpAB(packet.FlagSYN), 1, 2)
		r.forward(tcpBA(packet.FlagACK), 2, 0)
		if got := r.violations("firewall-basic"); got != 1 {
			t.Fatalf("violations after reinstall = %d, want 1", got)
		}
		if err := r.eng.SelfCheck(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInstallDuplicateNameRejected(t *testing.T) {
	forEachEngine(t, func(t *testing.T, row engineRow) {
		r := newRig(t, row, Config{}, catalogProp(t, "firewall-basic"))
		before := r.lifecycleView()
		if err := r.eng.AddProperty(catalogProp(t, "firewall-basic")); err == nil {
			t.Fatal("duplicate install succeeded, want error")
		}
		if after := r.lifecycleView(); after != before {
			t.Fatalf("rejected install changed the engine:\n before %s\n after  %s", before, after)
		}
		// A set naming the property twice is refused alike.
		twice := []*property.Property{catalogProp(t, "firewall-basic"), catalogProp(t, "firewall-basic")}
		if err := r.eng.Apply(1, twice); err == nil {
			t.Fatal("a set naming a property twice was applied, want error")
		}
		if after := r.lifecycleView(); after != before {
			t.Fatalf("rejected apply changed the engine:\n before %s\n after  %s", before, after)
		}
		// A set holding the property as it runs keeps it running and moves
		// only the epoch.
		if err := r.eng.Apply(1, twice[:1]); err != nil || r.eng.Epoch() != 1 {
			t.Fatalf("Apply of the running set: %v, epoch %d", err, r.eng.Epoch())
		}
		if marks := r.eng.Ledger().Snapshot(); len(marks) != 0 {
			t.Fatalf("re-applying the running set marked %+v", marks)
		}
	})
}

// --- Ledger × lifecycle: first-mark-wins across Remove→Install ------------

func TestFirstMarkWinsAcrossReinstall(t *testing.T) {
	forEachEngine(t, func(t *testing.T, row engineRow) {
		r := newRig(t, row, Config{}, catalogProp(t, "firewall-basic"))
		r.forward(tcpAB(packet.FlagSYN), 1, 2) // go live so installs stamp watermarks

		r.eng.MarkFeedLoss(r.now, 3, "lossy tap")
		if err := r.eng.Apply(1, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.eng.Apply(2, []*property.Property{catalogProp(t, "firewall-basic")}); err != nil {
			t.Fatal(err)
		}

		marks := r.eng.Ledger().Snapshot()
		if len(marks) != 1 {
			t.Fatalf("marks = %+v, want exactly one", marks)
		}
		// The original injected-loss mark survives the remove/reinstall cycle:
		// first mark wins, the reinstall does not relabel the degradation.
		if marks[0].Reason != UnsoundInjectedLoss {
			t.Fatalf("mark reason = %s, want injected-loss (first mark wins)", marks[0].Reason)
		}
		recs := r.eng.Ledger().InstallSnapshot()
		if len(recs) != 1 || recs[0].Generation != 2 {
			t.Fatalf("install records = %+v, want one at generation 2", recs)
		}
	})
}

func TestReinstallAloneMarksReinstalled(t *testing.T) {
	forEachEngine(t, func(t *testing.T, row engineRow) {
		r := newRig(t, row, Config{}, catalogProp(t, "firewall-basic"))
		r.forward(tcpAB(packet.FlagSYN), 1, 2)
		if err := r.eng.Apply(1, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.eng.Apply(2, []*property.Property{catalogProp(t, "firewall-basic")}); err != nil {
			t.Fatal(err)
		}
		marks := r.eng.Ledger().Snapshot()
		if len(marks) != 1 || marks[0].Reason != UnsoundReinstalled {
			t.Fatalf("marks = %+v, want one reinstalled mark", marks)
		}
	})
}

// --- Ledger × lifecycle: losses predating the install point ---------------

func TestFeedLossBeforeInstallDoesNotMark(t *testing.T) {
	forEachEngine(t, func(t *testing.T, row engineRow) {
		r := newRig(t, row, Config{}, catalogProp(t, "firewall-basic"))
		r.forward(tcpAB(packet.FlagSYN), 1, 2)
		before := r.now
		r.advance(10 * time.Second)

		// nat-reverse installs live at now > before.
		if err := r.eng.AddProperty(catalogProp(t, "nat-reverse")); err != nil {
			t.Fatal(err)
		}

		// A loss stamped before nat-reverse's install point owes it nothing.
		r.eng.MarkFeedLoss(before, 5, "loss predating install")
		for _, m := range r.eng.Ledger().Snapshot() {
			if m.Property == "nat-reverse" {
				t.Fatalf("nat-reverse marked for a pre-install loss: %+v", m)
			}
			if m.Property == "firewall-basic" && m.Events != 5 {
				t.Fatalf("firewall-basic lost=%d, want 5", m.Events)
			}
		}

		// A loss after the install point marks both.
		r.eng.MarkFeedLoss(r.now, 2, "loss after install")
		found := false
		for _, m := range r.eng.Ledger().Snapshot() {
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
	})
}

// --- Ledger × lifecycle: quarantined-property removal ---------------------

func TestQuarantinedRemovalClearsRoutingBit(t *testing.T) {
	forEachEngine(t, func(t *testing.T, row engineRow) {
		const victim = 1 // firewall-until-close
		name := "firewall-until-close"
		r := newRig(t, row, Config{},
			catalogProp(t, "firewall-basic"), catalogProp(t, name), catalogProp(t, "nat-reverse"))
		// The probe is armed for the first phase only: after the remove we
		// disarm it so the reinstalled property (same slot index) runs clean.
		var armed atomic.Bool
		armed.Store(true)
		r.probe(2, func(prop int, seq uint64) {
			if prop == victim && armed.Load() {
				panic("injected step panic (lifecycle)")
			}
		})

		evs := superviseStream(300, 3)
		for i := range evs {
			r.feed(evs[i])
		}
		r.advance(0)
		if r.eng.Quarantined() == 0 {
			t.Fatal("victim not quarantined; the probe never fired")
		}

		// Removing the quarantined property clears its routing-mask bit.
		if err := r.eng.Apply(1, []*property.Property{catalogProp(t, "firewall-basic"), catalogProp(t, "nat-reverse")}); err != nil {
			t.Fatalf("remove quarantined: %v", err)
		}
		if got := r.eng.Quarantined(); got != 0 {
			t.Fatalf("quarantine mask after remove = %b, want 0", got)
		}

		// The freed slot is clean: disarm the probe, reinstall the same name,
		// feed fresh flows — the property evaluates again (its quarantine
		// history survives in the ledger, first mark wins).
		armed.Store(false)
		if err := r.eng.AddProperty(catalogProp(t, name)); err != nil {
			t.Fatalf("reinstall into freed slot: %v", err)
		}
		preReinstall := r.violations(name)
		evs2 := superviseStream(100, 3)
		restart := r.now.Add(time.Second)
		for i := range evs2 {
			evs2[i].Time = restart.Add(evs2[i].Time.Sub(sim.Epoch))
			r.feed(evs2[i])
		}
		r.advance(time.Hour)
		if got := r.eng.Quarantined(); got != 0 {
			t.Fatalf("reinstalled property re-quarantined: mask=%b", got)
		}
		if postReinstall := r.violations(name); postReinstall <= preReinstall {
			t.Fatalf("reinstalled property found no violations (pre=%d post=%d); slot still dead",
				preReinstall, postReinstall)
		}
		var quarMark *UnsoundMark
		for _, m := range r.eng.Ledger().Snapshot() {
			if m.Property == name {
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
		if err := r.eng.SelfCheck(); err != nil {
			t.Fatalf("post-lifecycle invariants: %v", err)
		}
	})
}

// --- Removal from inside a violation callback -------------------------------

// TestRemoveFromViolationCallback removes a property from inside its own
// violation callback, the re-entrant case in which rows are in flight:
// the violating row (unfiled, not yet released) and, with two instances
// completed by one event, a second row the stage's act loop still holds.
// The removal purges both; the step that was running must neither
// release them again, nor advance them, nor create an instance (the
// event also matches stage 0) for the property it no longer has. The store stays consistent and the other
// property keeps running.
func TestRemoveFromViolationCallback(t *testing.T) {
	anyDrop, err := property.Parse(`property "any-drop" {
  on egress "seen" {
    bind $S = ip.src
  }
  on egress "drop" {
    match dropped == 1
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	keep := catalogProp(t, "firewall-basic")
	h := newHarness(t, Config{Provenance: ProvLimited}, anyDrop, keep)
	h.mon.cfg.OnViolation = func(v *Violation) {
		h.viols = append(h.viols, v)
		if v.Property == anyDrop.Name {
			if err := h.mon.Apply(2, []*property.Property{keep}); err != nil {
				t.Errorf("remove from callback: %v", err)
			}
		}
	}
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forward(packet.NewTCP(macA, macB, ipC, ipB, 40001, 80, packet.FlagSYN, nil), 1, 2)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	if err := h.mon.SelfCheck(); err != nil {
		t.Fatalf("after the removal: %v", err)
	}
	byProp := map[string]int{}
	for _, v := range h.viols {
		byProp[v.Property]++
	}
	if byProp[anyDrop.Name] != 1 || byProp[keep.Name] != 1 {
		t.Fatalf("violations by property = %v, want one each", byProp)
	}
	h.forward(tcpAB(packet.FlagSYN), 1, 2)
	h.forwardDropped(tcpBA(packet.FlagACK), 2)
	if err := h.mon.SelfCheck(); err != nil {
		t.Fatalf("after more events: %v", err)
	}
	if byProp[keep.Name]++; len(h.viols) != 3 || h.viols[2].Property != keep.Name {
		t.Fatalf("violations after the removal: %d, last %s", len(h.viols), h.viols[len(h.viols)-1].Property)
	}
}
