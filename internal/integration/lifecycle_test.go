package integration

import (
	"sync"
	"testing"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/dsl"
	"switchmon/internal/exporter"
	"switchmon/internal/federation"
	"switchmon/internal/property"
	"switchmon/internal/wire"
)

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The fabric half of the lifecycle differential gate: properties are
// removed and reinstalled on the collector's sharded engine while two
// switches stream events over real TCP, and every property-set change
// is pushed to the property-kind exporters and acked. The stable
// property's verdicts must be byte-identical to the static inline
// reference; the churned property carries exactly its reinstalled mark.
func TestFabricLifecycleChurnDifferential(t *testing.T) {
	want := runInline(t)
	if len(want) != 2 {
		t.Fatalf("inline reference found %d violations, want 2:\n%v", len(want), want)
	}

	n := buildFabricPath(t)
	rec := &violationRecorder{}
	sm := core.NewShardedMonitor(4, core.Config{
		Provenance: core.ProvLimited, OnViolation: rec.record,
		StateTopK: 16, StateSample: 1, StateWatermark: 1,
	})
	defer sm.Close()
	col, err := collector.New(collector.Config{Addr: "127.0.0.1:0"}, sm)
	if err != nil {
		t.Fatal(err)
	}
	// The set as cmd/collector keeps it: every change is pushed to the
	// property-kind exporters, one epoch on.
	set := federation.NewPropertySet(sm, col.Broadcast)
	churnName := "firewall-basic"
	churned := property.CatalogByName(property.DefaultParams(), churnName)
	for _, p := range []*property.Property{parseLeasedMAC(t), churned} {
		if err := set.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	col.Serve()
	defer col.Close()

	// Both exporters negotiate the property kind and record every
	// property set pushed to them.
	var pmu sync.Mutex
	pushed := map[uint64][][]wire.PropMeta{} // exporter index is irrelevant; key by epoch
	var exps [2]*exporter.Exporter
	for i, dpid := range []uint64{1, 2} {
		xcfg := exporter.Config{Addr: col.Addr().String(), DPID: dpid, BatchSizeMax: 1}
		xcfg.OnConfig[wire.ConfigProperties] = func(u *wire.Config) {
			pmu.Lock()
			pushed[u.Epoch] = append(pushed[u.Epoch], u.Props)
			pmu.Unlock()
		}
		x, err := exporter.New(xcfg)
		if err != nil {
			t.Fatal(err)
		}
		x.Start()
		exps[i] = x
	}
	rig := &fabricRig{n: n, sm: sm, col: col, exps: exps, rec: rec}
	n.Switch("edge").Observe(exps[0].Publish)
	n.Switch("core").Observe(exps[1].Publish)

	driveFabricTraffic(n, func() {
		rig.sync(t)
		// Mid-stream churn between the causal phases: remove the riding
		// property, reinstall it; each edit pushes the set.
		edits := set.Edits()
		if _, err := edits.Remove(churnName); err != nil {
			t.Fatal(err)
		}
		if _, err := edits.Install(dsl.Format(churned), ""); err != nil {
			t.Fatal(err)
		}
	})
	// Both pushes reached both exporters and were acked — checked while
	// the connections are still alive: acks written during shutdown race
	// the close. Acks are cumulative per connection (back-to-back pushes
	// coalesce into one ack for the latest epoch), so each exporter owes
	// at least one once it has applied the final epoch.
	epochAfterRemove, epochAfterReinstall := uint64(1), uint64(2)
	waitCond(t, "property-set convergence and acks", func() bool {
		return exps[0].Stats().Configs[wire.ConfigProperties].Epoch == epochAfterReinstall &&
			exps[1].Stats().Configs[wire.ConfigProperties].Epoch == epochAfterReinstall &&
			col.Stats().ConfigAcks[wire.ConfigProperties] >= 2
	})
	pmu.Lock()
	if got := len(pushed[epochAfterRemove]); got != 2 {
		t.Fatalf("remove-epoch push reached %d exporters, want 2 (pushed=%v)", got, pushed)
	}
	if got := len(pushed[epochAfterReinstall]); got != 2 {
		t.Fatalf("reinstall-epoch push reached %d exporters, want 2 (pushed=%v)", got, pushed)
	}
	if props := pushed[epochAfterRemove][0]; len(props) != 1 || props[0].Name != "leased-mac-reachable" {
		t.Fatalf("remove-epoch property set = %+v, want only the stable property", props)
	}
	if props := pushed[epochAfterReinstall][0]; len(props) != 2 {
		t.Fatalf("reinstall-epoch property set = %+v, want both properties", props)
	}
	pmu.Unlock()
	rig.settle(t)

	// The differential: stable verdicts byte-identical to inline.
	got := rec.sorted()
	if len(got) != len(want) {
		t.Fatalf("fabric found %d violations under churn, inline %d:\nfabric: %v\ninline: %v",
			len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d differs under lifecycle churn\nfabric: %s\ninline: %s", i, got[i], want[i])
		}
	}

	// Exactly the churned property is marked, and only as reinstalled.
	marks := sm.Ledger().Snapshot()
	if len(marks) != 1 || marks[0].Property != churnName || marks[0].Reason != core.UnsoundReinstalled {
		t.Fatalf("marks = %+v, want exactly %s/reinstalled", marks, churnName)
	}
	for i, x := range exps {
		if !x.Ledger().Sound() {
			t.Fatalf("exporter %d ledger unsound on a lossless run: %+v", i, x.Ledger().Snapshot())
		}
	}
}
