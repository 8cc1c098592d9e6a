package integration

import (
	"sync"
	"testing"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
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
// is pushed to the property-kind exporters' handlers. The stable
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
	churnName := "firewall-basic"
	churned := property.CatalogByName(property.DefaultParams(), churnName)
	set, err := federation.NewPropertySet(sm, []*property.Property{parseLeasedMAC(t), churned}, col.Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	col.Serve()
	defer col.Close()

	// Both exporters negotiate the property kind and record, per epoch,
	// the property set pushed to them.
	var pmu sync.Mutex
	var pushed [2]map[uint64][]wire.PropMeta
	var exps [2]*exporter.Exporter
	for i, dpid := range []uint64{1, 2} {
		pushed[i] = map[uint64][]wire.PropMeta{}
		xcfg := exporter.Config{Addr: col.Addr().String(), DPID: dpid, BatchSizeMax: 1}
		xcfg.OnConfig[wire.ConfigProperties] = func(u *wire.Config) {
			pmu.Lock()
			pushed[i][u.Epoch] = u.Props
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
		if _, err := edits.Install(property.Format(churned), ""); err != nil {
			t.Fatal(err)
		}
	})
	// Both pushes reached both exporters' handlers. A push arrives in
	// order on one connection, so the reinstall epoch's arrival means the
	// remove epoch's was handled before it.
	epochAfterRemove, epochAfterReinstall := uint64(1), uint64(2)
	waitCond(t, "property-set convergence", func() bool {
		pmu.Lock()
		defer pmu.Unlock()
		_, ok0 := pushed[0][epochAfterReinstall]
		_, ok1 := pushed[1][epochAfterReinstall]
		return ok0 && ok1
	})
	pmu.Lock()
	for i := range pushed {
		if props, ok := pushed[i][epochAfterRemove]; !ok || len(props) != 1 || props[0].Name != "leased-mac-reachable" {
			t.Fatalf("exporter %d: remove-epoch property set = %+v (pushed %t), want only the stable property", i, props, ok)
		}
		if props := pushed[i][epochAfterReinstall]; len(props) != 2 {
			t.Fatalf("exporter %d: reinstall-epoch property set = %+v, want both properties", i, props)
		}
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
