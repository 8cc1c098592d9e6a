package main

import (
	"sync"
	"testing"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/federation"
	"switchmon/internal/obs/export"
	"switchmon/internal/property"
	"switchmon/internal/wire"
)

// liveSet is the collector's set as run wires it, with the
// /properties install and remove it serves without -aggregate.
type liveSet struct {
	col   *collector.Collector
	edits *export.PropertiesConfig
}

func (ps *liveSet) installSource(src, tenant string) error {
	_, err := ps.edits.Install(src, tenant)
	return err
}

func (ps *liveSet) remove(name string) error {
	_, err := ps.edits.Remove(name)
	return err
}

// newLiveSet starts a collector over an engine that never sees an event
// and pushes the empty startup set, as run does with no -catalog and only
// -metrics-addr.
func newLiveSet(t *testing.T) *liveSet {
	t.Helper()
	sm := core.NewShardedMonitor(1, core.Config{})
	t.Cleanup(sm.Close)
	col, err := collector.New(collector.Config{Addr: "127.0.0.1:0"}, sm)
	if err != nil {
		t.Fatal(err)
	}
	col.Serve()
	t.Cleanup(col.Close)
	set, err := federation.NewPropertySet(sm, nil, col.Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Publish(); err != nil {
		t.Fatal(err)
	}
	return &liveSet{col: col, edits: set.Edits()}
}

// setRecorder is a property-kind exporter recording the sets it applies.
type setRecorder struct {
	mu   sync.Mutex
	sets []*wire.Config
}

func connect(t *testing.T, ps *liveSet, dpid uint64) *setRecorder {
	t.Helper()
	r := &setRecorder{}
	xcfg := exporter.Config{Addr: ps.col.Addr().String(), DPID: dpid}
	xcfg.OnConfig[wire.ConfigProperties] = func(u *wire.Config) {
		r.mu.Lock()
		r.sets = append(r.sets, u)
		r.mu.Unlock()
	}
	x, err := exporter.New(xcfg)
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	t.Cleanup(func() { x.Close(0) })
	return r
}

// await waits until the exporter has applied the collector's retained set
// and returns the names in it.
func (r *setRecorder) await(t *testing.T, ps *liveSet) []string {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	var last *wire.Config
	for {
		want := ps.col.Stats().Configs[wire.ConfigProperties]
		r.mu.Lock()
		n := len(r.sets)
		if n > 0 {
			last = r.sets[n-1]
		}
		r.mu.Unlock()
		if last != nil && last.Epoch == want.Epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("exporter applied %d sets, the last %+v; collector retains epoch %d", n, last, want.Epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
	names := make([]string, len(last.Props))
	for i, pm := range last.Props {
		names[i] = pm.Name
	}
	if len(names) > 0 && last.Source == "" {
		t.Fatalf("set %v pushed without its DSL source", names)
	}
	return names
}

func catalogSource(t *testing.T, name string) string {
	t.Helper()
	p := property.CatalogByName(property.DefaultParams(), name)
	if p == nil {
		t.Fatalf("no catalog property %q", name)
	}
	return property.FormatAll([]*property.Property{p})
}

// A property installed before any traffic must reach an exporter that
// connects afterwards, and a removal must reach it live: each edit moves
// the document's epoch, which the engine and the pushed set both carry,
// traffic or not, so no set repeats the startup push's epoch and is
// dropped as stale.
func TestPropertySetBeforeTrafficReachesExporters(t *testing.T) {
	ps := newLiveSet(t)
	if err := ps.installSource(catalogSource(t, "firewall-basic"), "t1"); err != nil {
		t.Fatal(err)
	}
	r := connect(t, ps, 1)
	if got := r.await(t, ps); len(got) != 1 || got[0] != "firewall-basic" {
		t.Fatalf("late exporter applied set %v, want [firewall-basic]", got)
	}
	if err := ps.remove("firewall-basic"); err != nil {
		t.Fatal(err)
	}
	if got := r.await(t, ps); len(got) != 0 {
		t.Fatalf("after remove the exporter applied set %v, want it empty", got)
	}
}

// Concurrent installs each push a set; whatever order they are built and
// arrive in, the collector must retain one holding every property.
func TestConcurrentInstallsRetainCompleteSet(t *testing.T) {
	ps := newLiveSet(t)
	names := []string{"firewall-basic", "firewall-until-close", "arp-proxy-reply",
		"arp-known-not-forwarded", "knock-intervening", "knock-valid-sequence"}
	var wg sync.WaitGroup
	for _, name := range names {
		src := catalogSource(t, name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ps.installSource(src, ""); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := connect(t, ps, 1).await(t, ps); len(got) != len(names) {
		t.Fatalf("late exporter applied set %v, want all of %v", got, names)
	}
}
