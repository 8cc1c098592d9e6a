package daemon

import (
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/obs/export"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// The history ring samples the daemon's registry on its own tick, so
// the Go runtime series must read the runtime themselves: a ring ticked
// with no /metrics request ever served still records live goroutines.
func TestHistorySeesRuntimeWithoutScrape(t *testing.T) {
	f := parse(t)
	reg := obs.NewRegistry()
	srv, err := f.NewServer("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	export.NewMux(export.MuxConfig{Registry: reg, History: srv.History})
	srv.History.Tick()
	res, err := srv.History.Query("switchmon_go_goroutines", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) == 0 {
		t.Fatalf("no switchmon_go_goroutines sample: %+v", res)
	}
	if p := res.Series[0].Points; p[len(p)-1].V <= 0 {
		t.Fatalf("switchmon_go_goroutines sampled %v with no /metrics request, want > 0", p[len(p)-1].V)
	}
}

// Scrapes meet a running engine where the daemon wires them together:
// /metrics (registry snapshot plus the runtime pull) and the history
// ring's tick loop while a two-shard engine is fed and its set changes
// under it — a property removed and installed again, so read-through
// series are retired and registered while being read. Run under -race.
func TestScrapesRaceEngineAndApply(t *testing.T) {
	f := parse(t, "-metrics-addr", "127.0.0.1:0", "-state-watermark", "4", "-state-topk", "4")
	cfg, err := f.EngineConfig(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pm := property.Params{FirewallWindow: 50 * time.Millisecond, ReplyWindow: time.Second}
	var props []*property.Property
	for _, name := range []string{"firewall-timeout", "portscan-detect"} {
		props = append(props, property.CatalogByName(pm, name))
	}
	eng := core.NewShardedMonitor(2, cfg)
	defer eng.Close()
	if err := eng.Apply(0, props); err != nil {
		t.Fatal(err)
	}
	srv, err := f.NewServer("127.0.0.1:0", cfg.Metrics, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mc := MuxConfig(cfg, eng)
	mc.History = srv.History
	mux := export.NewMux(mc)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	loop(func() { mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil)) })
	loop(srv.History.Tick)

	macA, macB := packet.MAC{0x02, 0, 0, 0, 0, 1}, packet.MAC{0x02, 0, 0, 0, 0, 2}
	now := sim.Epoch
	for i := 0; i < 3000; i++ {
		now = now.Add(time.Millisecond)
		src := packet.IPv4FromUint32(0x0a000000 + uint32(i%64))
		dst := packet.IPv4FromUint32(0xcb007100 + uint32(i%8))
		p := packet.NewTCP(macA, macB, src, dst, uint16(1000+i%50), uint16(i%700), packet.FlagSYN, nil)
		if err := eng.Submit(core.Event{Kind: core.KindArrival, Time: now, PacketID: core.PacketID(i + 1), Packet: p, InPort: 1}); err != nil {
			t.Fatal(err)
		}
		switch i % 500 {
		case 200:
			err = eng.Apply(eng.Epoch()+1, props[1:])
		case 400:
			err = eng.Apply(eng.Epoch()+1, props)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			eng.AdvanceTo(now)
		}
	}
	eng.Barrier()
	close(stop)
	wg.Wait()
	snap := cfg.Metrics.Snapshot()
	if n := snap.CounterValue("switchmon_property_matches_total", obs.L("property", "firewall-timeout")); n == 0 {
		t.Fatal("the engine matched nothing")
	}
}
