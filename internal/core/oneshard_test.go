package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// inlineSegment is one unit of the ordered differential's stream: an
// optional lifecycle operation, then a batch of events, then a clock
// advance to the latest event time the batch carried.
type inlineSegment struct {
	op   func(Engine) error
	evs  []Event
	tick time.Time
}

// inlineStream builds driveDifferential's stream — the same random TCP,
// UDP and ARP traffic over a small address pool, arrival and egress of a
// packet sharing one instant — cut into batches of uneven length, with a
// second switch whose events lag the first's clock, and an install, a
// remove and a replace landing between batches. It carries at least 10^4
// events.
func inlineStream(t *testing.T, seed int64, props []*property.Property) []inlineSegment {
	const iterations = 5200
	rng := sim.NewRand(seed)
	macs := []packet.MAC{macA, macB, packet.MustMAC("02:00:00:00:00:0c")}
	ips := []packet.IPv4{ipA, ipB, ipC, packet.MustIPv4("203.0.113.7")}
	ports := []uint16{80, 7001, 7002, 7003, 22, 40000}
	now := sim.Epoch
	var pid PacketID
	var segs []inlineSegment
	seg := inlineSegment{}
	sets := lifecycleSets(t, props)
	left := 1 + rng.Intn(40)
	for i := 0; i < iterations; i++ {
		now = now.Add(time.Duration(rng.Intn(500)) * time.Millisecond)
		var p *packet.Packet
		switch rng.Intn(3) {
		case 0:
			p = packet.NewTCP(sim.Choice(rng, macs), sim.Choice(rng, macs),
				sim.Choice(rng, ips), sim.Choice(rng, ips),
				sim.Choice(rng, ports), sim.Choice(rng, ports),
				packet.TCPFlags(rng.Intn(64)), nil)
		case 1:
			p = packet.NewUDP(sim.Choice(rng, macs), sim.Choice(rng, macs),
				sim.Choice(rng, ips), sim.Choice(rng, ips),
				sim.Choice(rng, ports), sim.Choice(rng, ports), nil)
		case 2:
			if rng.Intn(2) == 0 {
				p = packet.NewARPRequest(sim.Choice(rng, macs), sim.Choice(rng, ips), sim.Choice(rng, ips))
			} else {
				p = packet.NewARPReply(sim.Choice(rng, macs), sim.Choice(rng, ips),
					sim.Choice(rng, macs), sim.Choice(rng, ips))
			}
		}
		pid++
		at, sw := now, uint64(1)
		if rng.Intn(7) == 0 {
			// The second switch runs behind: its events regress in time.
			at, sw = now.Add(-time.Duration(rng.Intn(2000))*time.Millisecond), 2
		}
		inPort := uint64(rng.Intn(4) + 1)
		eg := Event{Kind: KindEgress, Time: at, PacketID: pid, Packet: p, InPort: inPort, SwitchID: sw}
		if rng.Intn(3) == 0 {
			eg.Dropped = true
		} else {
			eg.OutPort = uint64(rng.Intn(4) + 1)
		}
		seg.evs = append(seg.evs,
			Event{Kind: KindArrival, Time: at, PacketID: pid, Packet: p, InPort: inPort, SwitchID: sw}, eg)
		seg.tick = now
		if left--; left > 0 && i != iterations-1 {
			continue
		}
		segs = append(segs, seg)
		seg, left = inlineSegment{}, 1+rng.Intn(40)
		if i := len(segs)/40 - 1; len(segs)%40 == 0 && i < len(sets) {
			seg.op = func(eng Engine) error { return eng.Apply(uint64(i+1), sets[i]) }
		}
	}
	if len(segs) <= 120 {
		t.Fatalf("stream has %d batches; the lifecycle operations need more than 120", len(segs))
	}
	return segs
}

// inlineView is everything the differential compares: the violation
// reports in callback order, and the engine's accounting once settled.
type inlineView struct {
	viols    []string
	stats    Stats
	epoch    uint64
	props    []string
	marks    string
	counters map[string]uint64
}

func viewOf(eng Engine, reg *obs.Registry, viols []string) inlineView {
	v := inlineView{viols: viols, stats: eng.Stats(), epoch: eng.Epoch(), props: eng.Properties(),
		marks:    fmt.Sprintf("%+v %+v", eng.Ledger().Snapshot(), eng.Ledger().InstallSnapshot()),
		counters: map[string]uint64{}}
	snap := reg.Snapshot()
	for _, p := range v.props {
		// Examined-events too: one shard examines what an inline engine does.
		for _, name := range append([]string{"switchmon_property_events_total"}, propCounterNames...) {
			v.counters[name+"/"+p] = snap.CounterValue(name, obs.L("property", p))
		}
	}
	return v
}

// One shard is the inline path. Over one stream — lifecycle operations
// mid-stream, a lagging second switch, batches of equal-time events — a
// one-shard ShardedMonitor driven by Feed, by copying SubmitBatch and by
// borrowing SubmitBatch reports the inline Monitor's violations in the
// inline Monitor's order, and agrees with it on Stats, Epoch, Properties,
// the ledger and every per-property counter. It does so on the feeding
// goroutine: release has run when a borrowing SubmitBatch returns (the
// test then scribbles over the slab), no goroutine exists after 10^4
// events that did not before, and Close returns with nothing to wait
// for. The hammered runs repeat each drive with a second goroutine on
// the admin surface, for the race detector (check.sh's -race scope).
func TestOneShardIsInline(t *testing.T) {
	props := []*property.Property{
		catalogProp(t, "firewall-until-close"),
		catalogProp(t, "lswitch-unicast"),
		catalogProp(t, "arp-proxy-reply"),
		catalogProp(t, "knock-intervening"),
	}
	extra := catalogProp(t, "firewall-timeout")
	record := func(sink *[]string) func(*Violation) {
		return func(v *Violation) {
			if v.Property != extra.Name {
				*sink = append(*sink, v.String())
			}
		}
	}
	releases, calls := 0, 0
	var slab []Event
	drivers := []struct {
		name  string
		drive func(sm *ShardedMonitor, seg *inlineSegment)
	}{
		{"Feed", func(sm *ShardedMonitor, seg *inlineSegment) {
			for _, e := range seg.evs {
				sm.Feed(e)
			}
			sm.AdvanceTo(seg.tick)
		}},
		{"SubmitBatch", func(sm *ShardedMonitor, seg *inlineSegment) {
			if err := sm.SubmitBatch(seg.evs, nil); err != nil {
				t.Fatal(err)
			}
			sm.Tick(seg.tick)
		}},
		{"SubmitBatchBorrowed", func(sm *ShardedMonitor, seg *inlineSegment) {
			slab = append(slab[:0], seg.evs...)
			calls++
			if err := sm.SubmitBatch(slab, func() { releases++ }); err != nil {
				t.Fatal(err)
			}
			if releases != calls {
				t.Fatalf("release ran %d times after %d borrowing SubmitBatch calls", releases, calls)
			}
			clear(slab) // the borrow is over: the engine must hold no reference
			sm.Tick(seg.tick)
		}},
	}

	for seed := int64(1); seed <= 2; seed++ {
		segs := inlineStream(t, seed, props)
		end := segs[len(segs)-1].tick.Add(time.Minute)
		events := 0

		var inlineViols []string
		regI := obs.NewRegistry()
		mi := NewMonitor(sim.NewScheduler(), Config{Provenance: ProvFull, Metrics: regI, OnViolation: record(&inlineViols)})
		for _, p := range props {
			if err := mi.AddProperty(p); err != nil {
				t.Fatal(err)
			}
		}
		for i := range segs {
			if op := segs[i].op; op != nil {
				if err := op(mi); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range segs[i].evs {
				mi.Feed(e)
			}
			mi.AdvanceTo(segs[i].tick)
			events += len(segs[i].evs)
		}
		mi.AdvanceTo(end)
		want := viewOf(mi, regI, inlineViols)
		if events < 10000 || len(want.viols) == 0 || want.epoch == 0 {
			t.Fatalf("seed %d: weak stream: %d events, %d violations, epoch %d", seed, events, len(want.viols), want.epoch)
		}

		for _, d := range drivers {
			for _, hammered := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/%s/hammered=%v", seed, d.name, hammered)
				goroutines := runtime.NumGoroutine()
				var viols []string
				reg := obs.NewRegistry()
				sm := NewShardedMonitor(1, Config{Provenance: ProvFull, Metrics: reg, OnViolation: record(&viols)})
				for _, p := range props {
					if err := sm.AddProperty(p); err != nil {
						t.Fatal(err)
					}
				}
				stop, stopped := make(chan struct{}), make(chan struct{})
				if hammered {
					go func() {
						defer close(stopped)
						for {
							select {
							case <-stop:
								return
							default:
							}
							_ = sm.Stats()
							_ = sm.Properties()
							if err := sm.AddProperty(extra); err != nil {
								t.Errorf("%s: %v", name, err)
								return
							}
							if err := removeLive(&sm.propSet, extra.Name); err != nil {
								t.Errorf("%s: %v", name, err)
								return
							}
						}
					}()
				} else {
					close(stopped)
				}
				for i := range segs {
					if op := segs[i].op; op != nil {
						if err := op(sm); err != nil {
							t.Fatal(err)
						}
					}
					d.drive(sm, &segs[i])
				}
				close(stop)
				<-stopped
				sm.AdvanceTo(end)
				if err := sm.SelfCheck(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if hammered {
					// The admin goroutine's installs move slots and epochs
					// about; the verdicts on the stream's own properties, in
					// order per property, are what must not move.
					if a, b := byProperty(want.viols), byProperty(viols); !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: per-property violation sequences diverge from the inline Monitor's", name)
					}
					sm.Close()
					continue
				}
				got := viewOf(sm, reg, viols)
				for i := range want.viols {
					if i >= len(got.viols) || got.viols[i] != want.viols[i] {
						t.Fatalf("%s: violation %d of %d (inline has %d) is not the inline Monitor's:\n%s",
							name, i, len(got.viols), len(want.viols), want.viols[i])
					}
				}
				if len(got.viols) != len(want.viols) {
					t.Fatalf("%s: %d violations, inline %d", name, len(got.viols), len(want.viols))
				}
				for k, v := range want.counters {
					if got.counters[k] != v {
						t.Errorf("%s: %s = %d, inline %d", name, k, got.counters[k], v)
					}
				}
				got.viols, got.counters = want.viols, want.counters
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: diverges from the inline Monitor:\ninline:  %+v\nsharded: %+v", name, want, got)
				}
				if n := runtime.NumGoroutine(); n > goroutines {
					t.Fatalf("%s: %d goroutines after %d events, %d before the engine existed", name, n, events, goroutines)
				}
				sm.Close()
				if err := sm.Submit(segs[0].evs[0]); !errors.Is(err, ErrClosed) {
					t.Fatalf("%s: Submit after Close = %v, want ErrClosed", name, err)
				}
			}
		}
	}
}

// byProperty splits rendered violations ("VIOLATION <property> at …") into
// one ordered sequence per property.
func byProperty(viols []string) map[string][]string {
	out := map[string][]string{}
	for _, v := range viols {
		var prop string
		fmt.Sscanf(v, "VIOLATION %s", &prop)
		out[prop] = append(out[prop], v)
	}
	return out
}
