package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// The Engine contract suite. Lifecycle, loss marking and supervision are
// implemented once (propSet, Monitor.stepProps, Monitor.fireDeadline), so
// their tests are written once too and run over every engine a daemon can
// pick: the inline Monitor, a one-shard ShardedMonitor and a four-shard
// one. The cases live here, in lifecycle_test.go and in supervise_test.go;
// each calls forEachEngine.

// contractEngine is the Engine surface plus the methods the cases install
// live properties through and assert on, which both engines also share.
type contractEngine interface {
	Engine
	AddProperty(p *property.Property) error
	ActiveInstances() int
	Quarantined() uint64
	SelfCheck() error
}

// engineRow is one row of the engine table; shards == 0 is the inline
// Monitor.
type engineRow struct {
	name   string
	shards int
}

var engineTable = []engineRow{
	{"Monitor", 0},
	{"ShardedMonitor(1)", 1},
	{"ShardedMonitor(4)", 4},
}

func forEachEngine(t *testing.T, run func(t *testing.T, row engineRow)) {
	t.Helper()
	for _, row := range engineTable {
		row := row
		t.Run(row.name, func(t *testing.T) { run(t, row) })
	}
}

// rig is an engine from the table with a clock, a packet-id counter and a
// per-property violation count around it, driven only through Engine.
type rig struct {
	t   *testing.T
	eng contractEngine
	now time.Time
	pid PacketID

	mu    sync.Mutex
	viols map[string]int
}

// newRig builds row's engine with props installed. cfg.OnViolation, when
// set, runs after the rig has counted the violation.
func newRig(t *testing.T, row engineRow, cfg Config, props ...*property.Property) *rig {
	t.Helper()
	r := &rig{t: t, now: sim.Epoch, viols: map[string]int{}}
	user := cfg.OnViolation
	cfg.OnViolation = func(v *Violation) {
		r.mu.Lock()
		r.viols[v.Property]++
		r.mu.Unlock()
		if user != nil {
			user(v)
		}
	}
	if row.shards == 0 {
		r.eng = NewMonitor(sim.NewScheduler(), cfg)
	} else {
		sm := NewShardedMonitor(row.shards, cfg)
		t.Cleanup(sm.Close)
		r.eng = sm
	}
	if err := r.eng.Apply(0, props); err != nil {
		t.Fatalf("Apply(0, startup set): %v", err)
	}
	return r
}

// probe installs fn as the step probe of the inline Monitor, or of the
// given shard (clamped to the engine's shard count) of a sharded one.
func (r *rig) probe(shard int, fn func(prop int, seq uint64)) {
	r.t.Helper()
	switch eng := r.eng.(type) {
	case *Monitor:
		eng.SetStepProbe(fn)
	case *ShardedMonitor:
		if shard >= eng.Shards() {
			shard = eng.Shards() - 1
		}
		if err := eng.SetShardProbe(shard, fn); err != nil {
			r.t.Fatal(err)
		}
	}
}

// feed hands a prepared event to the engine, moving the rig's clock up
// to it.
func (r *rig) feed(e Event) {
	if e.Time.After(r.now) {
		r.now = e.Time
	}
	r.eng.Feed(e)
}

// forward models a packet traversing the switch at the rig's clock:
// arrival then unicast egress, or a drop when outPort is 0.
func (r *rig) forward(p *packet.Packet, inPort, outPort uint64) {
	r.pid++
	r.feed(Event{Kind: KindArrival, Time: r.now, PacketID: r.pid, Packet: p, InPort: inPort})
	r.feed(Event{Kind: KindEgress, Time: r.now, PacketID: r.pid, Packet: p, InPort: inPort,
		OutPort: outPort, Dropped: outPort == 0})
}

// advance moves the rig's clock and the engine's by d, settling the
// engine (d may be 0: settle only).
func (r *rig) advance(d time.Duration) {
	r.now = r.now.Add(d)
	r.eng.AdvanceTo(r.now)
}

// violations settles the engine and reports prop's violation count.
func (r *rig) violations(prop string) int {
	r.advance(0)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viols[prop]
}

// lifecycleSets are the install, the remove and the replace the
// differentials land mid-stream, as the sets Apply takes at epochs 1, 2
// and 3: firewall-basic joins props, props[1] leaves, and props[0] comes
// back under a tenant — another property, so a reinstall.
func lifecycleSets(t *testing.T, props []*property.Property) [3][]*property.Property {
	fb, moved := catalogProp(t, "firewall-basic"), *props[0]
	moved.Tenant = "t1"
	return [3][]*property.Property{
		append(slices.Clone(props), fb),
		append(append([]*property.Property{props[0]}, props[2:]...), fb),
		append(append([]*property.Property{&moved}, props[2:]...), fb),
	}
}

// removeLive removes the named property from the engine's running set at
// its epoch, as one apply: what a second admin goroutine can do without
// knowing the set.
func removeLive(ps *propSet, name string) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.apply(ps.epoch.Load(), slices.DeleteFunc(ps.installed(), func(p *property.Property) bool { return p.Name == name }))
}

// lifecycleView is everything a failed lifecycle operation must leave
// alone, rendered for comparison.
func (r *rig) lifecycleView() string {
	return fmt.Sprintf("props=%v epoch=%d active=%d marks=%+v installs=%+v",
		r.eng.Properties(), r.eng.Epoch(), r.eng.ActiveInstances(),
		r.eng.Ledger().Snapshot(), r.eng.Ledger().InstallSnapshot())
}

// An Apply whose new definition of a running property does not compile —
// it fails Validate, or it is outside the row geometry — must leave the
// installed property monitoring: the compile runs before the remove.
func TestFailedReplaceLeavesSetUntouched(t *testing.T) {
	noStages := *catalogProp(t, "firewall-basic")
	noStages.Stages = nil
	bad := map[string]*property.Property{"fails-validate": &noStages, "too-wide": tooWide("firewall-basic")}

	forEachEngine(t, func(t *testing.T, row engineRow) {
		r := newRig(t, row, Config{}, catalogProp(t, "firewall-basic"))
		r.forward(tcpAB(packet.FlagSYN), 1, 2) // live, one open obligation
		before := r.lifecycleView()
		for name, p := range bad {
			if err := r.eng.Apply(1, []*property.Property{p}); err == nil {
				t.Fatalf("%s: Apply accepted an uncompilable definition", name)
			}
			if after := r.lifecycleView(); after != before {
				t.Fatalf("%s: failed replace changed the engine:\n before %s\n after  %s", name, before, after)
			}
		}
		// Still monitoring: the open flow's wrongful drop is a verdict.
		r.forward(tcpBA(packet.FlagACK), 2, 0)
		if got := r.violations("firewall-basic"); got != 1 {
			t.Fatalf("violations after failed replaces = %d, want 1", got)
		}
	})
}

// A live Apply that changes a running property's tenant is remove +
// install in one step: the Apply's one epoch and a reinstalled mark, on
// every engine alike.
func TestChangedPropertyTakesTheEpochAndMarksReinstalled(t *testing.T) {
	forEachEngine(t, func(t *testing.T, row engineRow) {
		r := newRig(t, row, Config{}, catalogProp(t, "firewall-basic"))
		r.forward(tcpAB(packet.FlagSYN), 1, 2)
		changed := catalogProp(t, "firewall-basic")
		changed.Tenant = "t1"
		if err := r.eng.Apply(7, []*property.Property{changed}); err != nil {
			t.Fatal(err)
		}
		if got := r.eng.Epoch(); got != 7 {
			t.Fatalf("epoch after live replace = %d, want 7", got)
		}
		if recs := r.eng.Ledger().InstallSnapshot(); len(recs) != 1 || recs[0].Epoch != 7 || recs[0].Tenant != "t1" {
			t.Fatalf("install records = %+v, want one at epoch 7 for tenant t1", recs)
		}
		marks := r.eng.Ledger().Snapshot()
		if len(marks) != 1 || marks[0].Reason != UnsoundReinstalled {
			t.Fatalf("marks = %+v, want one reinstalled mark", marks)
		}
		if got := r.eng.ActiveInstances(); got != 0 {
			t.Fatalf("ActiveInstances after replace = %d, want 0 (old instances purged)", got)
		}
	})
}

// An inline Monitor takes more properties than a routing or quarantine
// mask has bits. Slots past the mask are stepped unconditionally — the
// 70th property still detects — and a panic there, which no mask bit
// could quarantine, is re-raised rather than swallowed.
func TestInlineMonitorBeyondSixtyFourProperties(t *testing.T) {
	const n = 70
	counts := map[string]int{}
	mon := NewMonitor(sim.NewScheduler(), Config{OnViolation: func(v *Violation) { counts[v.Property]++ }})
	for i := 0; i < n; i++ {
		p := *catalogProp(t, "firewall-basic")
		p.Name = fmt.Sprintf("fw-%02d", i)
		if err := mon.AddProperty(&p); err != nil {
			t.Fatal(err)
		}
	}
	last := fmt.Sprintf("fw-%02d", n-1)
	feed := func(p *packet.Packet, pid PacketID, in, out uint64) {
		mon.Feed(Event{Kind: KindArrival, Time: sim.Epoch, PacketID: pid, Packet: p, InPort: in})
		mon.Feed(Event{Kind: KindEgress, Time: sim.Epoch, PacketID: pid, Packet: p, InPort: in, OutPort: out, Dropped: out == 0})
	}
	feed(tcpAB(packet.FlagSYN), 1, 1, 2)
	feed(tcpBA(packet.FlagACK), 2, 2, 0)
	if len(counts) != n || counts[last] != 1 {
		t.Fatalf("property %s (slot %d) found %d violations, %d properties reported; want 1 and %d",
			last, n-1, counts[last], len(counts), n)
	}

	mon.SetStepProbe(func(prop int, seq uint64) {
		if prop == n-1 {
			panic("injected panic past the mask")
		}
	})
	defer func() {
		cause := recover()
		if cause == nil || !strings.Contains(fmt.Sprint(cause), "past the mask") {
			t.Fatalf("panic in slot %d was not re-raised (recovered %v)", n-1, cause)
		}
		if mon.Quarantined() != 0 || !mon.Ledger().Sound() {
			t.Fatalf("unquarantinable panic left marks: mask=%b ledger=%+v", mon.Quarantined(), mon.Ledger().Snapshot())
		}
	}()
	feed(tcpAB(packet.FlagSYN), 3, 1, 2)
}

// Engine promises that every method is safe from an admin goroutine while
// another goroutine feeds. One goroutine feeds; this one loops over the
// admin surface — the reads, a loss mark, and a live install and remove,
// each an Apply at the next epoch. The
// assertion is the race detector's (check.sh runs this package under
// -race); before ShardedMonitor.Stats took its snapshot inside the
// router's critical section it reported Stats racing Feed here.
func TestAdminSurfaceConcurrentWithFeed(t *testing.T) {
	evs := superviseStream(60, 2)
	forEachEngine(t, func(t *testing.T, row engineRow) {
		r := newRig(t, row, Config{StateTopK: 4}, catalogProp(t, "firewall-basic"))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for round := 0; round < 20; round++ {
				for i := range evs {
					e := evs[i]
					e.Time = e.Time.Add(time.Duration(round) * time.Second)
					r.eng.Feed(e)
				}
			}
		}()
		base, extra := catalogProp(t, "firewall-basic"), catalogProp(t, "firewall-until-close")
		for epoch := uint64(0); ; {
			select {
			case <-done:
				if st := r.eng.Stats(); st.Events == 0 || st.LifecycleEpoch != epoch || r.eng.Epoch() != epoch {
					t.Fatalf("final stats %+v, epoch %d, want %d", st, r.eng.Epoch(), epoch)
				}
				if err := r.eng.SelfCheck(); err != nil {
					t.Fatal(err)
				}
				return
			default:
			}
			_ = r.eng.Stats()
			_ = r.eng.Properties()
			_ = r.eng.Epoch()
			_ = r.eng.StateReport()
			_ = r.eng.Ledger().Snapshot()
			r.eng.MarkFeedLoss(sim.Epoch, 1, "concurrent admin loss")
			for _, set := range [][]*property.Property{{base, extra}, {base}} {
				epoch++
				if err := r.eng.Apply(epoch, set); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
