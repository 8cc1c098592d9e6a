package integration

import (
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/dsl"
	"switchmon/internal/exporter"
	"switchmon/internal/federation"
	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/trace"
	"switchmon/internal/wire"
)

// The federated-fleet differential gate: M=3 switches fan their event
// streams across N collectors by datapath id, connections are cut and
// replayed mid-run, one collector joins and one leaves mid-run behind
// replay-based drain fences — and the union of the fleet's verdicts and
// ledger marks must be byte-identical to one inline engine observing
// all three switches directly.
//
// The property is dpid-partitionable (its identity pins switch.id on
// every path), which is exactly the precondition the partition-key
// analysis (core.ValidateDPIDPartition) certifies for this deployment.
const localDropProperty = `
property "local-drop-after-forward" {
  description "a forwarded SYN's flow must not be dropped by the same switch within a second"

  on egress "fwd" {
    match tcp.syn == 1
    match dropped == 0
    bind $SW = switch.id
    bind $SRC = ip.src
  }

  on egress "dropped" within 1s {
    match switch.id == $SW
    match ip.src == $SRC
    match dropped == 1
  }
}
`

const (
	fedSwitches      = 3
	fedPhases        = 3
	fedFlowsPerPhase = 8 // odd flows are dropped in-window: 4 violations per switch per phase
)

// fedPhaseEvents builds one phase of deterministic per-switch traffic
// starting at base: every flow's SYN is forwarded; odd flows are then
// dropped by the same switch 200ms later (a violation), even flows
// never are (their instances expire silently).
func fedPhaseEvents(phase int, base time.Time) []core.Event {
	var out []core.Event
	for f := 1; f <= fedFlowsPerPhase; f++ {
		for sw := uint64(1); sw <= fedSwitches; sw++ {
			src := packet.MustIPv4(fmt.Sprintf("10.%d.%d.%d", phase, sw, f))
			pkt := packet.NewTCP(macA, macB, src, ipB, uint16(20000+f), 80, packet.FlagSYN, nil)
			at := base.Add(time.Duration(f) * 10 * time.Millisecond)
			out = append(out, core.Event{
				Kind: core.KindEgress, Time: at, SwitchID: sw,
				PacketID: core.PacketID(uint64(phase)<<16 | uint64(sw)<<8 | uint64(f)),
				Packet:   pkt, InPort: 1, OutPort: 2,
			})
			if f%2 == 1 {
				out = append(out, core.Event{
					Kind: core.KindEgress, Time: at.Add(200 * time.Millisecond), SwitchID: sw,
					PacketID: core.PacketID(uint64(phase)<<16 | uint64(sw)<<8 | uint64(f)),
					Packet:   pkt, InPort: 1, Dropped: true,
				})
			}
		}
	}
	// Switches emit time-ordered streams; the interleaved build above
	// places each flow's drop after later flows' forwards, so restore
	// global (and hence per-switch) time order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// runFedInline is the reference: one single-threaded monitor consuming
// all three switches' phases in global time order.
func runFedInline(t *testing.T) []string {
	t.Helper()
	sched := sim.NewScheduler()
	rec := &violationRecorder{}
	mon := core.NewMonitor(sched, core.Config{Provenance: core.ProvLimited, OnViolation: rec.record})
	p, err := dsl.Parse(localDropProperty)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateDPIDPartition([]*property.Property{p}); err != nil {
		t.Fatal(err)
	}
	if err := mon.AddProperty(p); err != nil {
		t.Fatal(err)
	}
	var events []core.Event
	for phase := 0; phase < fedPhases; phase++ {
		events = append(events, fedPhaseEvents(phase, sim.Epoch.Add(time.Duration(phase)*10*time.Second))...)
	}
	trace.Replay(sched, events, mon.HandleEvent)
	mon.Flush()
	sched.RunFor(time.Hour)
	return rec.sorted()
}

// cutConn injects transport faults: the connection fails after a fixed
// number of written bytes, forcing the exporter through its
// reconnect-and-replay path while collector-side dedup keeps delivery
// exactly-once.
type cutConn struct {
	net.Conn
	remaining int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.remaining <= 0 {
		c.Conn.Close()
		return 0, fmt.Errorf("injected connection cut")
	}
	n, err := c.Conn.Write(p)
	c.remaining -= n
	return n, err
}

func TestFederatedDifferential(t *testing.T) {
	want := runFedInline(t)
	wantViolations := fedPhases * fedSwitches * fedFlowsPerPhase / 2
	if len(want) != wantViolations {
		t.Fatalf("inline reference found %d violations, want %d:\n%v", len(want), wantViolations, want)
	}

	// The fleet: three collectors, each a full sharded engine; all
	// verdicts land in one shared recorder (the fleet's union).
	rec := &violationRecorder{}
	type member struct {
		sm  *core.ShardedMonitor
		col *collector.Collector
	}
	var cols [3]member
	for i := range cols {
		// Every member runs fully self-monitored (fast-cadence history
		// sampler + SLO engine); the differential below proves the
		// observation tier cannot perturb fleet verdicts.
		reg := obs.NewRegistry()
		attachSelfMonitor(t, reg)
		sm := core.NewShardedMonitor(2, core.Config{Provenance: core.ProvLimited, OnViolation: rec.record, Metrics: reg})
		p, err := dsl.Parse(localDropProperty)
		if err != nil {
			t.Fatal(err)
		}
		if err := sm.AddProperty(p); err != nil {
			t.Fatal(err)
		}
		col, err := collector.New(collector.Config{Addr: "127.0.0.1:0"}, sm)
		if err != nil {
			t.Fatal(err)
		}
		col.Serve()
		defer col.Close()
		defer sm.Close()
		cols[i] = member{sm: sm, col: col}
	}
	addr := func(i int) string { return cols[i].col.Addr().String() }

	// Three federated switches, initial fleet {A, B}; the third
	// federation's links suffer deterministic connection cuts every 512
	// bytes written — the fault injection the replay path must absorb.
	var cutDials uint64
	var feds [fedSwitches]*federation.Router
	for i := range feds {
		cfg := federation.Config{
			Members:      []federation.Member{{Addr: addr(0)}, {Addr: addr(1)}},
			DPID:         uint64(i + 1),
			DrainTimeout: 5 * time.Second,
			Exporter:     exporter.Config{BatchSizeMax: 4},
		}
		if i == 2 {
			cfg.Dial = func(a string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", a, time.Second)
				if err != nil {
					return nil, err
				}
				atomic.AddUint64(&cutDials, 1)
				return &cutConn{Conn: c, remaining: 512}, nil
			}
		}
		r, err := federation.NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		defer r.Close(time.Second)
		feds[i] = r
	}

	published := 0
	runPhase := func(phase int) {
		events := fedPhaseEvents(phase, sim.Epoch.Add(time.Duration(phase)*10*time.Second))
		for _, e := range events {
			feds[e.SwitchID-1].Publish(e)
		}
		published += len(events)
		for _, r := range feds {
			r.Flush()
		}
		// Quiescence barrier: every published event applied somewhere in
		// the fleet (dedup keeps replays exactly-once) before anything
		// else happens — membership changes at phase boundaries never
		// move in-flight evidence.
		waitCond(t, fmt.Sprintf("phase %d applied fleet-wide", phase), func() bool {
			var total uint64
			for _, m := range cols {
				total += m.col.Stats().Events
			}
			return total == uint64(published)
		})
	}

	reconfigure := func(epoch uint64, members ...int) {
		fc := &wire.Config{Kind: wire.ConfigFleet, Epoch: epoch}
		for _, i := range members {
			fc.Members = append(fc.Members, wire.FleetMember{Addr: addr(i)})
		}
		// The change rides the negotiated wire frames: one collector
		// broadcasts, every router hears it on a live route, re-routes
		// behind its drain fence, and acks.
		if err := cols[0].col.Broadcast(fc); err != nil {
			t.Fatal(err)
		}
		for i, r := range feds {
			waitCond(t, fmt.Sprintf("router %d at fleet epoch %d", i, epoch), func() bool {
				return r.Epoch() == epoch
			})
		}
	}

	runPhase(0)
	reconfigure(1, 0, 1, 2) // collector C joins mid-run
	runPhase(1)
	eventsAtLeave := cols[1].col.Stats().Events
	reconfigure(2, 0, 2) // collector B leaves mid-run
	runPhase(2)

	// The departed collector saw nothing after its drain-fenced exit.
	if got := cols[1].col.Stats().Events; got != eventsAtLeave {
		t.Fatalf("departed collector applied %d events after leaving", got-eventsAtLeave)
	}
	// The cut link really exercised reconnect+replay: without faults the
	// faulty router dials each of its three routes exactly once (removed
	// routes take their stats with them, so count dials at the source).
	if d := atomic.LoadUint64(&cutDials); d <= 3 {
		t.Fatalf("connection cuts injected but only %d dials happened; the fault path went unexercised", d)
	}

	// Settle: close routers (drains every route), then fire all
	// outstanding deadline monitors.
	for _, r := range feds {
		if abandoned := r.Close(5 * time.Second); abandoned != 0 {
			t.Fatalf("federation abandoned %d events at close", abandoned)
		}
	}
	for _, m := range cols {
		m.sm.Drain()
	}

	// The differential: fleet verdict union byte-identical to inline.
	got := rec.sorted()
	if len(got) != len(want) {
		t.Fatalf("fleet found %d violations, inline %d:\nfleet: %v\ninline: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d differs across the federated fleet\nfleet: %s\ninline: %s", i, got[i], want[i])
		}
	}
	// Ledger differential: the inline run is lossless and unmarked; so
	// must be every fleet engine and every route (cuts were replayed,
	// never lost).
	for i, m := range cols {
		if !m.sm.Ledger().Sound() {
			t.Fatalf("collector %d ledger unsound: %+v", i, m.sm.Ledger().Snapshot())
		}
	}
	for i, r := range feds {
		if marks := r.Ledger(); len(marks) != 0 {
			t.Fatalf("federation %d marked loss on a lossless run: %+v", i, marks)
		}
	}
}
