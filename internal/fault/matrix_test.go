package fault

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/federation"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/trace"
	"switchmon/internal/wire"
)

// TestFaultMatrix is the CI chaos gate: for each (mode, seed) cell it
// runs a full monitored workload under that fault and asserts the
// graceful-degradation contract — no crash, a truthful ledger, and
// (for feed faults) a deterministic outcome. The ci.yml fault-matrix
// job pins one cell per runner via FAULT_MATRIX_MODE and
// FAULT_MATRIX_SEED; with the variables unset (a local `go test`) every
// cell runs in-process.
func TestFaultMatrix(t *testing.T) {
	modes := []string{"panic-shard", "drop", "wire-drop", "wire-delay", "lifecycle-churn", "collector-leave", "member-down"}
	seeds := []int64{1, 2, 3}
	if m := os.Getenv("FAULT_MATRIX_MODE"); m != "" {
		modes = []string{m}
	}
	if s := os.Getenv("FAULT_MATRIX_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("FAULT_MATRIX_SEED=%q: %v", s, err)
		}
		seeds = []int64{n}
	}
	for _, mode := range modes {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				switch mode {
				case "panic-shard":
					matrixPanicShard(t, seed)
				case "drop":
					matrixDrop(t, seed)
				case "wire-drop":
					matrixWireDrop(t, seed)
				case "wire-delay":
					matrixWireDelay(t, seed)
				case "lifecycle-churn":
					matrixLifecycleChurn(t, seed)
				case "collector-leave":
					matrixCollectorLeave(t, seed)
				case "member-down":
					matrixMemberDown(t, seed)
				default:
					t.Fatalf("unknown FAULT_MATRIX_MODE %q", mode)
				}
			})
		}
	}
}

// matrixPanicShard injects a panic into one shard (the shard index and
// fault point vary with the seed) and checks that the engine survives,
// quarantines exactly one property, and still detects violations for
// the surviving properties. Supervision is the Monitor's, not the
// router's, so the cell then gives an inline Monitor the same stream and
// the same fault — a panic in the same property at the same event count —
// and requires the same outcome: one quarantine under the same ledger
// reason, and the surviving property's verdicts equal on both engines.
func matrixPanicShard(t *testing.T, seed int64) {
	shards := 4
	spec, err := ParseSpec(fmt.Sprintf("panic-shard=%d@%d,seed=%d", seed%int64(shards), 10+seed*7, seed))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	shardedCounts, inlineCounts := map[string]int{}, map[string]int{}
	count := func(into map[string]int) func(*core.Violation) {
		return func(v *core.Violation) {
			mu.Lock()
			into[v.Property]++
			mu.Unlock()
		}
	}
	sm := core.NewShardedMonitor(shards, core.Config{OnViolation: count(shardedCounts)})
	defer sm.Close()
	mon := core.NewMonitor(sim.NewScheduler(), core.Config{OnViolation: count(inlineCounts)})
	props := []string{"firewall-basic", "firewall-until-close"}
	for _, name := range props {
		for _, eng := range []core.Engine{sm, mon} {
			if err := eng.AddProperty(property.CatalogByName(property.DefaultParams(), name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ArmShardFaults(sm, spec); err != nil {
		t.Fatal(err)
	}
	evs := trace.FirewallWorkload{
		Flows: 400, ReturnsPerFlow: 3, ViolationEvery: 10, Gap: time.Millisecond,
	}.Events(sim.Epoch)
	end := evs[len(evs)-1].Time.Add(time.Hour)
	if err := sm.SubmitBatch(evs, nil); err != nil {
		t.Fatal(err)
	}
	sm.AdvanceTo(end)
	st := sm.Stats()
	if st.QuarantinedProperties != 1 {
		t.Fatalf("QuarantinedProperties=%d want 1 (marks: %+v)", st.QuarantinedProperties, sm.Ledger().Snapshot())
	}
	if st.Violations == 0 {
		t.Fatal("surviving properties detected nothing after the quarantine")
	}
	if sm.Ledger().Sound() {
		t.Fatal("ledger claims soundness after a quarantine")
	}
	if err := sm.SelfCheck(); err != nil {
		t.Fatalf("post-quarantine invariants: %v", err)
	}

	shardedMarks := sm.Ledger().Snapshot()
	victim := shardedMarks[0].Property
	fired := false
	mon.SetStepProbe(func(prop int, seq uint64) {
		if !fired && props[prop] == victim && seq >= spec.PanicAt {
			fired = true
			panic(fmt.Sprintf("fault: injected panic at inline event %d", seq))
		}
	})
	for i := range evs {
		mon.Feed(evs[i])
	}
	mon.AdvanceTo(end)
	if got := mon.Stats().QuarantinedProperties; got != 1 {
		t.Fatalf("inline QuarantinedProperties=%d want 1 (marks: %+v)", got, mon.Ledger().Snapshot())
	}
	inlineMarks := mon.Ledger().Snapshot()
	if len(shardedMarks) != 1 || len(inlineMarks) != 1 ||
		inlineMarks[0].Property != victim || inlineMarks[0].Reason != shardedMarks[0].Reason {
		t.Fatalf("ledgers disagree: sharded %+v, inline %+v", shardedMarks, inlineMarks)
	}
	if err := mon.SelfCheck(); err != nil {
		t.Fatalf("inline post-quarantine invariants: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, name := range props {
		if name == victim {
			continue
		}
		if shardedCounts[name] == 0 || shardedCounts[name] != inlineCounts[name] {
			t.Fatalf("surviving %s: sharded found %d violations, inline %d; want equal and non-zero",
				name, shardedCounts[name], inlineCounts[name])
		}
	}
}

// matrixDrop injects 5% event loss and checks the determinism contract
// (two identical runs, byte-identical observable output) plus a
// truthful injected-loss ledger.
func matrixDrop(t *testing.T, seed int64) {
	spec, err := ParseSpec(fmt.Sprintf("drop=0.05,seed=%d", seed))
	if err != nil {
		t.Fatal(err)
	}
	a := violationLedger(t, spec, "firewall-basic")
	b := violationLedger(t, spec, "firewall-basic")
	if !bytes.Equal(a, b) {
		t.Fatalf("drop=0.05 seed=%d: two runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, a, b)
	}
	if !bytes.Contains(a, []byte("injected-loss")) {
		t.Fatalf("ledger did not record the injected loss:\n%s", a)
	}
}

// matrixWireDrop runs the same workload through the full distributed
// fabric (exporter → TCP → collector → sharded engine) with the fault
// on the exporter link: every drop is reported via NoteLoss, becomes a
// sequence gap, and must be accounted exactly — collector gap events
// equal to injected drops — while the verdict set stays deterministic.
func matrixWireDrop(t *testing.T, seed int64) {
	spec, err := ParseSpec(fmt.Sprintf("drop=0.05,seed=%d", seed))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := wireOutcome(t, spec, false)
	b, _ := wireOutcome(t, spec, false)
	if !bytes.Equal(a, b) {
		t.Fatalf("wire drop=0.05 seed=%d: two runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, a, b)
	}
	if !bytes.Contains(a, []byte("wire-loss")) {
		t.Fatalf("ledger did not record the wire loss:\n%s", a)
	}
}

// matrixWireDelay jitters event timestamps (the injector's offline path;
// delay cannot be applied online) before export. Delay perturbs when
// things happen, not whether they arrive, so the fabric must deliver
// everything — a sound ledger and zero gaps — and stay deterministic.
// The cell then re-runs with every event traced: spans must not change
// the observable outcome by a byte, and within each host's clock domain
// the raw stage marks must stay monotone.
func matrixWireDelay(t *testing.T, seed int64) {
	spec, err := ParseSpec(fmt.Sprintf("delay=5ms,seed=%d", seed))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := wireOutcome(t, spec, false)
	b, _ := wireOutcome(t, spec, false)
	if !bytes.Equal(a, b) {
		t.Fatalf("wire delay=5ms seed=%d: two runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, a, b)
	}
	if bytes.Contains(a, []byte("wire-loss")) {
		t.Fatalf("delay-only fault lost events:\n%s", a)
	}

	c, colTr := wireOutcome(t, spec, true)
	if !bytes.Equal(a, c) {
		t.Fatalf("wire delay=5ms seed=%d: tracing changed the outcome:\n--- untraced ---\n%s\n--- traced ---\n%s", seed, a, c)
	}
	recs := colTr.Snapshot()
	if len(recs) == 0 {
		t.Fatal("traced run completed no spans")
	}
	domains := [][]string{
		{"ingress", "enqueue", "batch_seal", "wire_send"},
		{"collector_recv", "shard_dispatch", "verdict"},
	}
	for _, r := range recs {
		for _, domain := range domains {
			prev := int64(0)
			for _, st := range domain {
				m := r.Marks[st]
				if m == 0 {
					continue
				}
				if m < prev {
					t.Fatalf("span %x: stage %s mark %d precedes previous stage (%d); marks=%v",
						r.Key, st, m, prev, r.Marks)
				}
				prev = m
			}
		}
	}
}

// matrixLifecycleChurn is lifecycle disturbance as a chaos cell: one
// property is removed and reinstalled at seed-derived points while the
// sharded engine evaluates a full workload. The contract mirrors the
// feed faults — two identical runs are byte-identical, the stable
// property's verdicts match a static inline engine exactly, and the
// churned property carries its reinstalled mark (a truthful ledger,
// never a silently thinner verdict stream).
func matrixLifecycleChurn(t *testing.T, seed int64) {
	a, stableA := churnOutcome(t, seed)
	b, _ := churnOutcome(t, seed)
	if !bytes.Equal(a, b) {
		t.Fatalf("lifecycle-churn seed=%d: two runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, a, b)
	}
	if !bytes.Contains(a, []byte("reinstalled")) {
		t.Fatalf("ledger did not record the reinstall:\n%s", a)
	}

	// Static inline reference for the stable property only: churn of the
	// neighbor must not perturb it by a byte.
	sched := sim.NewScheduler()
	var want []string
	mon := core.NewMonitor(sched, core.Config{OnViolation: func(v *core.Violation) {
		want = append(want, fmt.Sprintf("%s %s %s", v.Time.Format(time.RFC3339Nano), v.Property, v.Trigger))
	}})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	trace.Replay(sched, fwEvents(), mon.HandleEvent)
	sched.RunFor(time.Hour)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("inline reference found no stable-property violations; the cell is vacuous")
	}
	if len(stableA) != len(want) {
		t.Fatalf("stable property: churned run %d violations, inline %d", len(stableA), len(want))
	}
	for i := range want {
		if stableA[i] != want[i] {
			t.Fatalf("stable verdict %d differs under churn\nchurned: %s\ninline:  %s", i, stableA[i], want[i])
		}
	}
}

// churnOutcome runs the firewall workload on a sharded engine, removing
// firewall-until-close and reinstalling it at seed-derived stream
// positions, and renders everything observable as bytes plus the stable
// property's sorted verdicts for the inline comparison.
func churnOutcome(t *testing.T, seed int64) ([]byte, []string) {
	t.Helper()
	evs := fwEvents()
	removeAt := len(evs)/4 + int(seed*31)%(len(evs)/4)
	reinstallAt := len(evs)/2 + int(seed*17)%(len(evs)/4)

	var mu sync.Mutex
	viols := map[string][]string{}
	sm := core.NewShardedMonitor(4, core.Config{OnViolation: func(v *core.Violation) {
		mu.Lock()
		viols[v.Property] = append(viols[v.Property],
			fmt.Sprintf("%s %s %s", v.Time.Format(time.RFC3339Nano), v.Property, v.Trigger))
		mu.Unlock()
	}})
	defer sm.Close()
	const churnName = "firewall-until-close"
	basic := property.CatalogByName(property.DefaultParams(), "firewall-basic")
	if err := sm.Apply(0, []*property.Property{basic, property.CatalogByName(property.DefaultParams(), churnName)}); err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		var err error
		switch i {
		case removeAt:
			err = sm.Apply(1, []*property.Property{basic})
		case reinstallAt:
			err = sm.Apply(2, []*property.Property{basic, property.CatalogByName(property.DefaultParams(), churnName)})
		}
		if err != nil {
			t.Fatal(err)
		}
		sm.Feed(evs[i])
	}
	sm.AdvanceTo(evs[len(evs)-1].Time.Add(time.Hour))
	if got := sm.Epoch(); got != 2 {
		t.Fatalf("lifecycle epoch = %d, want 2", got)
	}
	if err := sm.SelfCheck(); err != nil {
		t.Fatalf("post-churn invariants: %v", err)
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "churn: remove@%d reinstall@%d\n", removeAt, reinstallAt)
	mu.Lock()
	names := make([]string, 0, len(viols))
	for name := range viols {
		names = append(names, name)
		sort.Strings(viols[name])
	}
	sort.Strings(names)
	for _, name := range names {
		for _, v := range viols[name] {
			fmt.Fprintln(&buf, v)
		}
	}
	stable := append([]string(nil), viols["firewall-basic"]...)
	mu.Unlock()
	for _, m := range sm.Ledger().Snapshot() {
		fmt.Fprintf(&buf, "mark: %s %s events=%d\n", m.Property, m.Reason, m.Events)
	}
	return buf.Bytes(), stable
}

// wireOutcome runs fwEvents through exporter → TCP → collector → sharded
// engine under the spec's feed fault and renders everything observable
// (sorted verdicts, soundness marks, loss accounting) as bytes for the
// determinism comparison. Delay/reorder specs use the offline Apply path
// upstream of the exporter; drop/dup wrap its Publish online. With
// traced set, every event carries a span across the fabric and the
// collector-side tracer is returned for stage-mark assertions.
func wireOutcome(t *testing.T, spec Spec, traced bool) ([]byte, *tracer.Tracer) {
	t.Helper()
	var mu sync.Mutex
	var viols []string
	var swTr, colTr *tracer.Tracer
	if traced {
		swTr = tracer.New(tracer.Config{SampleN: 1})
		colTr = tracer.New(tracer.Config{SampleN: 1, Ring: 1 << 13})
	}
	sm := core.NewShardedMonitor(2, core.Config{Tracer: colTr, OnViolation: func(v *core.Violation) {
		mu.Lock()
		viols = append(viols, fmt.Sprintf("%s %s %s", v.Time.Format(time.RFC3339Nano), v.Property, v.Trigger))
		mu.Unlock()
	}})
	defer sm.Close()
	if err := sm.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	col, err := collector.New(collector.Config{Addr: "127.0.0.1:0", Tracer: colTr}, sm)
	if err != nil {
		t.Fatal(err)
	}
	col.Serve()
	defer col.Close()
	x, err := exporter.New(exporter.Config{Addr: col.Addr().String(), DPID: 1, BatchSizeMax: 32, Tracer: swTr})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()

	ingress := func(e core.Event) {
		if sp := swTr.Sample(1, uint64(e.PacketID), uint8(e.Kind)); sp != nil {
			sp.Stamp(tracer.StageIngress)
			e.Trace = sp
		}
		x.Publish(e)
	}

	in := NewInjector(spec)
	evs := fwEvents()
	if spec.NeedsBuffer() {
		evs = in.Apply(evs)
		for _, e := range evs {
			ingress(e)
		}
	} else {
		in.OnDrop = func(core.Event) { x.NoteLoss(1) }
		publish := in.Wrap(ingress)
		for _, e := range evs {
			publish(e)
		}
		if in.Stats().Dropped == 0 {
			t.Fatal("injector dropped nothing; the cell no longer exercises wire loss")
		}
	}
	x.Flush()
	if abandoned := x.Close(5 * time.Second); abandoned != 0 {
		t.Fatalf("exporter abandoned %d events", abandoned)
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.Stats().Events < x.Stats().Published {
		if time.Now().After(deadline) {
			t.Fatalf("collector applied %d of %d events", col.Stats().Events, x.Stats().Published)
		}
		time.Sleep(2 * time.Millisecond)
	}
	sm.AdvanceTo(sim.Epoch.Add(time.Hour))
	sm.Barrier()

	// The gap-accounting contract: every injected drop, including at the
	// tail of the stream, is visible to the collector as a gap event.
	if gaps := col.Stats().GapEvents; gaps != in.Stats().Dropped {
		t.Fatalf("collector gap events = %d, injector dropped = %d", gaps, in.Stats().Dropped)
	}
	if err := sm.SelfCheck(); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}

	var buf bytes.Buffer
	st := in.Stats()
	fmt.Fprintf(&buf, "injected: dropped=%d delayed=%d\n", st.Dropped, st.Delayed)
	mu.Lock()
	sort.Strings(viols)
	for _, v := range viols {
		fmt.Fprintln(&buf, v)
	}
	mu.Unlock()
	for _, m := range sm.Ledger().Snapshot() {
		// Times and sequence points vary with wall-clock batching; the
		// attribution and the loss count must not.
		fmt.Fprintf(&buf, "mark: %s %s events=%d\n", m.Property, m.Reason, m.Events)
	}
	cs := col.Stats()
	fmt.Fprintf(&buf, "collector: events=%d gaps=%d deduped=%d\n", cs.Events, cs.GapEvents, cs.Deduped)
	return buf.Bytes(), colTr
}

// leaveProperty is the collector-leave cell's workload property: a
// violation fires when a switch drops a flow it just forwarded. Its
// identity pins switch.id on every path, so the property is
// dpid-partitionable and verdicts carry a $SW binding the cell uses to
// split the fleet's union back out per switch.
const leaveProperty = `
property "leave-local-drop" {
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

// leavePhase builds one time-ordered phase of traffic for one switch:
// six forwarded SYN flows, the odd ones dropped by the same switch
// 200ms later (a violation each).
func leavePhase(sw uint64, phase int) []core.Event {
	base := sim.Epoch.Add(time.Duration(phase) * 10 * time.Second)
	macS := packet.MustMAC("02:00:00:00:00:01")
	macD := packet.MustMAC("02:00:00:00:00:02")
	dst := packet.MustIPv4("203.0.113.9")
	var out []core.Event
	for f := 1; f <= 6; f++ {
		src := packet.MustIPv4(fmt.Sprintf("10.%d.%d.%d", phase, sw%200, f))
		pkt := packet.NewTCP(macS, macD, src, dst, uint16(30000+f), 80, packet.FlagSYN, nil)
		at := base.Add(time.Duration(f) * 10 * time.Millisecond)
		out = append(out, core.Event{
			Kind: core.KindEgress, Time: at, SwitchID: sw,
			PacketID: core.PacketID(uint64(phase)<<24 | sw<<8 | uint64(f)),
			Packet:   pkt, InPort: 1, OutPort: 2,
		})
		if f%2 == 1 {
			out = append(out, core.Event{
				Kind: core.KindEgress, Time: at.Add(200 * time.Millisecond), SwitchID: sw,
				PacketID: core.PacketID(uint64(phase)<<24 | sw<<8 | uint64(f)),
				Packet:   pkt, InPort: 1, Dropped: true,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// matrixCollectorLeave kills one of two fleet collectors mid-run and
// removes it from the fleet while events for its partition sit unacked
// on the dead route. The contract: the replay-based handoff moves every
// stranded event to the survivor (router Replayed accounts them
// exactly, no loss marks anywhere), the non-moved partition's verdicts
// are byte-identical to an inline engine, and — because the kill lands
// at a quiescent boundary for engine state — so is the fleet-wide
// union.
func matrixCollectorLeave(t *testing.T, seed int64) {
	prop, err := property.Parse(leaveProperty)
	if err != nil {
		t.Fatal(err)
	}

	waitOn := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Two collectors, each a full sharded engine; the fleet's verdict
	// union lands in one shared recorder.
	var mu sync.Mutex
	var union []string
	record := func(v *core.Violation) {
		mu.Lock()
		union = append(union, v.String())
		mu.Unlock()
	}
	type member struct {
		sm  *core.ShardedMonitor
		col *collector.Collector
	}
	var cols [2]member
	for i := range cols {
		sm := core.NewShardedMonitor(2, core.Config{Provenance: core.ProvLimited, OnViolation: record})
		if err := sm.AddProperty(prop); err != nil {
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
	addrA := cols[0].col.Addr().String()
	addrB := cols[1].col.Addr().String()

	// Pick the partitions by asking the ring itself: one dpid that the
	// survivor owns (never moves) and one the doomed collector owns
	// (moves on the leave). The seed varies the search range.
	ring, err := federation.NewRing([]federation.Member{{Addr: addrA}, {Addr: addrB}})
	if err != nil {
		t.Fatal(err)
	}
	var swStay, swMove uint64
	for k := uint64(seed*97 + 1); swStay == 0 || swMove == 0; k++ {
		switch ring.Owner(k) {
		case addrA:
			if swStay == 0 {
				swStay = k
			}
		case addrB:
			if swMove == 0 {
				swMove = k
			}
		}
	}

	// Inline reference: one engine, both switches, global time order.
	var events []core.Event
	for _, sw := range []uint64{swStay, swMove} {
		for phase := 0; phase < 2; phase++ {
			events = append(events, leavePhase(sw, phase)...)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
	sched := sim.NewScheduler()
	var want []string
	mon := core.NewMonitor(sched, core.Config{Provenance: core.ProvLimited, OnViolation: func(v *core.Violation) {
		want = append(want, v.String())
	}})
	if err := mon.AddProperty(prop); err != nil {
		t.Fatal(err)
	}
	trace.Replay(sched, events, mon.HandleEvent)
	mon.Flush()
	sched.RunFor(time.Hour)
	sort.Strings(want)
	if len(want) != 12 {
		t.Fatalf("inline reference found %d violations, want 12", len(want))
	}

	routers := map[uint64]*federation.Router{}
	for _, sw := range []uint64{swStay, swMove} {
		r, err := federation.NewRouter(federation.Config{
			Members:      []federation.Member{{Addr: addrA}, {Addr: addrB}},
			DPID:         sw,
			DrainTimeout: 300 * time.Millisecond,
			Exporter:     exporter.Config{BatchSizeMax: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		defer r.Close(time.Second)
		routers[sw] = r
	}
	publish := func(phase int) int {
		n := 0
		for _, sw := range []uint64{swStay, swMove} {
			for _, e := range leavePhase(sw, phase) {
				routers[sw].Publish(e)
				n++
			}
		}
		for _, r := range routers {
			r.Flush()
		}
		return n
	}

	// Phase 0 on the full fleet, then quiesce hard: applied everywhere
	// AND acked back (empty route queues), so the kill cannot race an
	// in-flight ack into a double apply.
	phase0 := publish(0)
	waitOn("phase 0 applied", func() bool {
		return cols[0].col.Stats().Events+cols[1].col.Stats().Events == uint64(phase0)
	})
	waitOn("phase 0 acked", func() bool {
		for _, r := range routers {
			for _, es := range r.RouteStats() {
				if es.QueueDepth != 0 {
					return false
				}
			}
		}
		return true
	})
	appliedB := cols[1].col.Stats().Events

	// Kill collector B dead, publish phase 1 while its route cannot ack,
	// then remove it from the fleet: the handoff must extract the
	// stranded events and replay them to the survivor.
	cols[1].col.Close()
	phase1 := publish(1)
	fc := &wire.Config{Kind: wire.ConfigFleet, Epoch: 1, Members: []wire.FleetMember{{Addr: addrA}}}
	for _, r := range routers {
		r.ApplyFleetConfig(fc)
	}
	for _, r := range routers {
		r.Flush()
	}
	waitOn("phase 1 applied by the survivor", func() bool {
		return cols[0].col.Stats().Events == uint64(phase0+phase1)-appliedB
	})
	for i := range cols {
		cols[i].sm.Drain()
	}

	// Replay accounting: exactly the moved partition's stranded phase-1
	// events, and only on the moved partition's router.
	moved := uint64(len(leavePhase(swMove, 1)))
	if got := routers[swMove].Stats().Replayed; got != moved {
		t.Fatalf("moved partition replayed %d events, want %d", got, moved)
	}
	if got := routers[swStay].Stats().Replayed; got != 0 {
		t.Fatalf("non-moved partition replayed %d events, want 0", got)
	}
	for _, sw := range []uint64{swStay, swMove} {
		if marks := routers[sw].Ledger(); len(marks) != 0 {
			t.Fatalf("router %d marked loss on a replayed handoff: %+v", sw, marks)
		}
	}
	for i := range cols {
		if !cols[i].sm.Ledger().Sound() {
			t.Fatalf("collector %d ledger unsound: %+v", i, cols[i].sm.Ledger().Snapshot())
		}
	}

	// Non-moved partition: inline-identical. Moved partition: also
	// identical here, because the quiescent kill strands events but
	// never armed engine state.
	mu.Lock()
	got := append([]string(nil), union...)
	mu.Unlock()
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("fleet union %d violations, inline %d:\nfleet: %v\ninline: %v", len(got), len(want), got, want)
	}
	stayTag := fmt.Sprintf("$SW=%d]", swStay)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d differs after collector leave\nfleet:  %s\ninline: %s", i, got[i], want[i])
		}
		if strings.HasSuffix(want[i], stayTag) && got[i] != want[i] {
			t.Fatalf("non-moved partition verdict differs: %s", want[i])
		}
	}
}
