package core

import (
	"sort"
	"sync"
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// tenantClone re-badges a catalogue property under a new name and
// tenant; the compiled automaton is identical, so any verdict
// difference against the original is quota-induced by construction.
func tenantClone(t *testing.T, from, name, tenant string) *property.Property {
	t.Helper()
	q := *catalogProp(t, from)
	q.Name = name
	q.Tenant = tenant
	return &q
}

// flowOpen/flowReturn build one distinct firewall flow per index.
func flowOpen(i int) *packet.Packet {
	src := packet.IPv4FromUint32(0x0a000000 + uint32(i))
	return packet.NewTCP(macA, macB, src, ipB, uint16(20000+i), 80, packet.FlagSYN, nil)
}

func flowReturn(i int) *packet.Packet {
	src := packet.IPv4FromUint32(0x0a000000 + uint32(i))
	return packet.NewTCP(macB, macA, ipB, src, 80, uint16(20000+i), packet.FlagACK, nil)
}

// A tenant at its instance cap has new instances shed and marked
// UnsoundQuota — and only that tenant's property pays; the untenanted
// neighbor keeps full verdicts on the same stream.
func TestTenantInstanceQuotaShedsOnlyThatTenant(t *testing.T) {
	h := newHarness(t, Config{
		TenantQuotas: map[string]TenantQuota{"noisy": {MaxInstances: 1}},
	},
		catalogProp(t, "firewall-basic"),
		tenantClone(t, "firewall-basic", "fw-noisy", "noisy"),
	)

	for i := 0; i < 3; i++ {
		h.forward(flowOpen(i), 1, 2)
	}
	// firewall-basic tracks 3 flows; fw-noisy capped at 1.
	if got := h.mon.ActiveInstances(); got != 4 {
		t.Fatalf("ActiveInstances = %d, want 4 (3 untenanted + 1 capped)", got)
	}

	// Wrongful drops on every return: the untenanted property sees all
	// three, the quota'd one only the flow it still tracks.
	for i := 0; i < 3; i++ {
		h.forwardDropped(flowReturn(i), 2)
	}
	perProp := map[string]int{}
	for _, v := range h.viols {
		perProp[v.Property]++
	}
	if perProp["firewall-basic"] != 3 {
		t.Fatalf("firewall-basic violations = %d, want 3 (quota must not leak across tenants)", perProp["firewall-basic"])
	}
	if perProp["fw-noisy"] != 1 {
		t.Fatalf("fw-noisy violations = %d, want 1 (one tracked flow)", perProp["fw-noisy"])
	}

	marks := h.mon.Ledger().Snapshot()
	if len(marks) != 1 {
		t.Fatalf("marks = %+v, want exactly the quota'd property", marks)
	}
	if marks[0].Property != "fw-noisy" || marks[0].Reason != UnsoundQuota || marks[0].Events != 2 {
		t.Fatalf("mark = %+v, want fw-noisy / quota / 2 shed instances", marks[0])
	}

	// The tenant rollup surfaces the shed count for /state.
	rep := h.mon.StateReport()
	var found bool
	for _, tc := range rep.Tenants {
		if tc.Tenant == "noisy" {
			found = true
			if tc.Shed != 2 {
				t.Fatalf("tenant shed = %d, want 2", tc.Shed)
			}
		}
	}
	if !found {
		t.Fatalf("tenant %q missing from state report: %+v", "noisy", rep.Tenants)
	}
}

// A tenant over its shard-queue share stops receiving routed events —
// shed at the router with UnsoundQuota marks — while the untenanted
// property's verdicts stay byte-identical to an inline engine that saw
// the whole stream. Shard workers are parked on a gate so the tenant's
// backlog deterministically exceeds its share.
func TestTenantQueueShareShedsOnlyThatTenant(t *testing.T) {
	props := []*property.Property{
		catalogProp(t, "firewall-basic"),
		tenantClone(t, "firewall-basic", "fw-noisy", "noisy"),
	}
	evs := superviseStream(20, 2)

	// Inline reference: no quotas, full stream.
	inline := map[string]int{}
	refRec := func(v *Violation) { inline[v.Property]++ }
	refSched := sim.NewScheduler()
	mi := NewMonitor(refSched, Config{OnViolation: refRec})
	for _, p := range props {
		p := *p
		if err := mi.AddProperty(&p); err != nil {
			t.Fatal(err)
		}
	}
	for i := range evs {
		if evs[i].Time.After(refSched.Now()) {
			refSched.RunUntil(evs[i].Time)
		}
		mi.HandleEvent(evs[i])
	}
	refSched.RunFor(time.Hour)

	// Sharded run: workers parked until the whole stream is routed, so
	// the noisy tenant's pending share (4) is exceeded mid-stream.
	var mu sync.Mutex
	sharded := map[string]int{}
	sm := NewShardedMonitor(2, Config{
		OnViolation:  func(v *Violation) { mu.Lock(); sharded[v.Property]++; mu.Unlock() },
		TenantQuotas: map[string]TenantQuota{"noisy": {MaxQueued: 4}},
	})
	defer sm.Close()
	for _, p := range props {
		if err := sm.AddProperty(p); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	for s := 0; s < 2; s++ {
		if err := sm.SetShardProbe(s, func(prop int, seq uint64) { <-release }); err != nil {
			t.Fatal(err)
		}
	}
	// No per-event Tick here: every Tick seals a batch, and with the
	// workers parked the bounded control queues would fill and the
	// router would block before the quota could be observed tripping.
	for i := range evs {
		if err := sm.Submit(evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	sm.AdvanceTo(evs[len(evs)-1].Time.Add(time.Hour))

	marks := sm.Ledger().Snapshot()
	if len(marks) != 1 || marks[0].Property != "fw-noisy" || marks[0].Reason != UnsoundQuota {
		t.Fatalf("marks = %+v, want exactly fw-noisy / quota", marks)
	}
	if marks[0].Events == 0 {
		t.Fatal("quota mark with zero shed events; the share never tripped")
	}
	mu.Lock()
	defer mu.Unlock()
	if sharded["firewall-basic"] != inline["firewall-basic"] {
		t.Fatalf("untenanted property diverged: sharded=%d inline=%d",
			sharded["firewall-basic"], inline["firewall-basic"])
	}
	if inline["firewall-basic"] == 0 {
		t.Fatal("reference found no violations; the gate is vacuous")
	}
	if sharded["fw-noisy"] >= inline["fw-noisy"] {
		t.Fatalf("noisy tenant lost nothing (sharded=%d inline=%d); the quota never bit",
			sharded["fw-noisy"], inline["fw-noisy"])
	}
	st := sm.Stats()
	if st.LifecycleEpoch != 0 {
		t.Fatalf("epoch = %d, want 0 (no lifecycle ops ran)", st.LifecycleEpoch)
	}
}

// The lifecycle differential gate (acceptance criterion): under live
// churn of one property and a quota-tripping tenant, every stable
// property's verdicts on the sharded engine are byte-identical to a
// static inline engine's on the same stream.
func TestLifecycleDifferential(t *testing.T) {
	stable := catalogProp(t, "firewall-basic")
	churn := catalogProp(t, "firewall-until-close")
	noisy := tenantClone(t, "firewall-basic", "fw-noisy", "noisy")
	evs := superviseStream(120, 3)
	third := len(evs) / 3

	// Static inline reference: all three properties, no quotas, no churn.
	inlineViols := map[string][]string{}
	refSched := sim.NewScheduler()
	mi := NewMonitor(refSched, Config{OnViolation: func(v *Violation) {
		inlineViols[v.Property] = append(inlineViols[v.Property], v.String())
	}})
	for _, p := range []*property.Property{stable, churn, noisy} {
		q := *p
		if err := mi.AddProperty(&q); err != nil {
			t.Fatal(err)
		}
	}
	for i := range evs {
		if evs[i].Time.After(refSched.Now()) {
			refSched.RunUntil(evs[i].Time)
		}
		mi.HandleEvent(evs[i])
	}
	refSched.RunFor(time.Hour)

	// Sharded engine under churn + quota.
	var mu sync.Mutex
	shardedViols := map[string][]string{}
	sm := NewShardedMonitor(4, Config{
		OnViolation: func(v *Violation) {
			mu.Lock()
			shardedViols[v.Property] = append(shardedViols[v.Property], v.String())
			mu.Unlock()
		},
		TenantQuotas: map[string]TenantQuota{"noisy": {MaxInstances: 2}},
	})
	defer sm.Close()
	for _, p := range []*property.Property{stable, churn, noisy} {
		if err := sm.AddProperty(p); err != nil {
			t.Fatal(err)
		}
	}

	feed := func(from, to int) {
		for i := from; i < to; i++ {
			sm.Feed(evs[i])
		}
	}
	feed(0, third)
	if err := sm.Apply(1, []*property.Property{stable, noisy}); err != nil {
		t.Fatal(err)
	}
	feed(third, 2*third)
	if err := sm.Apply(2, []*property.Property{stable, noisy, catalogProp(t, "firewall-until-close")}); err != nil {
		t.Fatal(err)
	}
	feed(2*third, len(evs))
	sm.AdvanceTo(evs[len(evs)-1].Time.Add(time.Hour))

	if got := sm.Epoch(); got != 2 {
		t.Fatalf("lifecycle epoch = %d, want 2 (the reinstall's)", got)
	}

	// The stable untenanted property: byte-identical verdicts.
	mu.Lock()
	defer mu.Unlock()
	want := append([]string(nil), inlineViols[stable.Name]...)
	got := append([]string(nil), shardedViols[stable.Name]...)
	sort.Strings(want)
	sort.Strings(got)
	if len(want) == 0 {
		t.Fatal("reference found no stable-property violations; the gate is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("stable property: sharded %d violations, inline %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stable property verdict %d differs under churn\nsharded: %s\ninline:  %s", i, got[i], want[i])
		}
	}

	// Non-vacuity of the disturbances: the churned property carries a
	// reinstalled mark, the noisy tenant a quota mark — and neither mark
	// touches the stable property.
	reasons := map[string]UnsoundReason{}
	for _, m := range sm.Ledger().Snapshot() {
		reasons[m.Property] = m.Reason
		if m.Property == stable.Name {
			t.Fatalf("stable property marked unsound: %+v", m)
		}
	}
	if reasons[churn.Name] != UnsoundReinstalled {
		t.Fatalf("churned property mark = %v, want reinstalled", reasons[churn.Name])
	}
	if reasons[noisy.Name] != UnsoundQuota {
		t.Fatalf("noisy property mark = %v, want quota", reasons[noisy.Name])
	}
	// The churned property lost its mid-stream window: fewer verdicts
	// than the always-installed reference.
	if len(shardedViols[churn.Name]) >= len(inlineViols[churn.Name]) {
		t.Fatalf("churned property lost nothing (sharded=%d inline=%d); the churn was a no-op",
			len(shardedViols[churn.Name]), len(inlineViols[churn.Name]))
	}
	if err := sm.SelfCheck(); err != nil {
		t.Fatalf("post-churn invariants: %v", err)
	}
}
