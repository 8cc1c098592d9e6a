package core

import (
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
)

// --- Counting stages (quantitative extension) -------------------------------

func TestPortScanCountingDistinct(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvLimited}, catalogProp(t, "portscan-detect"))
	// 9 distinct ports: under threshold.
	for port := uint16(100); port < 109; port++ {
		h.forward(packet.NewTCP(macA, macB, ipA, ipB, 40000, port, packet.FlagSYN, nil), 1, 2)
	}
	h.wantViolations(0)
	// Repeats of already-seen ports must not count.
	for i := 0; i < 20; i++ {
		h.forward(packet.NewTCP(macA, macB, ipA, ipB, 40000, 100, packet.FlagSYN, nil), 1, 2)
	}
	h.wantViolations(0)
	// The 10th distinct port trips the detector.
	h.forward(packet.NewTCP(macA, macB, ipA, ipB, 40000, 109, packet.FlagSYN, nil), 1, 2)
	h.wantViolations(1)
	if h.viols[0].Binding("H") != packet.Num(ipA.Uint64()) {
		t.Fatalf("bindings = %v", h.viols[0].Bindings)
	}
}

func TestPortScanWindowResetsCounts(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "portscan-detect"))
	for port := uint16(100); port < 109; port++ {
		h.forward(packet.NewTCP(macA, macB, ipA, ipB, 40000, port, packet.FlagSYN, nil), 1, 2)
	}
	// Let the 10s window lapse: the instance (and its counts) expire.
	// Nothing refreshes it because no further stage-0 packets arrive in
	// the gap.
	h.advance(11 * time.Second)
	if h.mon.ActiveInstances() != 0 {
		t.Fatalf("instances = %d after window", h.mon.ActiveInstances())
	}
	// A fresh probe starts a fresh count; one more port is NOT the 10th.
	h.forward(packet.NewTCP(macA, macB, ipA, ipB, 40000, 200, packet.FlagSYN, nil), 1, 2)
	h.forward(packet.NewTCP(macA, macB, ipA, ipB, 40000, 201, packet.FlagSYN, nil), 1, 2)
	h.wantViolations(0)
}

func TestHeavyHitterPlainCount(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "heavy-hitter"))
	pkt := packet.NewTCP(macA, macB, ipA, ipB, 40000, 80, packet.FlagACK, nil)
	// Stage 0 consumes the first packet; the counting stage then needs
	// 100 more within a second.
	for i := 0; i < 100; i++ {
		h.forward(pkt, 1, 2)
	}
	h.wantViolations(0) // 1 creator + 99 counted
	h.forward(pkt, 1, 2)
	h.wantViolations(1)
}

func TestHeavyHitterSlowFlowIsFine(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "heavy-hitter"))
	pkt := packet.NewTCP(macA, macB, ipA, ipB, 40000, 80, packet.FlagACK, nil)
	for i := 0; i < 300; i++ {
		h.forward(pkt, 1, 2)
		h.advance(20 * time.Millisecond) // 50 pkt/s: under the rate
	}
	h.wantViolations(0)
}

func TestCountingStageKeepsPerInstanceCounts(t *testing.T) {
	// Two scanners: each needs its own distinct-port count.
	h := newHarness(t, Config{Provenance: ProvLimited}, catalogProp(t, "portscan-detect"))
	scan := func(src packet.IPv4, port uint16) {
		h.forward(packet.NewTCP(macA, macB, src, ipB, 40000, port, packet.FlagSYN, nil), 1, 2)
	}
	for port := uint16(100); port < 105; port++ {
		scan(ipA, port)
		scan(ipC, port)
	}
	h.wantViolations(0)
	for port := uint16(105); port < 111; port++ {
		scan(ipA, port) // only A crosses the threshold
	}
	h.wantViolations(1)
	if h.viols[0].Binding("H") != packet.Num(ipA.Uint64()) {
		t.Fatalf("wrong scanner flagged: %v", h.viols[0].Bindings)
	}
}

func TestCountingValidation(t *testing.T) {
	mk := func(mod func(*property.Stage)) error {
		p := &property.Property{Name: "c", Stages: []property.Stage{
			{Label: "a", SamePacketAs: -1, Binds: []property.Binding{{Var: "A", Field: packet.FieldIPSrc}}},
			{Label: "b", SamePacketAs: -1, MinCount: 5,
				Preds: []property.Pred{{Field: packet.FieldIPSrc, Op: property.OpEq, Arg: property.Ref("A")}}},
		}}
		mod(&p.Stages[1])
		return p.Validate()
	}
	if err := mk(func(s *property.Stage) {}); err != nil {
		t.Fatalf("valid counting stage rejected: %v", err)
	}
	if err := mk(func(s *property.Stage) { s.MinCount = -1 }); err == nil {
		t.Error("negative MinCount accepted")
	}
	if err := mk(func(s *property.Stage) { s.Negative = true; s.Window = time.Second }); err == nil {
		t.Error("negative counting stage accepted")
	}
	if err := mk(func(s *property.Stage) { s.MinCount = 1; s.CountDistinct = packet.FieldDstPort }); err == nil {
		t.Error("CountDistinct without MinCount>1 accepted")
	}
	if err := mk(func(s *property.Stage) { s.CountDistinct = packet.Field(9999) }); err == nil {
		t.Error("CountDistinct on bad field accepted")
	}
	if err := mk(func(s *property.Stage) {
		s.Binds = []property.Binding{{Var: "X", Field: packet.FieldIPDst}}
	}); err == nil {
		t.Error("counting stage with binds accepted")
	}
}

// --- MaxInstances eviction ------------------------------------------------------

func TestMaxInstancesEvictsOldest(t *testing.T) {
	h := newHarness(t, Config{MaxInstances: 5}, catalogProp(t, "firewall-basic"))
	for i := 0; i < 8; i++ {
		src := packet.IPv4FromUint32(0x0a000000 + uint32(i))
		p := packet.NewTCP(macA, macB, src, ipB, uint16(1000+i), 80, packet.FlagSYN, nil)
		h.forward(p, 1, 2)
	}
	if got := h.mon.ActiveInstances(); got != 5 {
		t.Fatalf("instances = %d, want 5 (capped)", got)
	}
	if h.mon.Stats().Evicted != 3 {
		t.Fatalf("evicted = %d, want 3", h.mon.Stats().Evicted)
	}
	// The oldest (flow 0..2) were evicted: their violations are lost...
	ret0 := packet.NewTCP(macB, macA, ipB, packet.IPv4FromUint32(0x0a000000), 80, 1000, packet.FlagACK, nil)
	h.forwardDropped(ret0, 2)
	h.wantViolations(0)
	// ...and the ledger says so: absence of that violation proves nothing.
	marks := h.mon.Ledger().Snapshot()
	if len(marks) != 1 || marks[0].Property != "firewall-basic" || marks[0].Reason != UnsoundEvicted || marks[0].Events != 3 {
		t.Fatalf("ledger marks = %+v, want one evicted mark on firewall-basic counting 3 instances", marks)
	}
	// ...while the youngest still alerts.
	ret7 := packet.NewTCP(macB, macA, ipB, packet.IPv4FromUint32(0x0a000007), 80, 1007, packet.FlagACK, nil)
	h.forwardDropped(ret7, 2)
	h.wantViolations(1)
}

func TestMaxInstancesStaleQueueEntries(t *testing.T) {
	// Instances that complete before the cap bites must not confuse the
	// eviction queue.
	h := newHarness(t, Config{MaxInstances: 2}, catalogProp(t, "firewall-basic"))
	mk := func(i int) (*packet.Packet, *packet.Packet) {
		src := packet.IPv4FromUint32(0x0a000000 + uint32(i))
		out := packet.NewTCP(macA, macB, src, ipB, uint16(1000+i), 80, packet.FlagSYN, nil)
		ret := packet.NewTCP(macB, macA, ipB, src, 80, uint16(1000+i), packet.FlagACK, nil)
		return out, ret
	}
	// Flow 0 opens and violates immediately (instance consumed).
	out0, ret0 := mk(0)
	h.forward(out0, 1, 2)
	h.forwardDropped(ret0, 2)
	h.wantViolations(1)
	// Two more flows fill the cap; a third evicts flow 1, not the dead
	// flow-0 entry twice.
	for i := 1; i <= 3; i++ {
		out, _ := mk(i)
		h.forward(out, 1, 2)
	}
	if got := h.mon.ActiveInstances(); got != 2 {
		t.Fatalf("instances = %d, want 2", got)
	}
	if h.mon.Stats().Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", h.mon.Stats().Evicted)
	}
	_, ret2 := mk(2)
	h.forwardDropped(ret2, 2)
	h.wantViolations(2) // flow 2 still live
}

func TestUnboundedByDefault(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "firewall-basic"))
	for i := 0; i < 100; i++ {
		src := packet.IPv4FromUint32(0x0a000000 + uint32(i))
		h.forward(packet.NewTCP(macA, macB, src, ipB, uint16(1000+i), 80, packet.FlagSYN, nil), 1, 2)
	}
	if got := h.mon.ActiveInstances(); got != 100 {
		t.Fatalf("instances = %d, want 100", got)
	}
	if h.mon.Stats().Evicted != 0 {
		t.Fatal("evictions without a cap")
	}
}

// --- Disjunctive-group indexing ---------------------------------------------

func TestAnyOfGroupIndexingMatchesBothDirections(t *testing.T) {
	// lb-sticky's final stage keys live inside AnyOf alternatives (one
	// group per direction). With many instances live, both directions
	// must still be found via the per-group indexes.
	h := newHarness(t, Config{Provenance: ProvLimited}, catalogProp(t, "lb-sticky"))
	// 50 background flows, each assigned consistently to port 10.
	for i := 0; i < 50; i++ {
		src := packet.IPv4FromUint32(0x0a000100 + uint32(i))
		syn := packet.NewTCP(macA, macB, src, ipB, uint16(20000+i), 80, packet.FlagSYN, nil)
		id := h.arrival(syn, 1)
		h.egress(id, syn, 1, 10)
	}
	// The flow of interest: assigned to port 10, client at in_port 1.
	syn := packet.NewTCP(macA, macB, ipA, ipB, 31000, 80, packet.FlagSYN, nil)
	id := h.arrival(syn, 1)
	h.egress(id, syn, 1, 10)
	// Forward packet moved to port 11: forward-direction group violation.
	fwd := packet.NewTCP(macA, macB, ipA, ipB, 31000, 80, packet.FlagACK, nil)
	h.forward(fwd, 1, 11)
	h.wantViolations(1)

	// Fresh flow for the reverse direction: return traffic must exit the
	// client's ingress port (1); exiting elsewhere violates via the
	// second AnyOf group.
	syn2 := packet.NewTCP(macA, macB, ipC, ipB, 32000, 80, packet.FlagSYN, nil)
	id2 := h.arrival(syn2, 1)
	h.egress(id2, syn2, 1, 10)
	ret := packet.NewTCP(macB, macA, ipB, ipC, 80, 32000, packet.FlagACK, nil)
	h.forward(ret, 10, 3) // should have gone to port 1
	h.wantViolations(2)
}

func TestAnyOfGroupIndexDoesNotCrossMatch(t *testing.T) {
	// An egress matching neither group's key set must not advance the
	// instance, even with indexes in play.
	h := newHarness(t, Config{}, catalogProp(t, "lb-sticky"))
	syn := packet.NewTCP(macA, macB, ipA, ipB, 31000, 80, packet.FlagSYN, nil)
	id := h.arrival(syn, 1)
	h.egress(id, syn, 1, 10)
	// Unrelated flow egressing a random port: no violation.
	other := packet.NewTCP(macA, macB, ipC, ipB, 31001, 80, packet.FlagACK, nil)
	h.forward(other, 1, 12)
	h.wantViolations(0)
}
