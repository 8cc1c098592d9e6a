package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// The store's model test. refStore is the instance store this engine had
// before rows, tables and deadline queues: per stage bucket a map of all
// instances, a map of maps per index key and a dedup map (keyed here by
// the identity itself, which is what the signature stood for), timers as
// per-instance deadlines fired in (deadline, arm order), and the
// MaxInstances FIFO of possibly-stale references. It is deliberately
// naive. The test drives the same seeded random file / probe / refresh /
// advance / discharge / expire / evict operations through it and through
// a Monitor's real enter / remove / release / deadline paths, and after
// every step compares dedup and refresh decisions, candidate sets (in
// filing order), populations, live counts, pending deadlines, the
// counters, and SelfCheck.

const (
	modelWindow1 = 5 * time.Second // stage 1: positive, refreshed by dedup hits
	modelWindow2 = 3 * time.Second // stage 2: negative, never refreshed
)

func modelProperty() *property.Property {
	// The guard is keyed on A alone: instances of one source share this
	// key's chain.
	return mustParse(fmt.Sprintf(`property "store-model" {
  description "A then a reply within a window, then no ack within another"
  on arrival "open" {
    bind $A = ip.src
    bind $B = ip.dst
  }
  on egress "reply" within %s {
    match ip.src == $B
    match ip.dst == $A
    until arrival { ip.src == $A; tcp.fin == 1 }
  }
  unless egress "ack" within %s {
    match ip.src == $A
    match ip.dst == $B
  }
}`, modelWindow1, modelWindow2))
}

type refInst struct {
	id       uint32 // the row the engine filed it in: how the two sides name one instance
	stage    int
	a, b     uint64
	keys     []uint64
	filed    bool
	fileSeq  uint64
	armed    bool
	deadline time.Time
	armSeq   uint64
}

type refBucket struct {
	all   map[uint32]*refInst
	keyed map[uint64]map[uint32]*refInst
	byID  map[[2]uint64]*refInst
}

type refStore struct {
	buckets [3]*refBucket
	evict   []*refInst
	max     int
	live    int
	seq     uint64

	deduped, refreshed, expired, evicted, violations uint64
}

func newRefStore(max int) *refStore {
	rs := &refStore{max: max}
	for i := range rs.buckets {
		rs.buckets[i] = &refBucket{
			all:   map[uint32]*refInst{},
			keyed: map[uint64]map[uint32]*refInst{},
			byID:  map[[2]uint64]*refInst{},
		}
	}
	return rs
}

func (rs *refStore) next() uint64 { rs.seq++; return rs.seq }

func modelWindow(stage int) time.Duration {
	if stage == 1 {
		return modelWindow1
	}
	return modelWindow2
}

func (rs *refStore) enter(in *refInst, now time.Time) (deduped, refreshed bool) {
	b := rs.buckets[in.stage]
	ident := [2]uint64{in.a, in.b}
	if ex, ok := b.byID[ident]; ok {
		rs.deduped++
		if in.stage == 1 {
			ex.deadline, ex.armSeq = now.Add(modelWindow1), rs.next()
			rs.refreshed++
			refreshed = true
		}
		return true, refreshed
	}
	if rs.max > 0 {
		if rs.live >= rs.max {
			rs.evictOldest()
		}
		rs.evict = append(rs.evict, in)
	}
	in.filed, in.fileSeq = true, rs.next()
	rs.live++
	b.byID[ident] = in
	b.all[in.id] = in
	for _, k := range in.keys {
		if b.keyed[k] == nil {
			b.keyed[k] = map[uint32]*refInst{}
		}
		b.keyed[k][in.id] = in
	}
	in.armed, in.deadline, in.armSeq = true, now.Add(modelWindow(in.stage)), rs.next()
	return false, false
}

func (rs *refStore) remove(in *refInst) {
	in.armed = false
	if in.filed {
		in.filed = false
		rs.live--
	}
	b := rs.buckets[in.stage]
	delete(b.all, in.id)
	delete(b.byID, [2]uint64{in.a, in.b})
	for _, k := range in.keys {
		delete(b.keyed[k], in.id)
		if len(b.keyed[k]) == 0 {
			delete(b.keyed, k)
		}
	}
}

func (rs *refStore) evictOldest() {
	for len(rs.evict) > 0 {
		in := rs.evict[0]
		rs.evict = rs.evict[1:]
		if !in.filed {
			continue
		}
		rs.remove(in)
		rs.evicted++
		return
	}
}

// fire runs every deadline due by t in (deadline, arm order).
func (rs *refStore) fire(t time.Time) {
	var due []*refInst
	for _, b := range rs.buckets {
		for _, in := range b.all {
			if in.armed && !in.deadline.After(t) {
				due = append(due, in)
			}
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if !due[i].deadline.Equal(due[j].deadline) {
			return due[i].deadline.Before(due[j].deadline)
		}
		return due[i].armSeq < due[j].armSeq
	})
	for _, in := range due {
		rs.remove(in)
		if in.stage == 1 {
			rs.expired++
		} else {
			rs.violations++ // the negative stage is the last: its timeout completes the pattern
		}
	}
}

// inOrder lists instances by filing order.
func inOrder(set map[uint32]*refInst) []uint32 {
	ins := make([]*refInst, 0, len(set))
	for _, in := range set {
		ins = append(ins, in)
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i].fileSeq < ins[j].fileSeq })
	ids := make([]uint32, len(ins))
	for i, in := range ins {
		ids[i] = in.id
	}
	return ids
}

type storeModel struct {
	sched *sim.Scheduler
	mon   *Monitor
	cp    *compiledProp
	ref   *refStore
}

func newStoreModel(t *testing.T, max int) *storeModel {
	sm := &storeModel{sched: sim.NewScheduler(), ref: newRefStore(max)}
	sm.mon = NewMonitor(sm.sched, Config{MaxInstances: max})
	if err := sm.mon.AddProperty(modelProperty()); err != nil {
		t.Fatal(err)
	}
	sm.cp = sm.mon.props[0]
	return sm
}

// keysOf computes the keys an instance (a, b) waiting at stage is filed
// under.
func (sm *storeModel) keysOf(stage int, a, b uint64) []uint64 {
	en := rowEnv(sm.cp, map[property.Var]packet.Value{"A": packet.Num(a), "B": packet.Num(b)}, nil)
	return instanceIndexKeys(&sm.cp.stages[stage], en, nil)
}

// enter files (or dedups) one instance on both sides and compares the
// decision.
func (sm *storeModel) enter(id uint32, r *row, in *refInst) error {
	before := sm.mon.Stats()
	sm.mon.enter(id, r, sm.cp)
	after := sm.mon.Stats()
	in.id, in.keys = id, sm.keysOf(in.stage, in.a, in.b)
	deduped, refreshed := sm.ref.enter(in, sm.sched.Now())
	if got := after.Deduped > before.Deduped; got != deduped {
		return fmt.Errorf("dedup decision %v, reference %v", got, deduped)
	}
	if got := after.Refreshed > before.Refreshed; got != refreshed {
		return fmt.Errorf("refresh decision %v, reference %v", got, refreshed)
	}
	return nil
}

func (sm *storeModel) pick(rng *rand.Rand, stage int) *refInst {
	ids := inOrder(sm.ref.buckets[stage].all)
	if len(ids) == 0 {
		return nil
	}
	return sm.ref.buckets[stage].all[ids[rng.Intn(len(ids))]]
}

// step applies one random operation to both sides.
func (sm *storeModel) step(rng *rand.Rand) (op string, err error) {
	m, st := sm.mon, &sm.mon.st
	a, b := uint64(1+rng.Intn(6)), uint64(1+rng.Intn(6))
	switch n := rng.Intn(100); {
	case n < 40:
		stage := 1 + rng.Intn(2)
		op = fmt.Sprintf("file stage %d (%d,%d)", stage, a, b)
		id, r, _ := st.alloc()
		r.prop, r.stage, r.w = 0, uint8(stage), [rowWords]uint64{a, b}
		err = sm.enter(id, r, &refInst{stage: stage, a: a, b: b})
	case n < 55:
		stage := 1 + rng.Intn(2)
		op = fmt.Sprintf("probe stage %d (%d,%d)", stage, a, b)
		bk := &m.buckets[0][stage]
		for _, k := range sm.keysOf(stage, a, b) {
			var got []uint32
			for id := bk.keys.head(k); id != 0; id = st.at(id).chainNext(k) {
				got = append(got, id)
			}
			if want := inOrder(sm.ref.buckets[stage].keyed[k]); fmt.Sprint(got) != fmt.Sprint(want) {
				return op, fmt.Errorf("key %#x candidates %v, reference %v", k, got, want)
			}
		}
	case n < 70:
		in := sm.pick(rng, 1+rng.Intn(2))
		if in == nil {
			return "discharge (none)", nil
		}
		op = fmt.Sprintf("discharge row %d", in.id)
		m.discharge(0, in.id, st.at(in.id))
		sm.ref.remove(in)
	case n < 85:
		in := sm.pick(rng, 1)
		if in == nil {
			return "advance (none)", nil
		}
		op = fmt.Sprintf("advance row %d", in.id)
		r := st.at(in.id)
		m.remove(in.id, r)
		r.stage++
		sm.ref.remove(in)
		in.stage++
		err = sm.enter(in.id, r, in)
	default:
		d := time.Duration(rng.Intn(2500)) * time.Millisecond
		op = fmt.Sprintf("run for %v", d)
		sm.sched.RunFor(d)
		sm.ref.fire(sm.sched.Now())
	}
	return op, err
}

// compare checks every observable of the two sides against each other.
func (sm *storeModel) compare() error {
	m, st := sm.mon, &sm.mon.st
	armed := 0
	for stage := 1; stage <= 2; stage++ {
		var got []uint32
		for id := m.buckets[0][stage].head; id != 0; id = st.at(id).pop.next {
			got = append(got, id)
		}
		ref := sm.ref.buckets[stage].all
		if want := inOrder(ref); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("stage %d population %v, reference %v", stage, got, want)
		}
		for _, in := range ref {
			if in.armed {
				armed++
			}
		}
	}
	if live := int(m.live.Load()); live != sm.ref.live || m.ActiveInstances() != sm.ref.live {
		return fmt.Errorf("live %d (ActiveInstances %d), reference %d", live, m.ActiveInstances(), sm.ref.live)
	}
	if got := sm.sched.Pending(); got != armed {
		return fmt.Errorf("%d pending deadlines, reference %d", got, armed)
	}
	s := m.Stats()
	got := [5]uint64{s.Deduped, s.Refreshed, s.Expired, s.Evicted, s.Violations}
	want := [5]uint64{sm.ref.deduped, sm.ref.refreshed, sm.ref.expired, sm.ref.evicted, sm.ref.violations}
	if got != want {
		return fmt.Errorf("deduped/refreshed/expired/evicted/violations %v, reference %v", got, want)
	}
	return m.SelfCheck()
}

func TestStoreMatchesMapModel(t *testing.T) {
	const seeds, steps = 12, 10000 // 1.2e5 operations
	for seed := int64(1); seed <= seeds; seed++ {
		// Odd seeds run under a MaxInstances cap small enough to evict.
		max := 0
		if seed%2 == 1 {
			max = 24
		}
		sm := newStoreModel(t, max)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < steps; i++ {
			op, err := sm.step(rng)
			if err == nil {
				err = sm.compare()
			}
			if err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, i, op, err)
			}
		}
	}
}

// A 64-bit signature collision must neither merge two instances nor hide
// one: rows with distinct identities filed under one forced signature are
// both found by their own identity, and unfiling either leaves the other.
func TestSignatureCollisionKeepsBothRows(t *testing.T) {
	s := &store{}
	var b bucket
	words := []uint8{0, 1}
	const sig = 42
	file := func(a, bb uint64) uint32 {
		id, r, _ := s.alloc()
		r.w[0], r.w[1] = a, bb
		b.file(s, id, sig, nil)
		return id
	}
	probe := func(a, bb uint64) uint32 {
		return b.findSig(s, sig, &row{w: [rowWords]uint64{a, bb}}, words)
	}
	x, y, z := file(1, 2), file(3, 4), file(5, 6)
	if probe(1, 2) != x || probe(3, 4) != y || probe(5, 6) != z {
		t.Fatalf("colliding rows not all found: %d %d %d", probe(1, 2), probe(3, 4), probe(5, 6))
	}
	if got := probe(7, 8); got != 0 {
		t.Fatalf("identity (7,8) was never filed but signature hit returned row %d", got)
	}
	if b.sigs.n != 1 || b.n != 3 {
		t.Fatalf("table holds %d signatures for %d rows, want 1 for 3", b.sigs.n, b.n)
	}
	b.unfile(s, y) // interior of the chain
	if probe(3, 4) != 0 || probe(1, 2) != x || probe(5, 6) != z {
		t.Fatal("unfiling one colliding row disturbed the others")
	}
	b.unfile(s, z) // head of the chain
	if probe(5, 6) != 0 || probe(1, 2) != x {
		t.Fatal("unfiling the chain head lost the remaining row")
	}
	b.unfile(s, x)
	if b.sigs.n != 0 || b.n != 0 || b.head != 0 || b.tail != 0 {
		t.Fatalf("bucket not empty after unfiling everything: %+v", b)
	}
}

// The tables delete by backward shift; a long run of inserts and deletes
// in a small table must keep every present key findable and every absent
// key absent.
func TestTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb table
	ref := map[uint64]uint32{}
	for i := 0; i < 200000; i++ {
		k := uint64(rng.Intn(512)) * 0x10001 // clustered keys: long probe runs
		if _, ok := ref[k]; ok && rng.Intn(2) == 0 {
			tb.delAt(tb.lookup(k))
			delete(ref, k)
		} else if !ok {
			v := uint32(1 + rng.Intn(1000))
			tb.ents[tb.acquire(k)].head = v
			ref[k] = v
		}
		probe := uint64(rng.Intn(512)) * 0x10001
		if got, want := tb.head(probe), ref[probe]; got != want {
			t.Fatalf("step %d: head(%#x) = %d, reference %d", i, probe, got, want)
		}
		if tb.n != len(ref) {
			t.Fatalf("step %d: table counts %d keys, reference %d", i, tb.n, len(ref))
		}
	}
}

// A property outside the row's geometry is refused at compile time, by
// name, instead of corrupting a row; one that merely has more keyed
// guards than a row has key slots still compiles, its extra guards
// scanning.
func TestCompileRowGeometryLimits(t *testing.T) {
	if _, err := compile(tooWide("too-wide")); err == nil {
		t.Fatalf("a property with %d variables compiled into a %d-word row", rowWords+1, rowWords)
	}

	var guards strings.Builder
	for port := 1; port <= rowKeys+2; port++ {
		fmt.Fprintf(&guards, "until arrival { ip.src == $A; l4.dst_port == %d }\n", port)
	}
	guarded := mustParse(fmt.Sprintf(`property "many-guards" {
  description "more keyed guards than key slots"
  on arrival "first" { bind $A = ip.src }
  on egress "second" {
    match ip.dst == $A
    %s
  }
}`, guards.String()))
	cp, err := compile(guarded)
	if err != nil {
		t.Fatal(err)
	}
	keyed := len(cp.stages[1].indexGroups)
	for _, g := range cp.stages[1].guardIdx {
		if len(g.eq) > 0 {
			keyed++
		}
	}
	if keyed != rowKeys {
		t.Fatalf("stage files an instance under %d keys, a row holds %d", keyed, rowKeys)
	}
	// The demoted guards still discharge.
	h := newHarness(t, Config{}, guarded)
	src, dst := packet.IPv4FromUint32(0x0a000001), packet.IPv4FromUint32(0xcb007101)
	h.arrival(packet.NewTCP(macA, macB, src, dst, 1000, 80, packet.FlagSYN, nil), 1)
	h.arrival(packet.NewTCP(macA, macB, src, dst, 1000, rowKeys+2, packet.FlagSYN, nil), 1)
	if got := h.mon.Stats().Discharged; got != 1 {
		t.Fatalf("discharged = %d, want 1 via a scanning guard", got)
	}
}
