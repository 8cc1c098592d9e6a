package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/raceon"
	"switchmon/internal/sim"
)

// genValues converts fuzz input into a value slice mixing numbers and
// strings.
func genValues(nums []uint64, strs []string) []packet.Value {
	var vals []packet.Value
	for _, n := range nums {
		vals = append(vals, packet.Num(n))
	}
	for _, s := range strs {
		vals = append(vals, packet.Str(s))
	}
	return vals
}

// Property: hashValues is collision-free in practice — equal value slices
// hash equal, and randomly sampled distinct slices hash distinct (a 64-bit
// FNV-1a collision among quick.Check's samples would be a type-tagging
// bug, not bad luck). The instance indexes and dedup signatures depend on
// this.
func TestHashValuesCollisionFree(t *testing.T) {
	f := func(n1 []uint64, s1 []string, n2 []uint64, s2 []string) bool {
		a, b := genValues(n1, s1), genValues(n2, s2)
		ha, hb := hashValues(a), hashValues(b)
		if reflect.DeepEqual(a, b) {
			return ha == hb
		}
		return ha != hb
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Adversarial boundary cases for the hash's framing: value sequences whose
// byte streams would coincide without the kind and length tags.
func TestHashValuesDelimiterSafety(t *testing.T) {
	cases := [][2][]packet.Value{
		{{packet.Str("a|b")}, {packet.Str("a"), packet.Str("b")}},
		{{packet.Str("n1")}, {packet.Num(1)}},
		{{packet.Str("")}, {}},
		{{packet.Str("s1:x")}, {packet.Str("s1"), packet.Str("x")}},
		{{packet.Num(0)}, {}},
		{{packet.Str("3:abc")}, {packet.Str("3"), packet.Str("abc")}},
		{{packet.Str("ab"), packet.Str("c")}, {packet.Str("a"), packet.Str("bc")}},
	}
	for _, c := range cases {
		if hashValues(c[0]) == hashValues(c[1]) {
			t.Errorf("collision: %v vs %v -> %#x", c[0], c[1], hashValues(c[0]))
		}
	}
}

// rowEnv builds a detached row holding the given variable values and the
// per-stage matched PacketIDs, the way advance would have left it.
func rowEnv(cp *compiledProp, binds map[property.Var]packet.Value, packets []PacketID) env {
	en := env{r: &row{}, s: &store{}}
	for slot, v := range cp.vars {
		if val, ok := binds[v]; ok {
			en.s.setValue(en.r, slot, val)
		}
	}
	for si, pid := range packets {
		if w := cp.stages[si].ownPacketWord; w >= 0 {
			en.r.w[w] = uint64(pid)
		}
	}
	return en
}

// Regression: the order-invariant signature sums per-entry hashes, and
// raw FNV terms cancel under summation on correlated inputs — flows
// (10.0.0.f, 203.0.0.f) collapsed to a quarter of their key space before
// the per-entry mix64 finalizer. Every flow in an E8-shaped range must
// get a distinct signature (and a distinct route hash: same algebra).
func TestSignatureCorrelatedBindingsDistinct(t *testing.T) {
	p := property.CatalogByName(property.DefaultParams(), "firewall-basic")
	cp, err := compile(p)
	if err != nil {
		t.Fatal(err)
	}
	pk := []PacketID{1, 0}
	sigs := make(map[uint64]int, 8192)
	routes := make(map[uint64]int, 8192)
	for f := 0; f < 8192; f++ {
		env := map[property.Var]packet.Value{"A": packet.Num(uint64(0x0a000000 + f)), "B": packet.Num(uint64(0xcb000000 + f))}
		sig := cp.signature(1, rowEnv(cp, env, pk))
		if prev, dup := sigs[sig]; dup {
			t.Fatalf("flows %d and %d share signature %#x", prev, f, sig)
		}
		sigs[sig] = f
		var sum uint64
		for _, val := range env {
			sum += mix64(fnvValue(fnvOffset, val))
		}
		if prev, dup := routes[sum]; dup {
			t.Fatalf("flows %d and %d share route hash %#x", prev, f, sum)
		}
		routes[sum] = f
	}
}

// Property: instance signatures separate stage, bindings, and identity
// packets.
func TestSignatureSeparatesComponents(t *testing.T) {
	p := property.CatalogByName(property.DefaultParams(), "nat-reverse")
	cp, err := compile(p)
	if err != nil {
		t.Fatal(err)
	}
	envA := map[property.Var]packet.Value{"A": packet.Num(1), "B": packet.Num(2)}
	envB := map[property.Var]packet.Value{"A": packet.Num(1), "B": packet.Num(3)}
	pk1 := []PacketID{7, 0, 0, 0}
	pk2 := []PacketID{8, 0, 0, 0}
	if cp.signature(1, rowEnv(cp, envA, pk1)) == cp.signature(1, rowEnv(cp, envB, pk1)) {
		t.Error("signature ignores bindings")
	}
	if cp.signature(1, rowEnv(cp, envA, pk1)) == cp.signature(2, rowEnv(cp, envA, pk1)) {
		t.Error("signature ignores stage")
	}
	// Stage 0 is identity-relevant for nat-reverse (stage 1 references it).
	if cp.signature(1, rowEnv(cp, envA, pk1)) == cp.signature(1, rowEnv(cp, envA, pk2)) {
		t.Error("signature ignores identity packets")
	}
	// Identity packets of *future* stages must not contribute.
	pk3 := []PacketID{7, 0, 9, 0}
	if cp.signature(1, rowEnv(cp, envA, pk1)) != cp.signature(1, rowEnv(cp, envA, pk3)) {
		t.Error("signature leaks future-stage packets")
	}
}

// Property: the symmetric hash operand is permutation-invariant over its
// field values.
func TestHashValuesPermutationInvariant(t *testing.T) {
	f := func(nums []uint64, seed int64) bool {
		vals := genValues(nums, nil)
		shuffled := append([]packet.Value(nil), vals...)
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return packet.HashValues(vals) == packet.HashValues(shuffled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any random event stream, the engine's invariants hold.
func TestSelfCheckAfterRandomStream(t *testing.T) {
	props := []*property.Property{
		property.CatalogByName(property.DefaultParams(), "firewall-timeout"),
		property.CatalogByName(property.DefaultParams(), "portscan-detect"),
		property.CatalogByName(property.DefaultParams(), "lb-sticky"),
	}
	for seed := int64(1); seed <= 5; seed++ {
		h := newHarness(t, Config{MaxInstances: 64}, props...)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			src := packet.IPv4FromUint32(0x0a000000 + uint32(rng.Intn(32)))
			dst := packet.IPv4FromUint32(0xcb007100 + uint32(rng.Intn(8)))
			p := packet.NewTCP(macA, macB, src, dst,
				uint16(1000+rng.Intn(64)), uint16(rng.Intn(1000)),
				packet.TCPFlags(rng.Intn(64)), nil)
			if rng.Intn(3) == 0 {
				h.forwardDropped(p, uint64(rng.Intn(3)+1))
			} else {
				h.forward(p, uint64(rng.Intn(3)+1), uint64(rng.Intn(3)+1))
			}
			if rng.Intn(10) == 0 {
				h.advance(1000)
			}
		}
		if err := h.mon.SelfCheck(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Property: over any seeded random event stream, a ShardedMonitor and the
// inline engine agree on every Stats counter and on the violation count,
// at every shard width. This complements the trace-shaped differential in
// sharded_test.go with the adversarial stream used for the self-check
// property (timeouts, counting stages, sticky identities).
func TestShardedMatchesInlineOnRandomStream(t *testing.T) {
	props := []*property.Property{
		property.CatalogByName(property.DefaultParams(), "firewall-timeout"),
		property.CatalogByName(property.DefaultParams(), "portscan-detect"),
		property.CatalogByName(property.DefaultParams(), "lb-sticky"),
	}
	for _, shards := range []int{1, 3, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			sched := sim.NewScheduler()
			inlineViols, shardedViols := 0, 0
			mi := NewMonitor(sched, Config{OnViolation: func(*Violation) { inlineViols++ }})
			sm := NewShardedMonitor(shards, Config{OnViolation: func(*Violation) { shardedViols++ }})
			for _, p := range props {
				if err := mi.AddProperty(p); err != nil {
					t.Fatal(err)
				}
				if err := sm.AddProperty(p); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			var pid PacketID
			feed := func(e Event) {
				mi.HandleEvent(e)
				sm.Submit(e)
			}
			for i := 0; i < 500; i++ {
				src := packet.IPv4FromUint32(0x0a000000 + uint32(rng.Intn(32)))
				dst := packet.IPv4FromUint32(0xcb007100 + uint32(rng.Intn(8)))
				p := packet.NewTCP(macA, macB, src, dst,
					uint16(1000+rng.Intn(64)), uint16(rng.Intn(1000)),
					packet.TCPFlags(rng.Intn(64)), nil)
				pid++
				now := sched.Now()
				in := uint64(rng.Intn(3) + 1)
				feed(Event{Kind: KindArrival, Time: now, PacketID: pid, Packet: p, InPort: in})
				if rng.Intn(3) == 0 {
					feed(Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: p, InPort: in, Dropped: true})
				} else {
					feed(Event{Kind: KindEgress, Time: now, PacketID: pid, Packet: p,
						InPort: in, OutPort: uint64(rng.Intn(3) + 1)})
				}
				if rng.Intn(10) == 0 {
					sched.RunFor(time.Second)
					sm.AdvanceTo(sched.Now())
				}
			}
			sched.RunFor(time.Hour)
			sm.AdvanceTo(sched.Now())
			if is, ss := mi.Stats(), sm.Stats(); is != ss {
				t.Fatalf("shards=%d seed=%d: stats diverge\ninline:  %+v\nsharded: %+v", shards, seed, is, ss)
			}
			if inlineViols != shardedViols {
				t.Fatalf("shards=%d seed=%d: violations %d vs %d", shards, seed, inlineViols, shardedViols)
			}
			if err := sm.SelfCheck(); err != nil {
				t.Fatalf("shards=%d seed=%d: %v", shards, seed, err)
			}
			sm.Close()
		}
	}
}

// Allocation regression: the firewall steady state — return traffic
// probing the stage-1 index of an established instance population — must
// stay within a fixed allocation budget per event. The uint64-key hot
// path runs allocation-free; the budget of 2 leaves slack for future
// bookkeeping without letting string keys or union maps sneak back in.
func TestSteadyStateAllocationBudget(t *testing.T) {
	skipAllocGateUnderRace(t)
	sched := sim.NewScheduler()
	mon := NewMonitor(sched, Config{})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	const flows = 256
	var pid PacketID
	events := make([]Event, 0, 3*flows)
	for f := 0; f < flows; f++ {
		src := packet.IPv4FromUint32(0x0a000000 | uint32(f))
		dst := packet.IPv4FromUint32(0xcb007100 | uint32(f))
		open := packet.NewTCP(macA, macB, src, dst, uint16(10000+f), 80, packet.FlagSYN, nil)
		pid++
		mon.HandleEvent(Event{Kind: KindArrival, Time: sched.Now(), PacketID: pid, Packet: open, InPort: 1})
		mon.HandleEvent(Event{Kind: KindEgress, Time: sched.Now(), PacketID: pid, Packet: open, InPort: 1, OutPort: 2})
		ret := packet.NewTCP(macB, macA, dst, src, 80, uint16(10000+f), packet.FlagACK, nil)
		pid++
		events = append(events, Event{Kind: KindEgress, Time: sched.Now(), PacketID: pid,
			Packet: ret, InPort: 2, OutPort: 1})
	}
	if avg := steadyStateAllocs(mon, events); avg > 2 {
		t.Fatalf("steady-state path allocates %.1f/event, budget is 2", avg)
	}
}

// skipAllocGateUnderRace skips an allocation gate in a -race build: the
// detector's own allocations are not the engine's.
func skipAllocGateUnderRace(t *testing.T) {
	t.Helper()
	if raceon.Enabled {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
}

// steadyStateAllocs replays events once to warm the scratch buffers, then
// reports allocations per event over a thousand more.
func steadyStateAllocs(mon *Monitor, events []Event) float64 {
	for i := range events {
		mon.HandleEvent(events[i])
	}
	i := 0
	return testing.AllocsPerRun(1000, func() {
		mon.HandleEvent(events[i%len(events)])
		i++
	})
}

// The hash operand is inside the zero-alloc discipline too: lb-hashed's
// steady state — both directions of established flows leaving on the
// port the symmetric flow hash selects, each egress probing both index
// groups and evaluating out_port != hash(flow...) — allocates nothing.
func TestHashOperandSteadyStateZeroAlloc(t *testing.T) {
	skipAllocGateUnderRace(t)
	sched := sim.NewScheduler()
	mon := NewMonitor(sched, Config{OnViolation: func(v *Violation) { t.Errorf("unexpected %v", v) }})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "lb-hashed")); err != nil {
		t.Fatal(err)
	}
	var spec *property.HashSpec
	for _, pr := range mon.props[0].stages[1].anyOf[0] {
		if pr.Arg.Kind == property.OperandHash {
			spec = pr.Arg.Hash
		}
	}
	const flows = 256
	var pid PacketID
	events := make([]Event, 0, 2*flows)
	for f := 0; f < flows; f++ {
		src := packet.IPv4FromUint32(0x0a000000 | uint32(f))
		dst := packet.IPv4FromUint32(0xcb007100 | uint32(f))
		syn := packet.NewTCP(macA, macB, src, dst, uint16(10000+f), 80, packet.FlagSYN, nil)
		pid++
		mon.HandleEvent(Event{Kind: KindArrival, Time: sched.Now(), PacketID: pid, Packet: syn,
			InPort: 1}) // lb-hashed matches new flows on the internal port
		for _, p := range []*packet.Packet{
			packet.NewTCP(macA, macB, src, dst, uint16(10000+f), 80, packet.FlagACK, nil),
			packet.NewTCP(macB, macA, dst, src, 80, uint16(10000+f), packet.FlagACK, nil),
		} {
			pid++
			ev := Event{Kind: KindEgress, Time: sched.Now(), PacketID: pid, Packet: p, InPort: 1}
			port, ok := hashOperand(spec, &ev)
			if !ok {
				t.Fatal("hash operand unavailable on a TCP egress")
			}
			ev.OutPort = port.Uint64()
			events = append(events, ev)
		}
	}
	if mon.ActiveInstances() != flows {
		t.Fatalf("%d instances waiting, want %d", mon.ActiveInstances(), flows)
	}
	if avg := steadyStateAllocs(mon, events); avg != 0 {
		t.Fatalf("lb-hashed steady state allocates %.2f/event, want 0", avg)
	}
}
