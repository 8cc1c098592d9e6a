package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"switchmon/internal/packet"
	"switchmon/internal/property"
)

// cpred is a predicate with its variable operand resolved to a row slot,
// so evaluating it hashes no variable name.
type cpred struct {
	property.Pred
	// slot is Arg.Var's slot when the operand is a variable.
	slot int
}

// cbind captures an event field into a slot.
type cbind struct {
	slot  int
	field packet.Field
}

// compiledStage precomputes per-stage matching machinery.
type compiledStage struct {
	st    *property.Stage
	preds []cpred
	anyOf [][]cpred
	binds []cbind
	// indexGroups are the index key schemas (Feature 8): one group of the
	// top-level equality-against-variable predicates when there are any,
	// otherwise one per AnyOf alternative (each alternative must pin at
	// least one variable, or the stage falls back to scanning). An instance
	// is filed under one key per group; an event's candidates are the union
	// of the groups' lookups.
	indexGroups [][]cpred
	// pidIndex indexes by the concrete PacketID of the same-packet
	// constraint when no value keys are available — identity (Feature 5)
	// is itself a perfect instance key.
	pidIndex bool
	// samePacketWord is the row word holding the PacketID this stage's
	// event must share (SamePacketAs), ownPacketWord the word this stage's
	// own matched PacketID is kept in because a later stage refers to it;
	// -1 when there is none.
	samePacketWord int
	ownPacketWord  int
	// guardIdx compiles the stage's obligation guards with their own
	// equality-on-variable key schemas, so the guard pass is indexed too.
	guardIdx []guardIndex
	// stickyGuards are the stage's permanent-discharge guards, with the
	// field each pinned variable is synthesized from.
	stickyGuards []stickyGuard
	// idWords are the row words that identify an instance waiting at this
	// stage: the slots of every variable bound by earlier stages, then the
	// identity PacketIDs of earlier stages. The dedup signature hashes
	// them and a signature hit is confirmed by comparing them.
	idWords []uint8
	// nbound is how many variables earlier stages have bound: slots are
	// assigned in first-binding order, so those are slots [0, nbound).
	nbound int
	// windowSlot is WindowVar's slot.
	windowSlot int
}

// guardIndex is one compiled obligation guard plus its index keys.
type guardIndex struct {
	class  property.EventClass
	sticky bool
	preds  []cpred
	// eq are the guard's equality-against-variable predicates; empty
	// means the guard pass must scan the whole bucket.
	eq []cpred
	// keyBase seeds the guard's key space (guardKeyBase of its position).
	keyBase uint64
	// gate are the guard's literal-operand predicates: with class, the
	// half of the guard no row can change, tested once per event.
	gate []cpred
}

// stickyGuard is a compiled permanent-discharge guard.
type stickyGuard struct {
	class property.EventClass
	// pins give, for each pinned variable, its slot and the event field
	// carrying its value (validated to cover every bound variable).
	pins []cbind
	// rest are the guard's non-pinning predicates, checked literally.
	rest []cpred
	// gate are rest's literal-operand predicates, tested before any pin is
	// read.
	gate []cpred
}

// literalPreds selects the predicates whose operand is a literal: their
// truth depends on the event alone, never on a row or a hash.
func literalPreds(preds []cpred) []cpred {
	var lit []cpred
	for _, pr := range preds {
		if pr.Arg.Kind == property.OperandLit {
			lit = append(lit, pr)
		}
	}
	return lit
}

// compiledProp is a property prepared for execution.
type compiledProp struct {
	prop   *property.Property
	stages []compiledStage
	// vars lists the property's variables in slot order.
	vars []property.Var
	// byName lists the slots in variable-name order: the order of a
	// report's bindings, sorted here once so no report sorts.
	byName []int
	// plan is the static sharding analysis: whether the property's index
	// groups yield a stable shard key, and from which event fields that
	// key is computed at each addressing path.
	plan shardPlan
	// timeoutTrigger is the report trigger of a violation completed by the
	// final stage's deadline: set when that stage is a negative observation.
	timeoutTrigger string
}

// compile validates and prepares a property: every variable gets a row
// slot, every stage a later same-packet constraint refers to gets a row
// word for its PacketID, and every predicate is rewritten against them.
func compile(p *property.Property) (*compiledProp, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp := &compiledProp{prop: p, vars: p.Vars()}
	slotOf := make(map[property.Var]int, len(cp.vars))
	for i, v := range cp.vars {
		slotOf[v] = i
		cp.byName = append(cp.byName, i)
	}
	slices.SortFunc(cp.byName, func(a, b int) int { return cmp.Compare(cp.vars[a], cp.vars[b]) })
	packetWord := make([]int, len(p.Stages))
	words := len(cp.vars)
	for i := range packetWord {
		packetWord[i] = -1
	}
	for i := range p.Stages {
		if ref := p.Stages[i].SamePacketAs; ref >= 0 && packetWord[ref] < 0 {
			packetWord[ref] = words
			words++
		}
	}
	if len(p.Stages) > maxStages {
		return nil, fmt.Errorf("core: property %s has %d stages; an instance row counts up to %d", p.Name, len(p.Stages), maxStages)
	}
	if words > rowWords {
		return nil, fmt.Errorf("core: property %s needs %d state words (%d variables, %d packet identities); an instance row holds %d",
			p.Name, words, len(cp.vars), words-len(cp.vars), rowWords)
	}
	resolve := func(preds []property.Pred) []cpred {
		out := make([]cpred, len(preds))
		for i, pr := range preds {
			out[i] = cpred{Pred: pr}
			if pr.Arg.IsVar() {
				out[i].slot = slotOf[pr.Arg.Var]
			}
		}
		return out
	}
	eqVar := func(preds []cpred) []cpred {
		var eq []cpred
		for _, pr := range preds {
			if pr.Op == property.OpEq && pr.Arg.IsVar() {
				eq = append(eq, pr)
			}
		}
		return eq
	}
	nbound := 0
	for i := range p.Stages {
		st := &p.Stages[i]
		cs := compiledStage{
			st: st, preds: resolve(st.Preds), nbound: nbound,
			samePacketWord: -1, ownPacketWord: packetWord[i],
		}
		for w := 0; w < nbound; w++ {
			cs.idWords = append(cs.idWords, uint8(w))
		}
		for j := 0; j < i; j++ {
			if packetWord[j] >= 0 {
				cs.idWords = append(cs.idWords, uint8(packetWord[j]))
			}
		}
		if st.SamePacketAs >= 0 {
			cs.samePacketWord = packetWord[st.SamePacketAs]
		}
		if st.WindowVar != "" {
			cs.windowSlot = slotOf[st.WindowVar]
		}
		for _, g := range st.AnyOf {
			cs.anyOf = append(cs.anyOf, resolve(g))
		}
		for _, b := range st.Binds {
			cs.binds = append(cs.binds, cbind{slot: slotOf[b.Var], field: b.Field})
			if slotOf[b.Var] == nbound {
				nbound++
			}
		}
		if eq := eqVar(cs.preds); len(eq) > 0 {
			cs.indexGroups = [][]cpred{eq}
		} else if len(cs.anyOf) > 0 {
			groups := make([][]cpred, 0, len(cs.anyOf))
			for _, g := range cs.anyOf {
				eq := eqVar(g)
				if len(eq) == 0 {
					groups = nil
					break
				}
				groups = append(groups, eq)
			}
			cs.indexGroups = groups
		}
		if len(cs.indexGroups) > rowKeys {
			cs.indexGroups = nil
		}
		if len(cs.indexGroups) == 0 && st.SamePacketAs >= 0 {
			cs.pidIndex = true
		}
		nkeys := len(cs.indexGroups)
		if cs.pidIndex {
			nkeys = 1
		}
		for _, g := range st.Until {
			preds := resolve(g.Preds)
			gi := guardIndex{class: g.Class, sticky: g.Sticky, preds: preds, gate: literalPreds(preds)}
			// A row has room for rowKeys keys; guards past that scan.
			if eq := eqVar(preds); len(eq) > 0 && nkeys < rowKeys {
				gi.eq, gi.keyBase = eq, guardKeyBase(len(cs.guardIdx))
				nkeys++
			}
			cs.guardIdx = append(cs.guardIdx, gi)
			if !g.Sticky {
				continue
			}
			sg := stickyGuard{class: g.Class}
			for _, pr := range preds {
				if pr.Op == property.OpEq && pr.Arg.IsVar() {
					sg.pins = append(sg.pins, cbind{slot: pr.slot, field: pr.Field})
				} else {
					sg.rest = append(sg.rest, pr)
				}
			}
			sg.gate = literalPreds(sg.rest)
			cs.stickyGuards = append(cs.stickyGuards, sg)
		}
		cp.stages = append(cp.stages, cs)
	}
	if last := &p.Stages[len(p.Stages)-1]; last.Negative {
		cp.timeoutTrigger = "timeout: no event matched " + strconv.Quote(last.Label) + " within the window"
	}
	cp.plan = analyzeSharding(cp)
	return cp, nil
}

// classMatches reports whether the event satisfies the stage's class
// filter.
func classMatches(c property.EventClass, e *Event) bool {
	switch c {
	case property.AnyPacket:
		return e.Kind == KindArrival || e.Kind == KindEgress
	case property.Arrival:
		return e.Kind == KindArrival
	case property.Egress:
		return e.Kind == KindEgress
	case property.OutOfBand:
		return e.Kind == KindOutOfBand
	default:
		return false
	}
}

// env is the variable environment predicates evaluate against: the row
// whose slots hold the bindings (nil at stage zero, where nothing is
// bound yet) and the store its string slots index into.
type env struct {
	r *row
	s *store
}

// resolveOperand evaluates a predicate's right-hand side against the
// current event and the instance environment. Validate guarantees a
// variable is bound before any stage that reads it.
func resolveOperand(pr *cpred, e *Event, en env) (packet.Value, bool) {
	switch pr.Arg.Kind {
	case property.OperandVar:
		return en.s.value(en.r, pr.slot), true
	case property.OperandHash:
		return hashOperand(pr.Arg.Hash, e)
	default:
		return pr.Arg.Lit, true
	}
}

// hashScratch is how many field values hashOperand gathers on the stack.
const hashScratch = 8

// hashOperand computes the symmetric hash of the spec fields on the
// current event. The values are sorted before mixing, so any permutation
// of the same value multiset (e.g. a flow and its reverse) hashes alike.
func hashOperand(h *property.HashSpec, e *Event) (packet.Value, bool) {
	var scratch [hashScratch]packet.Value
	vals := scratch[:0]
	if len(h.Fields) > hashScratch {
		vals = make([]packet.Value, 0, len(h.Fields))
	}
	for _, f := range h.Fields {
		v, ok := e.Field(f)
		if !ok {
			return packet.Value{}, false
		}
		vals = append(vals, v)
	}
	return packet.Num(h.Base + packet.HashSorted(vals)%h.Mod), true
}

// predHolds evaluates one predicate.
func predHolds(pr *cpred, e *Event, en env) bool {
	fv, ok := e.Field(pr.Field)
	if !ok {
		return false
	}
	arg, ok := resolveOperand(pr, e, en)
	if !ok {
		return false
	}
	return pr.Op.Compare(fv, arg)
}

// predsHold evaluates a conjunction.
func predsHold(preds []cpred, e *Event, en env) bool {
	for i := range preds {
		if !predHolds(&preds[i], e, en) {
			return false
		}
	}
	return true
}

// stagePatternMatches reports whether the event fits the stage's pattern:
// class, packet identity, all top-level predicates, at least one AnyOf
// group (if present), and availability of every bind field. en.r is the
// waiting instance (nil at stage zero).
func stagePatternMatches(cs *compiledStage, e *Event, en env) bool {
	st := cs.st
	if !classMatches(st.Class, e) {
		return false
	}
	if cs.samePacketWord >= 0 {
		if en.r == nil || e.PacketID == 0 || PacketID(en.r.w[cs.samePacketWord]) != e.PacketID {
			return false
		}
	}
	if !predsHold(cs.preds, e, en) {
		return false
	}
	if len(cs.anyOf) > 0 {
		matched := false
		for _, g := range cs.anyOf {
			if predsHold(g, e, en) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	for _, b := range cs.binds {
		if _, ok := e.Field(b.field); !ok {
			return false
		}
	}
	return true
}

// guardMatches reports whether the event discharges an instance via the
// given obligation guard (Feature 4).
func guardMatches(g *guardIndex, e *Event, en env) bool {
	return classMatches(g.class, e) && predsHold(g.preds, e, en)
}

// The index keys, dedup signatures, and shard routes below are all
// fixed-size 64-bit FNV-1a hashes instead of composite strings: building a
// string key costs one or more heap allocations per event, and the hot
// path (indexed steady state) must run allocation-free. A hash is never
// trusted as identity — header fields are the sender's to choose — so a
// signature hit is confirmed on the values (bucket.findSig) and a key hit
// by the stage's predicates; the byte stream fed to the hash still
// carries type and length tags so the adversarial delimiter cases
// (quick_test.go) cannot collide by construction.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvByte mixes one byte into an FNV-1a state.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// fnvU64 mixes a 64-bit value, little-endian, into an FNV-1a state.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

// fnvString mixes string bytes into an FNV-1a state.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// mix64 is a strong 64-bit finalizer (the murmur3 fmix64 bijection).
// Raw FNV-1a states must pass through it before being SUMMED into an
// order-invariant hash: FNV folds a byte as (h^b)*p, so two chains that
// differ only in correlated late bytes (say, the low bytes of a flow's
// src and dst) leave deltas multiplied by the same power of p, and those
// deltas can cancel in a sum — on structured address ranges most of the
// key space collapses. Avalanching each term first makes the terms
// independent, and sums of independent terms do not cancel structurally.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fnvValue mixes one field value, tagged by kind (and length for strings,
// so concatenation boundaries stay unambiguous).
func fnvValue(h uint64, v packet.Value) uint64 {
	if v.IsStr() {
		s := v.Text()
		h = fnvByte(h, 's')
		h = fnvU64(h, uint64(len(s)))
		return fnvString(h, s)
	}
	h = fnvByte(h, 'n')
	return fnvU64(h, v.Uint64())
}

// hashValues hashes a value slice — the uint64 replacement for the old
// string encodeValues. Exercised directly by the collision quick tests.
func hashValues(vals []packet.Value) uint64 {
	h := fnvOffset
	for _, v := range vals {
		h = fnvValue(h, v)
	}
	return h
}

// groupKeyBases seed the key spaces of a stage's index groups (compile
// caps a stage at rowKeys groups); distinct groups (and the other key
// namespaces below) mix a distinct tag byte so their key spaces cannot
// collide structurally. They are constants, hashed once here rather than
// per event.
var groupKeyBases = func() (bases [rowKeys]uint64) {
	for gi := range bases {
		bases[gi] = fnvU64(fnvByte(fnvOffset, 'g'), uint64(gi))
	}
	return bases
}()

// guardKeyBase seeds the key space of one obligation guard; compile
// stores it in the guard's keyBase.
func guardKeyBase(guard int) uint64 {
	return fnvU64(fnvByte(fnvOffset, 'u'), uint64(guard))
}

// pidKey builds the packet-identity index key.
func pidKey(pid PacketID) uint64 {
	return fnvU64(fnvByte(fnvOffset, 'p'), uint64(pid))
}

// eventIndexKeys computes, per index group, the key an event must hit,
// reading field values from the event, appending to keys (a caller-owned
// scratch slice). Groups whose fields the event does not carry are
// omitted (no instance filed there can match).
func eventIndexKeys(cs *compiledStage, e *Event, keys []uint64) []uint64 {
	if cs.pidIndex {
		if e.PacketID == 0 {
			return keys
		}
		return append(keys, pidKey(e.PacketID))
	}
	for gi, group := range cs.indexGroups {
		if h, ok := eventKey(groupKeyBases[gi], group, e); ok {
			keys = append(keys, h)
		}
	}
	return keys
}

// eventKey folds each predicate's field value from the event into the
// seeded hash state.
func eventKey(h uint64, preds []cpred, e *Event) (uint64, bool) {
	for i := range preds {
		v, ok := e.Field(preds[i].Field)
		if !ok {
			return 0, false
		}
		h = fnvValue(h, v)
	}
	return h, true
}

// instanceIndexKeys computes the keys under which a waiting instance is
// filed — one per index group (or the identity PacketID for pid-indexed
// stages), plus one per keyed obligation guard — appending to keys.
// compile bounds the count by rowKeys.
func instanceIndexKeys(cs *compiledStage, en env, keys []uint64) []uint64 {
	if cs.pidIndex {
		if pid := PacketID(en.r.w[cs.samePacketWord]); pid != 0 {
			keys = append(keys, pidKey(pid))
		}
	} else {
		for gi, group := range cs.indexGroups {
			keys = append(keys, envKey(groupKeyBases[gi], group, en))
		}
	}
	for ui := range cs.guardIdx {
		if g := &cs.guardIdx[ui]; len(g.eq) > 0 {
			keys = append(keys, envKey(g.keyBase, g.eq, en))
		}
	}
	return keys
}

// envKey folds each predicate's variable value from the environment into
// the seeded hash state.
func envKey(h uint64, preds []cpred, en env) uint64 {
	for i := range preds {
		h = fnvValue(h, en.s.value(en.r, preds[i].slot))
	}
	return h
}

// identityHash folds the given row words, in order, into the seeded hash
// state. Slots have a fixed order, so no order-invariant sum is needed.
func identityHash(h uint64, en env, words []uint8) uint64 {
	for _, w := range words {
		h = fnvValue(h, en.s.value(en.r, int(w)))
	}
	return h
}

// signature builds the instance-identity hash used for deduplication:
// the stage and its identity words (bound variables, then the PacketIDs
// of identity-relevant earlier stages). It is a hint, not identity — the
// bucket confirms a hit by comparing the words — and never zero: zero is
// the "no signature" sentinel on rows.
func (cp *compiledProp) signature(stage int, en env) uint64 {
	sig := fnvU64(fnvByte(fnvOffset, '@'), uint64(stage))
	sig = identityHash(sig, en, cp.stages[stage].idWords)
	if sig == 0 {
		sig = 1
	}
	return sig
}

// --- Static sharding analysis -----------------------------------------------

// shardRoute is one way an event can address instances of a property: a
// list of event fields, one per identity variable, whose value multiset
// equals the instance's identity-value multiset whenever the event
// matches that addressing path (an index group at some stage, a keyed
// obligation guard, or a sticky guard).
type shardRoute struct {
	fields []packet.Field
}

// shardPlan is the result of the per-property sharding analysis. A
// property is shardable when a non-empty set of identity variables V,
// bound at stage zero, is pinned by an equality-on-variable predicate in
// every addressing path of every later stage: then the order-invariant
// hash of the pinned fields' values routes every relevant event to the
// shard owning the instance, because on a match those values equal the
// instance's V-values by definition of the predicates. Properties that
// break this — wandering/multiple-match identities addressed by scans,
// packet-identity stages, guards without variable keys, or re-binding an
// identity variable — fall back to the designated catch-all shard.
type shardPlan struct {
	shardable bool
	// identityVars is V, in deterministic order.
	identityVars []property.Var
	// createFields are the stage-zero bind fields of V: the home shard of
	// a new instance is the hash of these field values on the creating
	// event.
	createFields []packet.Field
	// routes are the addressing paths of all later stages and guards.
	routes []shardRoute
}

// analyzeSharding derives the shard plan of a compiled property.
func analyzeSharding(cp *compiledProp) shardPlan {
	if len(cp.stages) == 0 {
		return shardPlan{}
	}
	st0 := cp.stages[0].st
	// Candidate V starts as every stage-zero-bound variable, in binding
	// order; paths that pin only a subset shrink it.
	var vs []property.Var
	bound := map[property.Var]packet.Field{}
	for _, b := range st0.Binds {
		if _, dup := bound[b.Var]; !dup {
			bound[b.Var] = b.Field
			vs = append(vs, b.Var)
		}
	}
	if len(vs) == 0 {
		return shardPlan{}
	}
	// pathPins collects, per addressing path, the pinned variable -> event
	// field maps; V shrinks to the intersection of all paths' pin sets.
	type path struct{ pins map[property.Var]packet.Field }
	var paths []path
	for si := 1; si < len(cp.stages); si++ {
		cs := &cp.stages[si]
		if cs.st.SamePacketAs >= 0 {
			return shardPlan{} // packet-identity addressing: no value key
		}
		for _, b := range cs.st.Binds {
			if _, isID := bound[b.Var]; isID {
				return shardPlan{} // re-binding an identity variable moves the key
			}
		}
		if len(cs.indexGroups) == 0 {
			return shardPlan{} // scan stage: the event cannot be routed
		}
		for _, group := range cs.indexGroups {
			pins := map[property.Var]packet.Field{}
			for _, pr := range group {
				if _, ok := pins[pr.Arg.Var]; !ok {
					pins[pr.Arg.Var] = pr.Field
				}
			}
			paths = append(paths, path{pins: pins})
		}
		for gi := range cs.guardIdx {
			g := &cs.guardIdx[gi]
			if g.sticky {
				continue // handled below via the synthesized environment
			}
			if len(g.eq) == 0 {
				return shardPlan{} // scan guard: the discharging event cannot be routed
			}
			pins := map[property.Var]packet.Field{}
			for _, pr := range g.eq {
				if _, ok := pins[pr.Arg.Var]; !ok {
					pins[pr.Arg.Var] = pr.Field
				}
			}
			paths = append(paths, path{pins: pins})
		}
		for _, sg := range cs.stickyGuards {
			pins := map[property.Var]packet.Field{}
			for _, pin := range sg.pins {
				pins[cp.vars[pin.slot]] = pin.field
			}
			paths = append(paths, path{pins: pins})
		}
	}
	// Shrink V to the variables every path pins.
	var ids []property.Var
	for _, v := range vs {
		pinned := true
		for _, p := range paths {
			if _, ok := p.pins[v]; !ok {
				pinned = false
				break
			}
		}
		if pinned {
			ids = append(ids, v)
		}
	}
	if len(ids) == 0 {
		return shardPlan{}
	}
	plan := shardPlan{shardable: true, identityVars: ids}
	for _, v := range ids {
		plan.createFields = append(plan.createFields, bound[v])
	}
	for _, p := range paths {
		r := shardRoute{fields: make([]packet.Field, 0, len(ids))}
		for _, v := range ids {
			r.fields = append(r.fields, p.pins[v])
		}
		plan.routes = append(plan.routes, r)
	}
	return plan
}

// routeHash computes the order-invariant identity hash of the given event
// fields: each value is hashed on its own and the hashes summed, so any
// field permutation carrying the same value multiset (a flow and its
// reverse under a symmetric property) lands on the same shard. ok is
// false when the event does not carry every field — no instance filed
// under this path can match such an event.
func routeHash(e *Event, fields []packet.Field) (uint64, bool) {
	var sum uint64
	for _, f := range fields {
		v, present := e.Field(f)
		if !present {
			return 0, false
		}
		sum += mix64(fnvValue(fnvOffset, v))
	}
	return sum, true
}
