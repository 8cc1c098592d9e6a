// Package federation spreads the switch-side event stream across a
// fleet of collectors: a consistent-hash routing layer in front of N
// independent exporter links (one sequence space per route, so the
// collector's gap→wire-loss accounting stays exact per route), a
// membership/handoff protocol carried as fleet-kind wire.Config frames,
// judged by one high water per switch, with a replay-based drain fence,
// and an aggregation tier that merges per-collector counters, ledgers,
// state reports, and violation streams into fleet-wide endpoints.
package federation

import (
	"fmt"
	"math"
	"sort"
)

// Member is one collector endpoint in the fleet. Weight is relative
// capacity; zero means 1.0. Members compare by Addr.
type Member struct {
	Addr   string  `json:"addr"`
	Weight float64 `json:"weight,omitempty"`
}

// Ring is a weighted rendezvous (highest-random-weight) hash over the
// fleet members. Owner is a pure function of (key, member set): no
// internal randomness, no map-iteration order, no construction-order
// dependence — two processes building a Ring from the same member set
// route every key identically. Rendezvous hashing gives the minimal-
// disruption property directly: removing a member remaps only the keys
// it owned, and adding one steals only the keys it now wins.
type Ring struct {
	members []ringMember
}

type ringMember struct {
	addr   string
	seed   uint64
	weight float64
}

// NewRing builds a ring over the given members. Duplicate addresses
// and non-positive explicit weights are rejected; an empty member set
// is allowed (Owner returns "" until a fleet config arrives).
func NewRing(members []Member) (*Ring, error) {
	r := &Ring{members: make([]ringMember, 0, len(members))}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Addr == "" {
			return nil, fmt.Errorf("federation: ring member with empty addr")
		}
		if seen[m.Addr] {
			return nil, fmt.Errorf("federation: duplicate ring member %q", m.Addr)
		}
		seen[m.Addr] = true
		w := m.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("federation: ring member %q has invalid weight %v", m.Addr, m.Weight)
		}
		r.members = append(r.members, ringMember{addr: m.Addr, seed: fnv64a(m.Addr), weight: w})
	}
	// Sorted order is not needed for Owner (rendezvous is order-free)
	// but keeps Members() and tie-breaks deterministic.
	sort.Slice(r.members, func(i, j int) bool { return r.members[i].addr < r.members[j].addr })
	return r, nil
}

// Owner maps a partition key onto the member that owns it, or "" when
// the ring is empty.
func (r *Ring) Owner(key uint64) string {
	best := ""
	bestScore := math.Inf(-1)
	for i := range r.members {
		m := &r.members[i]
		if s := score(key, m.seed, m.weight); s > bestScore {
			bestScore = s
			best = m.addr
		}
	}
	return best
}

// Members returns the member set in deterministic (address) order.
func (r *Ring) Members() []Member {
	out := make([]Member, len(r.members))
	for i, m := range r.members {
		out[i] = Member{Addr: m.addr, Weight: m.weight}
	}
	return out
}

// Size reports the number of members.
func (r *Ring) Size() int { return len(r.members) }

// score is the weighted rendezvous score for (key, member): the
// logarithm method maps the member's hash of the key onto (0,1) and
// scales by capacity, so a weight-2 member wins ~2x the keyspace of a
// weight-1 member while staying minimally disruptive on membership
// change.
func score(key, seed uint64, weight float64) float64 {
	h := mix64(key ^ rotl(seed, 31))
	// 53 high bits → uniform float in (0,1); the +0.5 keeps it off 0.
	h01 := (float64(h>>11) + 0.5) / (1 << 53)
	return -weight / math.Log(h01)
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// fnv64a hashes a member address to its per-member seed.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
