package core

import (
	"switchmon/internal/packet"
	"switchmon/internal/sim"
)

// The instance store: every partially completed violation pattern
// (Feature 8's "instance") is one pointer-free row in a per-monitor slab,
// addressed by a uint32. A stage bucket finds rows through two
// open-addressed tables (dedup signature -> row, index key -> row) and
// rows that share a key are chained through link fields inside the rows
// themselves, so filing, probing and unfiling touch no map, allocate
// nothing and leave nothing for the garbage collector to trace. This is
// the paper's Static Varanus shape (Sec. 3.3) made literal: one bounded
// table per stage, constant work per packet.

const (
	// rowWords is the state a row carries: the property's variables, one
	// word each in compile-assigned slot order, then one word per stage
	// whose PacketID a later stage's same-packet constraint refers to.
	// compile rejects a property that needs more.
	rowWords = 10
	// rowKeys is how many index and guard keys one instance can be filed
	// under. compile demotes the keyed guards (then the index groups) of a
	// stage that would need more to bucket scans, so this bounds speed,
	// never what can be expressed.
	rowKeys = 6
	// maxStages is the longest pattern a row's stage counter can follow.
	maxStages = 255

	// Slab chunks are fixed-size, so a row never moves once allocated (a
	// re-entrant HandleEvent from an OnViolation callback may grow the slab
	// under a caller still holding a *row) and the slack is at most one
	// chunk.
	chunkBits = 7
	chunkRows = 1 << chunkBits
)

// rowState says where a row is in its life.
type rowState uint8

const (
	// rowFree rows sit on the slab's free chain.
	rowFree rowState = iota
	// rowInFlight rows are allocated but in no bucket: being created or
	// moving between stages inside one engine step.
	rowInFlight
	// rowFiled rows wait in exactly one stage bucket.
	rowFiled
)

// Row flags.
const (
	// rowArmed: the row has a live deadline (a FIFO queue entry carrying
	// its current generation, or a scheduler timer for a variable window).
	rowArmed uint8 = 1 << iota
	// rowDeadlineAdvances: the deadline is a negative observation's — it
	// advances the instance (Feature 7) — rather than a window's expiry.
	rowDeadlineAdvances
)

// link is one row's place in a doubly linked chain of rows. next is 0 at
// the tail; the head's prev is the tail, which makes appending O(1)
// without a tail pointer in the table.
type link struct{ next, prev uint32 }

// row is one instance. It holds no pointer: string-valued variables live
// in the store's string arena and a slot holds their arena index.
type row struct {
	// sig is the dedup signature the row is filed under (0 while unfiled).
	sig uint64
	// lastEventSeq is the last event that acted on the row, so one event
	// advances an instance at most once; lastCandSeq dedups a row reachable
	// through several index keys of the same event.
	lastEventSeq uint64
	lastCandSeq  uint64
	// w holds the variable slots, then the identity PacketIDs.
	w [rowWords]uint64
	// keys are the index and guard keys the row is filed under and links
	// its place in each key's chain.
	keys  [rowKeys]uint64
	links [rowKeys]link
	// sigNext chains rows whose distinct identities share one 64-bit
	// signature.
	sigNext uint32
	// pop is the row's place in its bucket's population list, in filing
	// order. On a free row pop.next is the free chain.
	pop link
	// gen is the deadline generation: arming stamps it into the queue
	// entry, and every cancel, refresh and release bumps it, so a stale
	// entry never matches. inc counts the row's incarnations; the
	// MaxInstances FIFO pins it so a reference to a recycled row is stale.
	gen uint32
	inc uint32
	// count is a counting stage's progress (MinCount > 1).
	count uint32
	prop  uint16
	// strMask has bit i set when w[i] is a string-arena index.
	strMask uint16
	stage   uint8
	nkeys   uint8
	state   rowState
	flags   uint8
}

// keyIndex finds which of the row's keys is k.
func (r *row) keyIndex(k uint64) int {
	for i := 0; i < int(r.nkeys); i++ {
		if r.keys[i] == k {
			return i
		}
	}
	return -1
}

// store is a monitor's instance memory: the row slab, the string arena
// and the side columns that exist only for the features that need them.
type store struct {
	chunks []*[chunkRows]row
	// n is the number of row ids handed out so far; id 0 is reserved as
	// "no row", so ids run 1..n.
	n uint32
	// free heads the chain of released rows; nfree counts them.
	free  uint32
	nfree int
	strs  strArena
	// hist holds provenance records (ProvFull only), seen the distinct
	// values of a CountDistinct stage, and varTimers the scheduler handle
	// of a variable-window deadline. Each is indexed by row id and grown
	// only when its feature is first used.
	hist      sideCol[[]ProvRecord]
	seen      sideCol[map[packet.Value]bool]
	varTimers sideCol[*sim.Timer]
}

// at returns the row with the given id.
func (s *store) at(id uint32) *row { return &s.chunks[id>>chunkBits][id&(chunkRows-1)] }

// alloc hands out an in-flight row: the head of the free chain, or the
// next never-used id (growing the slab by one chunk when it is full).
// recycled reports which.
func (s *store) alloc() (id uint32, r *row, recycled bool) {
	if id = s.free; id != 0 {
		r = s.at(id)
		s.free = r.pop.next
		s.nfree--
		r.pop = link{}
		recycled = true
	} else {
		s.n++
		id = s.n
		if int(id>>chunkBits) >= len(s.chunks) {
			s.chunks = append(s.chunks, new([chunkRows]row))
		}
		r = s.at(id)
	}
	r.state = rowInFlight
	r.inc++
	return id, r, recycled
}

// release returns an unfiled row to the free chain, dropping its strings
// and side-column contents. Bumping gen is what retires any deadline
// entry still naming the row.
func (s *store) release(id uint32, r *row) {
	s.clearStrings(r)
	if int(id) < len(s.hist) {
		s.hist[id] = s.hist[id][:0]
	}
	if int(id) < len(s.seen) {
		s.seen[id] = nil
	}
	r.gen++
	r.count = 0
	r.flags = 0
	r.state = rowFree
	r.pop = link{next: s.free}
	s.free = id
	s.nfree++
}

// clearStrings drops the arena strings a row's slots refer to.
func (s *store) clearStrings(r *row) {
	for i := 0; r.strMask != 0; i++ {
		if bit := uint16(1) << uint(i); r.strMask&bit != 0 {
			s.strs.drop(uint32(r.w[i]))
			r.strMask &^= bit
		}
	}
}

// value reads slot i of a row.
func (s *store) value(r *row, i int) packet.Value {
	if r.strMask&(1<<uint(i)) != 0 {
		return packet.Str(s.strs.vals[r.w[i]])
	}
	return packet.Num(r.w[i])
}

// setValue writes slot i of a row.
func (s *store) setValue(r *row, i int, v packet.Value) {
	bit := uint16(1) << uint(i)
	if r.strMask&bit != 0 {
		s.strs.drop(uint32(r.w[i]))
		r.strMask &^= bit
	}
	if v.IsStr() {
		r.w[i] = uint64(s.strs.hold(v.Text()))
		r.strMask |= bit
		return
	}
	r.w[i] = v.Uint64()
}

// sameIdentity reports whether two rows hold equal values in the given
// words — a stage's identity: its bound variables and identity PacketIDs.
func (s *store) sameIdentity(a, b *row, words []uint8) bool {
	for _, i := range words {
		bit := uint16(1) << i
		if (a.strMask^b.strMask)&bit != 0 {
			return false
		}
		if a.w[i] != b.w[i] && (a.strMask&bit == 0 || s.strs.vals[a.w[i]] != s.strs.vals[b.w[i]]) {
			return false
		}
	}
	return true
}

// strArena holds the string values rows refer to by index. Only
// properties binding dns.qname or ftp.command ever put anything in it.
type strArena struct {
	vals []string
	free []uint32
}

func (a *strArena) hold(s string) uint32 {
	if n := len(a.free); n > 0 {
		i := a.free[n-1]
		a.free = a.free[:n-1]
		a.vals[i] = s
		return i
	}
	a.vals = append(a.vals, s)
	return uint32(len(a.vals) - 1)
}

func (a *strArena) drop(i uint32) {
	a.vals[i] = ""
	a.free = append(a.free, i)
}

// sideCol is a column of per-row data kept outside the rows, indexed by
// row id and grown on first use of an id.
type sideCol[T any] []T

func (c *sideCol[T]) at(id uint32) *T {
	for int(id) >= len(*c) {
		var zero T
		*c = append(*c, zero)
	}
	return &(*c)[id]
}

// --- Open-addressed tables ---------------------------------------------------

// tabEnt maps one 64-bit key to the first row filed under it; head 0
// marks an empty slot.
type tabEnt struct {
	key  uint64
	head uint32
}

// table is a linear-probing hash table from key to head row. It starts
// empty, doubles at three-quarters full, and deletes by backward shift,
// so it holds no tombstones and a probe ends at the first empty slot.
type table struct {
	ents []tabEnt
	n    int
}

// home is the slot a key's probe sequence starts at. Keys are FNV states
// whose low bits are their weakest, so multiply and take the top bits.
func (t *table) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> 32 & uint64(len(t.ents)-1))
}

// lookup returns the index of key's entry, or -1 when the key is absent.
// Indexes are valid until the next acquire or delAt.
func (t *table) lookup(key uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.ents) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if t.ents[i].head == 0 {
			return -1
		}
		if t.ents[i].key == key {
			return i
		}
	}
}

// head returns the first row filed under key, 0 when there is none.
func (t *table) head(key uint64) uint32 {
	if i := t.lookup(key); i >= 0 {
		return t.ents[i].head
	}
	return 0
}

// acquire returns the index of key's entry, inserting the key when it is
// absent — the caller then finds head 0 there and must set it before the
// next table operation.
func (t *table) acquire(key uint64) int {
	if (t.n+1)*4 > len(t.ents)*3 {
		t.grow()
	}
	mask := len(t.ents) - 1
	i := t.home(key)
	for t.ents[i].head != 0 {
		if t.ents[i].key == key {
			return i
		}
		i = (i + 1) & mask
	}
	t.ents[i].key = key
	t.n++
	return i
}

func (t *table) grow() {
	old := t.ents
	size := 2 * len(old)
	if size == 0 {
		size = 8
	}
	t.ents = make([]tabEnt, size)
	mask := size - 1
	for _, e := range old {
		if e.head == 0 {
			continue
		}
		i := t.home(e.key)
		for t.ents[i].head != 0 {
			i = (i + 1) & mask
		}
		t.ents[i] = e
	}
}

// delAt removes entry i, shifting later entries of its probe run back so
// no run is broken by the hole.
func (t *table) delAt(i int) {
	mask := len(t.ents) - 1
	for j := i; ; {
		j = (j + 1) & mask
		if t.ents[j].head == 0 {
			break
		}
		// An entry whose home lies cyclically in (i, j] is still reachable
		// past the hole; anything else moves into it.
		k := t.home(t.ents[j].key)
		if i <= j {
			if i < k && k <= j {
				continue
			}
		} else if i < k || k <= j {
			continue
		}
		t.ents[i] = t.ents[j]
		i = j
	}
	t.ents[i] = tabEnt{}
	t.n--
}

// --- Stage buckets -----------------------------------------------------------

// bucket holds the instances of one property waiting at one stage.
type bucket struct {
	// sigs maps a dedup signature to the rows filed under it (more than
	// one only when distinct identities collide in 64 bits; they chain
	// through row.sigNext). keys maps an index or guard key to the head of
	// that key's chain.
	sigs table
	keys table
	// head and tail bound the population list, in filing order; n is its
	// length.
	head, tail uint32
	n          int
	// suppressed holds instance signatures permanently discharged by
	// sticky guards; entering instances with these signatures are dropped.
	suppressed map[uint64]bool
	// dq is the stage's deadline queue, nil unless the stage has a static
	// window.
	dq *deadlineQueue
}

// findSig returns the row filed under sig whose identity words equal
// q's, or 0. A signature hit is a hint, never identity: header fields are
// chosen by the sender, so the values themselves are compared and rows
// whose distinct identities collide in 64 bits coexist on the sig chain.
func (b *bucket) findSig(s *store, sig uint64, q *row, words []uint8) uint32 {
	for id := b.sigs.head(sig); id != 0; {
		r := s.at(id)
		if s.sameIdentity(r, q, words) {
			return id
		}
		id = r.sigNext
	}
	return 0
}

// file places an in-flight row in the bucket under sig and keys: the
// signature table, one chain per distinct key, and the tail of the
// population list.
func (b *bucket) file(s *store, id uint32, sig uint64, keys []uint64) {
	r := s.at(id)
	r.state = rowFiled
	r.sig = sig
	sh := &b.sigs.ents[b.sigs.acquire(sig)].head
	r.sigNext, *sh = *sh, id
	r.nkeys = 0
	for _, k := range keys {
		if r.keyIndex(k) >= 0 {
			continue // two of the row's own keys collided: one chain entry finds it
		}
		i := r.nkeys
		r.nkeys++
		r.keys[i] = k
		kh := &b.keys.ents[b.keys.acquire(k)].head
		if *kh == 0 {
			*kh = id
			r.links[i] = link{prev: id}
			continue
		}
		h := s.at(*kh)
		hi := h.keyIndex(k)
		tailID := h.links[hi].prev
		t := s.at(tailID)
		t.links[t.keyIndex(k)].next = id
		r.links[i] = link{prev: tailID}
		h.links[hi].prev = id
	}
	r.pop = link{prev: b.tail}
	if b.tail != 0 {
		s.at(b.tail).pop.next = id
	} else {
		b.head = id
	}
	b.tail = id
	b.n++
}

// unfile takes a filed row out of the bucket, leaving it in flight.
func (b *bucket) unfile(s *store, id uint32) {
	r := s.at(id)
	si := b.sigs.lookup(r.sig)
	switch sh := &b.sigs.ents[si].head; {
	case *sh != id:
		p := s.at(*sh)
		for p.sigNext != id {
			p = s.at(p.sigNext)
		}
		p.sigNext = r.sigNext
	case r.sigNext == 0:
		b.sigs.delAt(si)
	default:
		*sh = r.sigNext
	}
	r.sig, r.sigNext = 0, 0
	for i := 0; i < int(r.nkeys); i++ {
		k, l := r.keys[i], r.links[i]
		ki := b.keys.lookup(k)
		hp := &b.keys.ents[ki].head
		switch {
		case *hp != id:
			// Interior or tail: the predecessor skips the row; the successor,
			// or the head when the row was the tail, takes its prev.
			p := s.at(l.prev)
			p.links[p.keyIndex(k)].next = l.next
			nx := *hp
			if l.next != 0 {
				nx = l.next
			}
			n := s.at(nx)
			n.links[n.keyIndex(k)].prev = l.prev
		case l.next == 0:
			b.keys.delAt(ki)
		default:
			// Head with a successor: it becomes the head and inherits the
			// tail pointer.
			*hp = l.next
			n := s.at(l.next)
			n.links[n.keyIndex(k)].prev = l.prev
		}
	}
	r.nkeys = 0
	if r.pop.prev != 0 {
		s.at(r.pop.prev).pop.next = r.pop.next
	} else {
		b.head = r.pop.next
	}
	if r.pop.next != 0 {
		s.at(r.pop.next).pop.prev = r.pop.prev
	} else {
		b.tail = r.pop.prev
	}
	r.pop = link{}
	r.state = rowInFlight
	b.n--
}

// chainNext steps along key k's chain from row r.
func (r *row) chainNext(k uint64) uint32 { return r.links[r.keyIndex(k)].next }

// walk names one list of a bucket's rows to visit: the chain filed under
// key, or — all set — the whole population in filing order.
type walk struct {
	key uint64
	all bool
}

// first returns the first row of the walk, 0 when it is empty.
func (b *bucket) first(w walk) uint32 {
	if w.all {
		return b.head
	}
	return b.keys.head(w.key)
}

// after returns the row following r on the walk, 0 at its end.
func (r *row) after(w walk) uint32 {
	if w.all {
		return r.pop.next
	}
	return r.chainNext(w.key)
}
