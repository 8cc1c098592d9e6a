package core

import "fmt"

// SelfCheck verifies the store's invariants: every filed row is reachable
// exactly once from its bucket's population list, from the signature
// table and from each of its key chains; no table, chain or list reaches
// a row that is not filed there; the free chain holds exactly the free
// rows; live and free rows make up the slab, none left in flight; and every
// armed row has exactly one live deadline (a queue entry carrying its
// generation, or a scheduler timer). Tests call it after workloads; it is
// cheap enough to run in differential tests but not called on the hot
// path.
func (m *Monitor) SelfCheck() error {
	s := &m.st
	filed := 0
	for pi, bs := range m.buckets {
		for si := range bs {
			n, err := m.checkBucket(pi, si, &bs[si])
			if err != nil {
				return fmt.Errorf("core: property %d stage %d: %w", pi, si, err)
			}
			filed += n
		}
	}
	if live := m.live.Load(); int64(filed) != live {
		return fmt.Errorf("core: live counter %d != filed instances %d", live, filed)
	}
	free := 0
	for id := s.free; id != 0; id = s.at(id).pop.next {
		if s.at(id).state != rowFree {
			return fmt.Errorf("core: row %d on the free chain is not free", id)
		}
		if free++; free > int(s.n) {
			return fmt.Errorf("core: free chain loops")
		}
	}
	if free != s.nfree {
		return fmt.Errorf("core: free chain holds %d rows, counter says %d", free, s.nfree)
	}
	var states [3]int
	armed := 0
	for id := uint32(1); id <= s.n; id++ {
		r := s.at(id)
		states[r.state]++
		if r.flags&rowArmed != 0 {
			if r.state != rowFiled {
				return fmt.Errorf("core: row %d is armed but not filed", id)
			}
			armed++
		}
	}
	if states[rowFiled] != filed || states[rowFree] != free || states[rowInFlight] != 0 {
		return fmt.Errorf("core: slab of %d rows has %d filed, %d free, %d in flight; buckets hold %d, free chain %d",
			s.n, states[rowFiled], states[rowFree], states[rowInFlight], filed, free)
	}
	queued := 0
	for _, q := range m.dl.queues {
		live := 0
		for _, d := range q.items[q.head:] {
			if r := s.at(d.row); r.gen == d.gen {
				if r.flags&rowArmed == 0 {
					return fmt.Errorf("core: live deadline for row %d, which is not armed", d.row)
				}
				live++
			}
		}
		if live != q.live {
			return fmt.Errorf("core: deadline queue holds %d live entries, counter says %d", live, q.live)
		}
		queued += live
	}
	if queued != m.dl.live {
		return fmt.Errorf("core: %d queued deadlines, counter says %d", queued, m.dl.live)
	}
	timers := 0
	for id, t := range s.varTimers {
		if t != nil {
			if s.at(uint32(id)).flags&rowArmed == 0 {
				return fmt.Errorf("core: timer held for row %d, which is not armed", id)
			}
			timers++
		}
	}
	if queued+timers != armed {
		return fmt.Errorf("core: %d armed rows but %d queued deadlines and %d timers", armed, queued, timers)
	}
	return nil
}

// checkBucket verifies one bucket and returns its population.
func (m *Monitor) checkBucket(pi, si int, b *bucket) (int, error) {
	s := &m.st
	n, keyLinks := 0, 0
	var prev uint32
	for id := b.head; id != 0; id = s.at(id).pop.next {
		r := s.at(id)
		if r.state != rowFiled || int(r.prop) != pi || int(r.stage) != si {
			return 0, fmt.Errorf("population list reaches row %d (state %d, property %d, stage %d)", id, r.state, r.prop, r.stage)
		}
		if r.pop.prev != prev {
			return 0, fmt.Errorf("row %d: population back-link %d, want %d", id, r.pop.prev, prev)
		}
		if r.sig == 0 {
			return 0, fmt.Errorf("row %d has no signature", id)
		}
		if b.findSig(s, r.sig, r, m.props[pi].stages[si].idWords) != id {
			return 0, fmt.Errorf("row %d is not the row its signature and identity find", id)
		}
		for i := 0; i < int(r.nkeys); i++ {
			k, found := r.keys[i], 0
			for c := b.keys.head(k); c != 0; c = s.at(c).chainNext(k) {
				if c == id {
					found++
				}
			}
			if found != 1 {
				return 0, fmt.Errorf("row %d found %d times under index key %#x", id, found, k)
			}
		}
		keyLinks += int(r.nkeys)
		prev = id
		if n++; n > b.n {
			break
		}
	}
	if n != b.n || prev != b.tail {
		return 0, fmt.Errorf("population list has %d rows ending at %d; bucket says %d ending at %d", n, prev, b.n, b.tail)
	}
	// Every filed row was found in the tables above; equal totals mean the
	// tables hold nothing else — no ghost, no free row.
	sigRows, sigKeys := 0, 0
	for _, e := range b.sigs.ents {
		if e.head == 0 {
			continue
		}
		sigKeys++
		for c := e.head; c != 0; c = s.at(c).sigNext {
			if sigRows++; sigRows > b.n {
				return 0, fmt.Errorf("signature %#x chains more rows than the bucket holds", e.key)
			}
		}
	}
	if sigRows != b.n || sigKeys != b.sigs.n {
		return 0, fmt.Errorf("signature table reaches %d rows under %d keys; bucket holds %d, table counts %d keys", sigRows, sigKeys, b.n, b.sigs.n)
	}
	chained, chainKeys := 0, 0
	for _, e := range b.keys.ents {
		if e.head == 0 {
			continue
		}
		chainKeys++
		var last uint32
		for c := e.head; c != 0; c = s.at(c).chainNext(e.key) {
			r := s.at(c)
			if r.keyIndex(e.key) < 0 {
				return 0, fmt.Errorf("index key %#x reaches row %d, which is not filed under it", e.key, c)
			}
			if chained++; chained > keyLinks {
				return 0, fmt.Errorf("index key %#x chains more rows than are filed", e.key)
			}
			last = c
		}
		h := s.at(e.head)
		if tail := h.links[h.keyIndex(e.key)].prev; tail != last {
			return 0, fmt.Errorf("index key %#x: head names tail %d, chain ends at %d", e.key, tail, last)
		}
	}
	if chained != keyLinks || chainKeys != b.keys.n {
		return 0, fmt.Errorf("index chains hold %d rows under %d keys; rows hold %d keys, table counts %d keys", chained, chainKeys, keyLinks, b.keys.n)
	}
	return n, nil
}
