package core

import (
	"time"

	"switchmon/internal/sim"
)

// Deadlines. A stage with a static window arms by appending to that
// (property, stage)'s FIFO queue: the deadline is Now()+Window with Now()
// monotone and Window one constant, so the queue is sorted by
// construction — for Feature 3's refreshed windows as much as for
// Feature 7's non-refreshing ones, because a refresh is a cancel plus a
// fresh arm at the tail. Cancelling is lazy: it bumps the row's
// generation and the entry is skipped when it surfaces. Arming and
// expiring are O(1), with no heap, no closure and no timer handle.
//
// The monitor's queues reach the scheduler as one sim.Source. Each entry
// carries the sequence number drawn from the scheduler when it was armed
// — the number the sim.Timer it replaces would have carried — so the
// scheduler's (time, seq) merge fires it exactly where that timer would
// have fired, ties against rule expiries, app replies and deliveries on a
// shared scheduler included.

// deadline is one armed window.
type deadline struct {
	at  time.Time
	seq uint64
	row uint32
	// gen is the row's generation at arming; the entry is live while the
	// row still carries it.
	gen uint32
}

// deadlineQueue is the FIFO of one (property, stage) with a static window.
type deadlineQueue struct {
	items []deadline
	// head indexes the oldest entry not yet popped; live counts entries
	// that are neither popped nor cancelled.
	head int
	live int
}

// push appends a deadline. When the backing array is full and more than
// half of it is dead — popped, or cancelled and not yet surfaced — the
// live entries are packed to the front instead of growing it.
func (q *deadlineQueue) push(s *store, d deadline) {
	if len(q.items) == cap(q.items) && len(q.items) > 2*q.live {
		n := 0
		for _, it := range q.items[q.head:] {
			if s.at(it.row).gen == it.gen {
				q.items[n] = it
				n++
			}
		}
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, d)
	q.live++
}

// peek returns the oldest live entry, discarding cancelled ones ahead of
// it.
func (q *deadlineQueue) peek(s *store) *deadline {
	for q.head < len(q.items) {
		d := &q.items[q.head]
		if s.at(d.row).gen == d.gen {
			return d
		}
		q.head++
	}
	q.items = q.items[:0]
	q.head = 0
	return nil
}

// deadlineSet is a monitor's deadline queues as one sim.Source.
type deadlineSet struct {
	m      *Monitor
	queues []*deadlineQueue
	// due is the queue whose head Next last reported.
	due *deadlineQueue
	// live counts armed deadlines across the queues.
	live int
}

var _ sim.Source = (*deadlineSet)(nil)

// Next implements sim.Source.
func (ds *deadlineSet) Next() (at time.Time, seq uint64, ok bool) {
	if ds.live == 0 {
		return at, 0, false
	}
	for _, q := range ds.queues {
		if q.live == 0 {
			continue
		}
		d := q.peek(&ds.m.st)
		if !ok || d.at.Before(at) || (d.at.Equal(at) && d.seq < seq) {
			at, seq, ok = d.at, d.seq, true
			ds.due = q
		}
	}
	return at, seq, ok
}

// Fire implements sim.Source: pop the due deadline, then act on it.
func (ds *deadlineSet) Fire() {
	q := ds.due
	id := q.items[q.head].row
	q.head++
	q.live--
	ds.live--
	ds.m.fireDeadline(id)
}

// Pending implements sim.Source.
func (ds *deadlineSet) Pending() int { return ds.live }

// drop forgets a removed property's queues.
func (ds *deadlineSet) drop(bs []bucket) {
	for i := range bs {
		if bs[i].dq == nil {
			continue
		}
		for j, q := range ds.queues {
			if q == bs[i].dq {
				ds.queues = append(ds.queues[:j], ds.queues[j+1:]...)
				break
			}
		}
	}
	ds.due = nil
}

// windowOf resolves a stage's window, static or variable.
func (m *Monitor) windowOf(cs *compiledStage, r *row) (time.Duration, bool) {
	if cs.st.Window > 0 {
		return cs.st.Window, true
	}
	if cs.st.WindowVar != "" {
		if r.strMask&(1<<uint(cs.windowSlot)) != 0 {
			return 0, false
		}
		return time.Duration(r.w[cs.windowSlot]) * time.Second, true
	}
	return 0, false
}

// arm sets the deadline of a row filed in b at stage cs: a queue entry for
// a static window, a scheduler timer for a variable one (WindowVar: the
// window is a bound value, so deadlines are not sorted by arming order and
// take the scheduler's general path).
func (m *Monitor) arm(id uint32, r *row, cs *compiledStage, b *bucket, d time.Duration) {
	r.flags |= rowArmed
	if cs.st.Negative {
		r.flags |= rowDeadlineAdvances
	}
	if b.dq == nil {
		*m.st.varTimers.at(id) = m.sched.After(d, func() { m.fireDeadline(id) })
		return
	}
	r.gen++
	b.dq.push(&m.st, deadline{at: m.sched.Now().Add(d), seq: m.sched.NextSeq(), row: id, gen: r.gen})
	m.dl.live++
}

// disarm cancels a row's live deadline.
func (m *Monitor) disarm(id uint32, r *row, b *bucket) {
	r.flags &^= rowArmed | rowDeadlineAdvances
	if b.dq == nil {
		tp := m.st.varTimers.at(id)
		(*tp).Stop()
		*tp = nil
		return
	}
	r.gen++
	b.dq.live--
	m.dl.live--
}

// fireDeadline runs a deadline that just came due (its queue entry is
// already popped, its timer already spent): a negative observation's
// advances the instance, a window's expires it. Every window expiry and
// negative-observation timeout comes through here, whoever drives the
// scheduler — Feed, a shard worker, the dataplane — so this is where the
// timer path is supervised: a panic below (a user violation callback,
// typically) quarantines the row's property and the scheduler, which
// popped the task before running it, carries on with the next.
func (m *Monitor) fireDeadline(id uint32) {
	r := m.st.at(id)
	pi := int(r.prop)
	defer func() {
		if cause := recover(); cause != nil {
			m.quarantine(pi, cause)
		}
	}()
	advances := r.flags&rowDeadlineAdvances != 0
	r.flags &^= rowArmed | rowDeadlineAdvances
	if int(id) < len(m.st.varTimers) {
		m.st.varTimers[id] = nil
	}
	m.sx[pi].DisarmTimer()
	if advances {
		m.advanceByTimeout(id, r)
	} else {
		m.expire(id, r)
	}
}
