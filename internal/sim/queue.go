package sim

import (
	"container/heap"
	"time"
)

// Task is a unit of scheduled work on a Scheduler.
type Task func()

// scheduledItem is one entry in the scheduler's priority queue.
type scheduledItem struct {
	at   time.Time
	seq  uint64 // tiebreaker: FIFO among equal timestamps
	task Task
	// canceled marks the item as a no-op without the cost of heap removal.
	canceled bool
}

type itemHeap []*scheduledItem

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)   { *h = append(*h, x.(*scheduledItem)) }
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Timer is a handle to a scheduled task, usable to cancel it.
type Timer struct{ item *scheduledItem }

// Stop cancels the timer. It is safe to call on a nil Timer or after the
// task has already run; in both cases it reports false. Otherwise it
// reports true and guarantees the task will not run.
func (t *Timer) Stop() bool {
	if t == nil || t.item == nil || t.item.canceled {
		return false
	}
	t.item.canceled = true
	return true
}

// Source is a queue of deadlines its owner keeps outside the scheduler's
// heap — the monitor's per-stage FIFO window queues, which are sorted by
// construction and need neither a heap slot nor a closure per deadline.
// The scheduler merges every registered source with its own heap under
// the one (time, seq) key: the owner draws seq from NextSeq at the moment
// it arms a deadline, exactly where it would have called After, so a
// deadline fires in the position the equivalent task would have held —
// ties against tasks and against other sources included.
type Source interface {
	// Next reports the key of the source's earliest live deadline; ok is
	// false when it has none.
	Next() (at time.Time, seq uint64, ok bool)
	// Fire removes that deadline from the source, then runs it. The
	// scheduler calls it directly after a Next that reported ok, with the
	// clock already at the deadline. Removing first matters: a deadline
	// that panics is consumed, as a popped task is.
	Fire()
	// Pending counts the source's live deadlines.
	Pending() int
}

// Scheduler combines a VirtualClock with an ordered task queue. Running the
// scheduler advances virtual time to each task's deadline and executes the
// task; tasks may schedule further tasks. All execution is single-threaded
// and deterministic: tasks with equal deadlines run in scheduling order.
//
// Scheduler is not safe for concurrent use; the simulation model in this
// repository is single-threaded by design (determinism beats parallelism
// for reproducing semantics).
type Scheduler struct {
	clock   *VirtualClock
	queue   itemHeap
	sources []Source
	seq     uint64
}

// NewScheduler returns a Scheduler driving a fresh VirtualClock at Epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{clock: NewVirtualClock()}
}

// Now returns the scheduler's current virtual time.
func (s *Scheduler) Now() time.Time { return s.clock.Now() }

// AddSource registers a deadline source; its deadlines run interleaved
// with the scheduler's own tasks from the next Step on.
func (s *Scheduler) AddSource(src Source) { s.sources = append(s.sources, src) }

// NextSeq draws the tiebreak sequence number for a deadline a Source is
// arming now — the number At would have given a task scheduled here.
func (s *Scheduler) NextSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// At schedules task to run at the absolute virtual time t. Scheduling in
// the past runs the task at the current time (it is clamped, not dropped).
func (s *Scheduler) At(t time.Time, task Task) *Timer {
	if now := s.clock.Now(); t.Before(now) {
		t = now
	}
	it := &scheduledItem{at: t, seq: s.NextSeq(), task: task}
	heap.Push(&s.queue, it)
	return &Timer{item: it}
}

// After schedules task to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, task Task) *Timer {
	return s.At(s.clock.Now().Add(d), task)
}

// Pending reports the number of live (non-canceled) tasks in the queue
// plus the live deadlines of every source.
func (s *Scheduler) Pending() int {
	n := 0
	for _, it := range s.queue {
		if !it.canceled {
			n++
		}
	}
	for _, src := range s.sources {
		n += src.Pending()
	}
	return n
}

// Step runs the single earliest pending task or source deadline,
// advancing the clock to its time. It reports whether anything ran.
func (s *Scheduler) Step() bool {
	at, src, ok := s.earliest()
	if !ok {
		return false
	}
	s.fire(at, src)
	return true
}

// earliest finds the smallest (time, seq) key among the heap's live head
// and the sources' heads; src is nil when the heap holds it. Canceled
// heap heads are discarded on the way.
func (s *Scheduler) earliest() (at time.Time, src Source, ok bool) {
	var seq uint64
	for s.queue.Len() > 0 {
		it := s.queue[0]
		if !it.canceled {
			at, seq, ok = it.at, it.seq, true
			break
		}
		heap.Pop(&s.queue)
	}
	for _, c := range s.sources {
		cat, cseq, cok := c.Next()
		if !cok {
			continue
		}
		if !ok || cat.Before(at) || (cat.Equal(at) && cseq < seq) {
			at, seq, src, ok = cat, cseq, c, true
		}
	}
	return at, src, ok
}

// fire runs what earliest just reported.
func (s *Scheduler) fire(at time.Time, src Source) {
	s.clock.Set(at)
	if src != nil {
		src.Fire()
		return
	}
	heap.Pop(&s.queue).(*scheduledItem).task()
}

// Run executes tasks until the queue is empty. The steps limit guards
// against runaway self-scheduling; Run returns the number of tasks executed
// and whether it stopped because the limit was reached.
func (s *Scheduler) Run(steps int) (executed int, limited bool) {
	for executed < steps {
		if !s.Step() {
			return executed, false
		}
		executed++
	}
	return executed, s.Pending() > 0
}

// RunUntil executes tasks with deadlines at or before t, then advances the
// clock to exactly t. It returns the number of tasks executed.
func (s *Scheduler) RunUntil(t time.Time) int {
	executed := 0
	for {
		at, src, ok := s.earliest()
		if !ok || at.After(t) {
			break
		}
		s.fire(at, src)
		executed++
	}
	if t.After(s.clock.Now()) {
		s.clock.Set(t)
	}
	return executed
}

// RunFor is RunUntil relative to the current virtual time.
func (s *Scheduler) RunFor(d time.Duration) int {
	return s.RunUntil(s.clock.Now().Add(d))
}
