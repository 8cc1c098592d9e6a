package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClockStartsAtEpoch(t *testing.T) {
	c := NewVirtualClock()
	if !c.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", c.Now(), Epoch)
	}
}

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock()
	c.Advance(5 * time.Second)
	if got, want := c.Now(), Epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	c.Advance(0)
	if got, want := c.Now(), Epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("Now() after zero advance = %v, want %v", got, want)
	}
}

func TestVirtualClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewVirtualClock().Advance(-time.Second)
}

func TestVirtualClockSetBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(past) did not panic")
		}
	}()
	c := NewVirtualClock()
	c.Set(Epoch.Add(-time.Minute))
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	if n, limited := s.Run(100); n != 3 || limited {
		t.Fatalf("Run = (%d, %v), want (3, false)", n, limited)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
	if got, want := s.Now(), Epoch.Add(3*time.Second); !got.Equal(want) {
		t.Fatalf("clock after run = %v, want %v", got, want)
	}
}

func TestSchedulerFIFOAmongEqualDeadlines(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	s.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-deadline order = %v, want FIFO", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	timer := s.After(time.Second, func() { ran = true })
	if !timer.Stop() {
		t.Fatal("Stop() = false on live timer")
	}
	if timer.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Run(10)
	if ran {
		t.Fatal("canceled task ran")
	}
	var nilTimer *Timer
	if nilTimer.Stop() {
		t.Fatal("nil Timer Stop() = true")
	}
}

func TestSchedulerTasksScheduleTasks(t *testing.T) {
	s := NewScheduler()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		if count < 5 {
			s.After(time.Second, reschedule)
		}
	}
	s.After(time.Second, reschedule)
	n, limited := s.Run(100)
	if n != 5 || limited {
		t.Fatalf("Run = (%d, %v), want (5, false)", n, limited)
	}
	if got, want := s.Now(), Epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("clock = %v, want %v", got, want)
	}
}

func TestSchedulerRunStepLimit(t *testing.T) {
	s := NewScheduler()
	var loop func()
	loop = func() { s.After(time.Millisecond, loop) }
	s.After(time.Millisecond, loop)
	n, limited := s.Run(50)
	if n != 50 || !limited {
		t.Fatalf("Run = (%d, %v), want (50, true)", n, limited)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var ran []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		s.After(d, func() { ran = append(ran, d) })
	}
	n := s.RunUntil(Epoch.Add(3 * time.Second))
	if n != 2 || len(ran) != 2 {
		t.Fatalf("RunUntil ran %d tasks (%v), want 2", n, ran)
	}
	if got, want := s.Now(), Epoch.Add(3*time.Second); !got.Equal(want) {
		t.Fatalf("clock = %v, want exactly %v", got, want)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestSchedulerPastDeadlineClamped(t *testing.T) {
	s := NewScheduler()
	s.RunFor(10 * time.Second)
	ran := false
	s.At(Epoch, func() { ran = true }) // in the past
	s.Run(10)
	if !ran {
		t.Fatal("past-deadline task did not run")
	}
	if got, want := s.Now(), Epoch.Add(10*time.Second); !got.Equal(want) {
		t.Fatalf("clock moved backwards: %v", got)
	}
}

func TestBernoulliBounds(t *testing.T) {
	r := NewRand(1)
	if Bernoulli(r, 0) {
		t.Fatal("Bernoulli(0) = true")
	}
	if !Bernoulli(r, 1) {
		t.Fatal("Bernoulli(1) = false")
	}
	if Bernoulli(r, -0.5) {
		t.Fatal("Bernoulli(-0.5) = true")
	}
	if !Bernoulli(r, 1.5) {
		t.Fatal("Bernoulli(1.5) = false")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestChoice(t *testing.T) {
	r := NewRand(7)
	items := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Choice(r, items)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Choice over 100 draws saw %d of 3 items", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Choice on empty slice did not panic")
		}
	}()
	Choice(r, []string(nil))
}

// Property: for any set of non-negative delays, the scheduler executes
// tasks in non-decreasing deadline order.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var ran []time.Duration
		for _, d := range delays {
			d := time.Duration(d) * time.Millisecond
			s.After(d, func() { ran = append(ran, d) })
		}
		s.Run(len(delays) + 1)
		for i := 1; i < len(ran); i++ {
			if ran[i] < ran[i-1] {
				return false
			}
		}
		return len(ran) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fifoSource is a minimal Source: deadlines all one window after arming,
// so appended in firing order; cancel marks an entry dead.
type fifoSource struct {
	s      *Scheduler
	window time.Duration
	items  []*fifoEntry
	live   int
}

type fifoEntry struct {
	at   time.Time
	seq  uint64
	run  func()
	dead bool
}

func (f *fifoSource) arm(run func()) *fifoEntry {
	e := &fifoEntry{at: f.s.Now().Add(f.window), seq: f.s.NextSeq(), run: run}
	f.items = append(f.items, e)
	f.live++
	return e
}

func (f *fifoSource) cancel(e *fifoEntry) {
	if !e.dead {
		e.dead = true
		f.live--
	}
}

func (f *fifoSource) Next() (time.Time, uint64, bool) {
	for len(f.items) > 0 && f.items[0].dead {
		f.items = f.items[1:]
	}
	if len(f.items) == 0 {
		return time.Time{}, 0, false
	}
	return f.items[0].at, f.items[0].seq, true
}

func (f *fifoSource) Fire() {
	e := f.items[0]
	f.items = f.items[1:]
	e.dead = true
	f.live--
	e.run()
}

func (f *fifoSource) Pending() int { return f.live }

// orderRig runs one random schedule. With sources on, windowed arms go
// through fifoSources; with sources off the same arms are plain After
// tasks — the reference a Source must be indistinguishable from.
type orderRig struct {
	s       *Scheduler
	sources bool
	windows []time.Duration
	srcs    []*fifoSource
	cancels map[int]func()
	log     []string
	nextID  int
	rng     *rand.Rand
}

func (r *orderRig) addWindow(w time.Duration) {
	r.windows = append(r.windows, w)
	if r.sources {
		src := &fifoSource{s: r.s, window: w}
		r.srcs = append(r.srcs, src)
		r.s.AddSource(src)
	}
}

// fired logs a firing and, one time in four, schedules more work from
// inside the callback.
func (r *orderRig) fired(kind string, id int) {
	r.log = append(r.log, fmt.Sprintf("%s#%d@%v", kind, id, r.s.Now().Sub(Epoch)))
	if r.rng.Intn(4) == 0 {
		r.schedule()
	}
}

// schedule adds one task or one windowed arm.
func (r *orderRig) schedule() {
	id := r.nextID
	r.nextID++
	if r.rng.Intn(2) == 0 {
		// Delays in whole milliseconds up to the windows: ties are common.
		t := r.s.After(time.Duration(r.rng.Intn(4))*time.Millisecond, func() { r.fired("task", id) })
		r.cancels[id] = func() { t.Stop() }
		return
	}
	k := r.rng.Intn(len(r.windows))
	run := func() { r.fired("arm", id) }
	if r.sources {
		e := r.srcs[k].arm(run)
		r.cancels[id] = func() { r.srcs[k].cancel(e) }
	} else {
		t := r.s.After(r.windows[k], run)
		r.cancels[id] = func() { t.Stop() }
	}
}

func (r *orderRig) run(steps int) {
	for i := 0; i < steps; i++ {
		switch n := r.rng.Intn(20); {
		case n < 10:
			r.schedule()
		case n < 13 && r.nextID > 0:
			// Cancel — or, half the time, refresh: cancel and arm again.
			id := r.rng.Intn(r.nextID)
			r.cancels[id]()
			if r.rng.Intn(2) == 0 {
				r.schedule()
			}
		case n == 13 && len(r.windows) < 6:
			r.addWindow(time.Duration(1+r.rng.Intn(3)) * time.Millisecond)
		case n < 17:
			r.s.RunFor(time.Duration(r.rng.Intn(3)) * time.Millisecond)
		case n < 19:
			r.s.Step()
		default:
			r.log = append(r.log, fmt.Sprintf("pending=%d", r.s.Pending()))
		}
	}
	r.s.Run(1 << 20)
}

// Random schedules mixing tasks and source deadlines — equal timestamps,
// cancels, refreshes, sources added mid-run, work scheduled from inside
// callbacks — fire in exactly the order, and report the same Pending,
// as the same schedule expressed through After alone.
func TestSourceDeadlinesFireInTaskOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		var logs [2][]string
		for i, sources := range []bool{false, true} {
			r := &orderRig{s: NewScheduler(), sources: sources, cancels: map[int]func(){}, rng: rand.New(rand.NewSource(seed))}
			r.addWindow(2 * time.Millisecond)
			r.run(400)
			logs[i] = r.log
		}
		for i := range logs[0] {
			if i >= len(logs[1]) || logs[0][i] != logs[1][i] {
				t.Fatalf("seed %d: line %d: After alone logged %s; sources logged %v", seed, i, logs[0][i], logs[1][min(i, len(logs[1])):min(i+1, len(logs[1]))])
			}
		}
		if len(logs[1]) != len(logs[0]) {
			t.Fatalf("seed %d: sources logged %d extra lines", seed, len(logs[1])-len(logs[0]))
		}
	}
}
