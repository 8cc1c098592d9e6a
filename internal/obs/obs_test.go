package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchmon/internal/raceon"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events", L("property", "fw"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("occupancy", "live instances")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// Registration is get-or-create: the same (name, labels) returns the
// same instrument regardless of label order — the mechanism shards use
// to share per-property counters.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", "x", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("same series resolved to two counters")
	}
	c := r.Counter("x_total", "x", L("a", "2"), L("b", "2"))
	if a == c {
		t.Fatal("distinct labels resolved to one counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("m", "m")
}

// Nil instruments and registries are inert: a monitor built without
// telemetry records into nil handles at zero cost and zero risk.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "x")
	c.Inc()
	var g *Gauge
	g.Add(1)
	var h *Histogram
	h.Observe(9)
	h.ObserveN(9, 3)
	var ring *Ring
	ring.Record(TraceRecord{})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || ring.Total() != 0 {
		t.Fatal("nil instruments recorded something")
	}
	if len(r.Snapshot().Families) != 0 || ring.Snapshot() != nil {
		t.Fatal("nil snapshots not empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1023, 1024, 1 << 40} {
		h.Observe(v)
	}
	b := h.Buckets()
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1, 11: 1, 41: 1}
	for i, n := range b {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 0+1+2+3+4+1023+1024+1<<40 {
		t.Errorf("sum = %d", h.Sum())
	}
	if BucketBound(0) != 0 || BucketBound(1) != 1 || BucketBound(11) != 2047 || BucketBound(64) != ^uint64(0) {
		t.Error("bucket bounds wrong")
	}
}

// ObserveN(v, n) is n Observe(v) calls in one: a sampling caller (the
// engine times one event per gap) records the sample with the number of
// occurrences it stands for, and Count, Sum, Buckets, the quantiles and
// the snapshot all read the weighted totals.
func TestHistogramObserveN(t *testing.T) {
	var one, weighted, looped Histogram
	one.Observe(700)
	weighted.ObserveN(700, 1)
	if one.Count() != weighted.Count() || one.Sum() != weighted.Sum() || one.Buckets() != weighted.Buckets() {
		t.Fatal("ObserveN(v, 1) differs from Observe(v)")
	}

	r := NewRegistry()
	h := r.Histogram("lat_ns", "l")
	samples := []struct{ v, n uint64 }{{100, 90}, {5000, 9}, {0, 1}, {1 << 20, 1}, {100, 27}}
	for _, s := range samples {
		h.ObserveN(s.v, s.n)
		for i := uint64(0); i < s.n; i++ {
			looped.Observe(s.v)
		}
	}
	h.ObserveN(42, 0) // a zero weight records nothing
	if h.Count() != 128 || h.Count() != looped.Count() {
		t.Fatalf("count = %d, want 128 (looped %d)", h.Count(), looped.Count())
	}
	if want := uint64(117*100 + 9*5000 + 1<<20); h.Sum() != want || looped.Sum() != want {
		t.Fatalf("sum = %d, want %d (looped %d)", h.Sum(), want, looped.Sum())
	}
	b := h.Buckets()
	if b != looped.Buckets() {
		t.Fatalf("buckets differ from the looped histogram:\n %v\n %v", b, looped.Buckets())
	}
	if b[0] != 1 || b[7] != 117 || b[13] != 9 || b[21] != 1 {
		t.Fatalf("buckets = %v", b)
	}
	// Ranks are over the weighted population: 118 of 128 observations are
	// <= 127, so p50 and p90 sit there, p99 (rank 127) in the 5000 bucket.
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0.5, 127}, {0.9, 127}, {0.99, 8191}, {1, 1<<21 - 1}} {
		if got := HistQuantile(b[:], c.q); got != c.want {
			t.Errorf("q%.2f = %d, want %d", c.q, got, c.want)
		}
	}
	ser := r.Snapshot().Families[0].Series[0]
	if ser.Count != 128 || ser.Sum != h.Sum() || len(ser.Buckets) != 22 || ser.Buckets[7] != 117 {
		t.Fatalf("snapshot = %+v", ser)
	}
}

// The hot-path recording operations must not allocate: they run once
// per event inside the monitor's steady state. check.sh gates on this
// test by name.
func TestHotPathZeroAlloc(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
	r := NewRegistry()
	c := r.Counter("events_total", "e")
	g := r.Gauge("occupancy", "o")
	h := r.Histogram("latency_ns", "l")
	var v uint64
	avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Add(1)
		g.Set(3)
		h.Observe(v)
		h.ObserveN(v, 64)
		v += 1337
	})
	if avg != 0 {
		t.Fatalf("hot-path recording allocates %.1f/op, want 0", avg)
	}
}

func TestSnapshotAndDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "h", L("table", "0"))
	r.Gauge("depth", "d").Set(5)
	r.Histogram("batch", "b").Observe(64)
	c.Add(10)
	before := r.Snapshot()
	c.Add(7)
	r.Counter("hits_total", "h", L("table", "1")).Add(3)
	after := r.Snapshot()

	if got := before.CounterValue("hits_total", L("table", "0")); got != 10 {
		t.Fatalf("before counter = %d, want 10", got)
	}
	diff := DiffCounters(before, after)
	if len(diff) != 2 || diff[`hits_total{table=0}`] != 7 || diff[`hits_total{table=1}`] != 3 {
		t.Fatalf("diff = %v", diff)
	}

	// Histogram snapshot shape: trailing empty buckets trimmed.
	var hist *SeriesSnapshot
	for i := range after.Families {
		if after.Families[i].Name == "batch" {
			hist = &after.Families[i].Series[0]
		}
	}
	if hist == nil || hist.Count != 1 || hist.Sum != 64 || len(hist.Buckets) != 8 || hist.Buckets[7] != 1 {
		t.Fatalf("histogram snapshot = %+v", hist)
	}
}

func TestRingWraparound(t *testing.T) {
	ring := NewRing(4)
	for i := 0; i < 10; i++ {
		ring.Record(TraceRecord{Property: fmt.Sprintf("p%d", i), Time: time.Unix(int64(i), 0)})
	}
	if ring.Total() != 10 {
		t.Fatalf("total = %d, want 10", ring.Total())
	}
	snap := ring.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len = %d, want 4", len(snap))
	}
	for i, rec := range snap {
		wantSeq := uint64(6 + i)
		if rec.Seq != wantSeq || rec.Property != fmt.Sprintf("p%d", wantSeq) {
			t.Fatalf("record %d = %+v, want seq %d", i, rec, wantSeq)
		}
	}
}

// Concurrent recorders and scrapers must not trip the race detector and
// must not lose counts.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := NewRegistry()
	ring := NewRing(8)
	const workers, perWorker = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared_total", "s")
			h := r.Histogram("lat", "l", L("shard", fmt.Sprint(w)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(uint64(i))
				if i%100 == 0 {
					ring.Record(TraceRecord{Property: "p"})
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Snapshot()
				_ = ring.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := r.Snapshot().CounterValue("shared_total"); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
}

// TestReadThroughSeries pins what CounterFunc and GaugeFunc promise: a
// series reads the sum of its functions when read, a second function
// under the same name and labels joins the sum without a new series
// (Gen stays put), and retiring a counter's function folds its last
// value into the series' base so the series never goes back.
func TestReadThroughSeries(t *testing.T) {
	r := NewRegistry()
	var a, b atomic.Uint64
	var la, lb atomic.Int64
	retireA := r.CounterFunc("c_total", "help", a.Load, L("p", "x"))
	gen := r.Gen()
	retireB := r.CounterFunc("c_total", "help", b.Load, L("p", "x"))
	if r.Gen() != gen {
		t.Fatalf("Gen moved when a function joined an existing series: %d -> %d", gen, r.Gen())
	}
	gretA := r.GaugeFunc("g", "help", la.Load)
	r.GaugeFunc("g", "help", lb.Load)

	a.Store(5)
	b.Store(7)
	la.Store(3)
	lb.Store(-1)
	snap := r.Snapshot()
	if got := snap.CounterValue("c_total", L("p", "x")); got != 12 {
		t.Fatalf("counter reads %d, want 12 (5+7)", got)
	}
	c := r.Counter("c_total", "help", L("p", "x"))
	if got := r.Gauge("g", "help").Value(); got != 2 {
		t.Fatalf("gauge reads %d, want 2 (3-1)", got)
	}

	retireA()
	retireA() // a second retire is a no-op
	a.Store(100)
	if got := c.Value(); got != 12 {
		t.Fatalf("after retire counter reads %d, want 12 (5 folded + 7)", got)
	}
	c.Inc() // the base is an ordinary counter too
	if got := c.Value(); got != 13 {
		t.Fatalf("base Inc: counter reads %d, want 13", got)
	}
	retireB()
	if got := c.Value(); got != 13 {
		t.Fatalf("all retired: counter reads %d, want 13", got)
	}
	gretA()
	if got := r.Gauge("g", "help").Value(); got != -1 {
		t.Fatalf("gauge after retire reads %d, want -1 (its level left with it)", got)
	}

	var nilReg *Registry
	nilReg.CounterFunc("x", "", a.Load)()
	nilReg.GaugeFunc("y", "", la.Load)()
}
