package histdb

import (
	"math"
	"testing"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/raceon"
)

// fakeClock yields a controllable, strictly advancing clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) advance(d time.Duration) {
	c.t = c.t.Add(d)
}

func newTestDB(t *testing.T, reg *obs.Registry, every, retention time.Duration) (*DB, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	db := New(Config{Registry: reg, SampleEvery: every, Retention: retention, Now: clk.now})
	return db, clk
}

func TestCounterRateAndGaugeSampling(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("switchmon_events_total", "")
	g := reg.Gauge("switchmon_depth", "")
	db, clk := newTestDB(t, reg, time.Second, time.Minute)

	db.Tick() // baseline: rate undefined
	for i := 0; i < 5; i++ {
		clk.advance(time.Second)
		ctr.Add(100)
		g.Set(int64(i))
		db.Tick()
	}

	res, err := db.Query("switchmon_events_total", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || res.Series[0].Kind != "rate" {
		t.Fatalf("series = %+v, want one rate series", res.Series)
	}
	pts := res.Series[0].Points
	if len(pts) != 5 {
		t.Fatalf("rate points = %d, want 5 (first tick has no baseline)", len(pts))
	}
	for _, p := range pts {
		if p.V != 100 {
			t.Fatalf("rate = %v, want 100/s", p.V)
		}
	}

	res, err = db.Query("switchmon_depth", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts = res.Series[0].Points
	if len(pts) != 6 || pts[5].V != 4 {
		t.Fatalf("gauge points = %+v, want 6 raw samples ending at 4", pts)
	}
}

func TestHistogramDerivedSeries(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("switchmon_lat_ns", "", obs.L("stage", "seal"))
	db, clk := newTestDB(t, reg, time.Second, time.Minute)

	db.Tick()
	clk.advance(time.Second)
	for i := 0; i < 99; i++ {
		h.Observe(1000) // bucket 10, bound 1023
	}
	h.Observe(1 << 20) // bucket 21, bound 2^21-1
	db.Tick()
	clk.advance(time.Second)
	db.Tick() // no new observations: a no-data slot

	res, err := db.Query("switchmon_lat_ns_*", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Series{}
	for _, s := range res.Series {
		got[s.Key] = s
	}
	p50 := got["switchmon_lat_ns_p50{stage=seal}"]
	p99 := got["switchmon_lat_ns_p99{stage=seal}"]
	mx := got["switchmon_lat_ns_max{stage=seal}"]
	if p50.Kind != "p50" || p99.Kind != "p99" || mx.Kind != "max" {
		t.Fatalf("kinds = %v/%v/%v", p50.Kind, p99.Kind, mx.Kind)
	}
	if len(p50.Points) != 1 || p50.Points[0].V != 1023 {
		t.Fatalf("p50 = %+v, want one point at 1023", p50.Points)
	}
	if len(p99.Points) != 1 || p99.Points[0].V != 1023 {
		t.Fatalf("p99 = %+v, want one point at 1023 (rank 99 of 100)", p99.Points)
	}
	if len(mx.Points) != 1 || mx.Points[0].V != float64(uint64(1<<21-1)) {
		t.Fatalf("max = %+v, want one point at 2^21-1", mx.Points)
	}
}

// Weighted observations (Histogram.ObserveN) move the derived quantiles
// by their weight, not by the number of calls: two calls, one standing for
// 99 events and one for a single slow event, read as TestHistogramDerivedSeries
// does — and with the weights swapped p50 moves to the slow bucket.
func TestHistogramWeightedSamples(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("switchmon_lat_ns", "")
	db, clk := newTestDB(t, reg, time.Second, time.Minute)

	db.Tick()
	clk.advance(time.Second)
	h.ObserveN(1000, 99)
	h.ObserveN(1<<20, 1)
	db.Tick()
	clk.advance(time.Second)
	h.ObserveN(1000, 1)
	h.ObserveN(1<<20, 99)
	db.Tick()

	for key, want := range map[string][2]float64{
		"switchmon_lat_ns_p50": {1023, 1<<21 - 1},
		"switchmon_lat_ns_p99": {1023, 1<<21 - 1},
		"switchmon_lat_ns_max": {1<<21 - 1, 1<<21 - 1},
	} {
		res, err := db.Query(key, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Series) != 1 || len(res.Series[0].Points) != 2 {
			t.Fatalf("%s: series = %+v, want one series of two points", key, res.Series)
		}
		pts := res.Series[0].Points
		if pts[0].V != want[0] || pts[1].V != want[1] {
			t.Errorf("%s = %v, %v; want %v, %v", key, pts[0].V, pts[1].V, want[0], want[1])
		}
	}
}

func TestQuerySinceStepAndBadGlob(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "")
	db, clk := newTestDB(t, reg, time.Second, time.Minute)
	var times []int64
	for i := 0; i < 10; i++ {
		g.Set(int64(i))
		db.Tick()
		times = append(times, clk.t.UnixNano())
		clk.advance(time.Second)
	}

	res, err := db.Query("g", times[6], 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Series[0].Points); n != 3 {
		t.Fatalf("since filter kept %d points, want 3 (strictly newer)", n)
	}

	res, err = db.Query("g", 0, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if len(pts) != 4 {
		t.Fatalf("step=3s kept %d points, want 4", len(pts))
	}
	if pts[len(pts)-1].T != times[9] {
		t.Fatal("downsampling must keep the newest sample")
	}

	if _, err := db.Query("", 0, 0); err == nil {
		t.Fatal("empty glob must error")
	}
	if _, err := db.Query("a|", 0, 0); err == nil {
		t.Fatal("empty glob in a list must error")
	}
}

func TestRingEviction(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "")
	db, clk := newTestDB(t, reg, time.Second, 4*time.Second)
	for i := 0; i < 10; i++ {
		g.Set(int64(i))
		db.Tick()
		clk.advance(time.Second)
	}
	res, err := db.Query("g", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if len(pts) != 4 {
		t.Fatalf("ring kept %d points, want 4 (retention/cadence)", len(pts))
	}
	if pts[0].V != 6 || pts[3].V != 9 {
		t.Fatalf("retained window = %+v, want gauges 6..9", pts)
	}
}

func TestWindowAvgAndHandles(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("c_total", "")
	db, clk := newTestDB(t, reg, time.Second, time.Minute)
	db.Tick()
	for i := 0; i < 6; i++ {
		clk.advance(time.Second)
		ctr.Add(uint64(10 * (i + 1))) // rates 10,20,...,60
		db.Tick()
	}
	hs := db.ResolveGlob("c_total")
	if len(hs) != 1 || hs[0].Key() != "c_total" {
		t.Fatalf("ResolveGlob = %+v", hs)
	}
	avg, n := db.WindowAvg(hs[0], 3*time.Second)
	if n != 3 || avg != 50 {
		t.Fatalf("WindowAvg(3s) = %v over %d, want 50 over 3", avg, n)
	}
	avg, n = db.WindowAvg(hs[0], time.Minute)
	if n != 6 || avg != 35 {
		t.Fatalf("WindowAvg(1m) = %v over %d, want 35 over 6 (NaN baseline skipped)", avg, n)
	}
}

func TestSnapshotSourceMode(t *testing.T) {
	var snap obs.Snapshot
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	db := New(Config{Source: func() obs.Snapshot { return snap }, SampleEvery: time.Second, Retention: time.Minute, Now: clk.now})

	set := func(ctr int64, reach int64) {
		snap = obs.Snapshot{Families: []obs.FamilySnapshot{
			{Name: "switchmon_fleet_events_total", Kind: "counter", Series: []obs.SeriesSnapshot{{Value: ctr}}},
			{Name: "switchmon_fleet_members_reachable", Kind: "gauge", Series: []obs.SeriesSnapshot{{Value: reach}}},
		}}
	}
	set(0, 3)
	db.Tick()
	for i := 1; i <= 3; i++ {
		clk.advance(time.Second)
		set(int64(i)*1000, 2)
		db.Tick()
	}
	res, err := db.Query("switchmon_fleet_*", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(res.Series))
	}
	for _, s := range res.Series {
		switch s.Key {
		case "switchmon_fleet_events_total":
			if len(s.Points) != 3 || s.Points[0].V != 1000 {
				t.Fatalf("counter rate = %+v, want 3 points at 1000/s", s.Points)
			}
		case "switchmon_fleet_members_reachable":
			if len(s.Points) != 4 || s.Points[3].V != 2 {
				t.Fatalf("gauge = %+v", s.Points)
			}
		}
	}
}

// TestSnapshotResetGuard: a snapshot total (or histogram bucket count)
// that regresses — a member restart, or a merged fleet snapshot missing
// a member for one scrape — is a reset, not a wrapped uint64 delta. The
// regressed tick must record no rate and no quantiles rather than an
// astronomical ~1.8e19 sample that would poison every burn window.
func TestSnapshotResetGuard(t *testing.T) {
	var snap obs.Snapshot
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	db := New(Config{Source: func() obs.Snapshot { return snap }, SampleEvery: time.Second, Retention: time.Minute, Now: clk.now})

	set := func(total int64, b3 uint64) {
		snap = obs.Snapshot{Families: []obs.FamilySnapshot{
			{Name: "switchmon_fleet_events_total", Kind: "counter", Series: []obs.SeriesSnapshot{{Value: total}}},
			{Name: "switchmon_fleet_lat_ns", Kind: "histogram", Series: []obs.SeriesSnapshot{{Buckets: []uint64{0, 0, 0, b3}}}},
		}}
	}
	step := func(total int64, b3 uint64) {
		clk.advance(time.Second)
		set(total, b3)
		db.Tick()
	}
	set(5000, 50)
	db.Tick()
	step(6000, 60) // healthy: +1000/s, +10 observations
	step(1000, 10) // regression: member restarted / dropped from merge
	step(2000, 20) // healthy again from the new baseline

	res, err := db.Query("switchmon_fleet_*", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.V > 1e15 {
				t.Fatalf("series %s holds wrapped-delta sample %v: %+v", s.Key, p.V, s.Points)
			}
		}
		switch s.Key {
		case "switchmon_fleet_events_total":
			// The regressed tick is a no-data hole; the flanking healthy
			// ticks both rate at 1000/s.
			if len(s.Points) != 2 || s.Points[0].V != 1000 || s.Points[1].V != 1000 {
				t.Fatalf("counter rate = %+v, want [1000 1000] around the reset hole", s.Points)
			}
		case "switchmon_fleet_lat_ns_p50":
			if len(s.Points) != 2 {
				t.Fatalf("p50 = %+v, want 2 points around the reset hole", s.Points)
			}
		}
	}
}

// TestSlowSourceDoesNotBlockReads: the snapshot source (fleetagg's
// concurrent member scrape) can stall for seconds on a dark member;
// the scrape runs outside db.mu, so reads must complete while a tick's
// scrape is still in flight.
func TestSlowSourceDoesNotBlockReads(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	db := New(Config{Source: func() obs.Snapshot {
		close(entered)
		<-release
		return obs.Snapshot{}
	}, SampleEvery: time.Second, Retention: time.Minute, Now: clk.now})
	done := make(chan struct{})
	go func() {
		db.Tick()
		close(done)
	}()
	<-entered // the scrape is in flight now
	if _, err := db.Query("*", 0, 0); err != nil {
		t.Fatal(err)
	}
	db.WindowAvg(Handle{}, time.Second)
	close(release)
	<-done
}

// TestSamplerTickZeroAlloc is check.sh's sampler gate: once the track
// set is discovered, a registry-mode sample tick must not allocate,
// no matter how busy the instruments are.
func TestSamplerTickZeroAlloc(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
	reg := obs.NewRegistry()
	var ctrs []*obs.Counter
	var hists []*obs.Histogram
	for _, name := range []string{"a_total", "b_total", "c_total", "d_total"} {
		ctrs = append(ctrs, reg.Counter("switchmon_"+name, ""))
	}
	for i := 0; i < 4; i++ {
		reg.Gauge("switchmon_g", "", obs.L("shard", string(rune('0'+i))))
	}
	hists = append(hists,
		reg.Histogram("switchmon_lat_ns", "", obs.L("stage", "seal")),
		reg.Histogram("switchmon_lat_ns", "", obs.L("stage", "send")))
	db, clk := newTestDB(t, reg, time.Second, time.Minute)
	db.Tick() // discovery rescan

	i := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		i++
		clk.advance(time.Second)
		for _, c := range ctrs {
			c.Add(i)
		}
		for _, h := range hists {
			h.Observe(i * 1000)
		}
		db.Tick()
	})
	if allocs != 0 {
		t.Fatalf("steady-state sample tick allocates %v times, want 0", allocs)
	}
}

func TestMatchGlob(t *testing.T) {
	cases := []struct {
		pat, key string
		want     bool
	}{
		{"*", "anything", true},
		{"switchmon_*_total", "switchmon_events_total", true},
		{"switchmon_*_total", "switchmon_events_totals", false},
		{"*shed_events_total*", "switchmon_exporter_shed_events_total{dpid=1}", true},
		{"a?c", "abc", true},
		{"a?c", "ac", false},
		{"g{x=1}", "g{x=1}", true},
		{"", "x", false},
		{"", "", true},
		{"*{path=a/b}", "m{path=a/b}", true},
	}
	for _, c := range cases {
		if got := MatchGlob(c.pat, c.key); got != c.want {
			t.Errorf("MatchGlob(%q, %q) = %v, want %v", c.pat, c.key, got, c.want)
		}
	}
}

func TestLateSeriesBackfillWithNaN(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("early", "")
	db, clk := newTestDB(t, reg, time.Second, time.Minute)
	for i := 0; i < 3; i++ {
		db.Tick()
		clk.advance(time.Second)
	}
	late := reg.Gauge("late", "")
	late.Set(7)
	db.Tick()
	res, err := db.Query("late", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if len(pts) != 1 || pts[0].V != 7 {
		t.Fatalf("late series = %+v, want exactly one real point (history is no-data)", pts)
	}
	if math.IsNaN(pts[0].V) {
		t.Fatal("NaN leaked into query output")
	}
}
