package slo

import (
	"math"
	"testing"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/obs/histdb"
	"switchmon/internal/raceon"
)

// rig builds a registry + histdb + engine with compressed windows and
// a fake clock, returning a step function that advances one tick.
type rig struct {
	reg *obs.Registry
	db  *histdb.DB
	eng *Engine
	t   time.Time
}

func newRig(t *testing.T, rules []Rule) *rig {
	t.Helper()
	r := &rig{reg: obs.NewRegistry(), t: time.Unix(1_700_000_000, 0)}
	r.db = histdb.New(histdb.Config{
		Registry:    r.reg,
		SampleEvery: time.Second,
		Retention:   time.Minute,
		Now:         func() time.Time { return r.t },
	})
	r.eng = New(Config{DB: r.db, Rules: rules, Registry: r.reg})
	return r
}

// tick advances the clock one second and samples (which evaluates).
func (r *rig) tick() {
	r.t = r.t.Add(time.Second)
	r.db.Tick()
}

func state(t *testing.T, e *Engine, rule string) string {
	t.Helper()
	for _, a := range e.Alerts() {
		if a.Rule == rule {
			return a.State
		}
	}
	t.Fatalf("rule %q not reported", rule)
	return ""
}

func TestBurnRateStateMachine(t *testing.T) {
	// fast 2s, slow 6s, threshold 100 events/s.
	rules := []Rule{{Name: "shed", Series: "shed_total", Threshold: 100, Fast: 2 * time.Second, Slow: 6 * time.Second}}
	r := newRig(t, rules)
	ctr := r.reg.Counter("shed_total", "")

	// Quiet baseline: stays ok.
	for i := 0; i < 7; i++ {
		r.tick()
	}
	if got := state(t, r.eng, "shed"); got != "ok" {
		t.Fatalf("baseline state = %s, want ok", got)
	}

	// Burn hard: 1000/s. Fast window crosses immediately; the slow
	// window needs the burn to accumulate past the threshold average.
	var toCritical int
	for i := 1; i <= 10; i++ {
		ctr.Add(1000)
		r.tick()
		if state(t, r.eng, "shed") == "critical" {
			toCritical = i
			break
		}
	}
	if toCritical == 0 {
		t.Fatal("never reached critical under a 10x burn")
	}
	// 1000/s against a 100/s line over a 6-slot slow window: the slow
	// average crosses on the first or second burning tick.
	if toCritical > 2 {
		t.Fatalf("critical after %d ticks, want <= 2 (fast-burn detection)", toCritical)
	}

	// Stop burning: rates drop to 0, both windows drain below the
	// hysteresis band, and the rule resolves to ok.
	for i := 0; i < 8 && state(t, r.eng, "shed") != "ok"; i++ {
		r.tick()
	}
	if got := state(t, r.eng, "shed"); got != "ok" {
		t.Fatalf("state after drain = %s, want ok (resolved)", got)
	}

	trs := r.eng.Transitions()
	if len(trs) < 2 {
		t.Fatalf("transitions = %+v, want at least fire + resolve", trs)
	}
	last := trs[len(trs)-1]
	if last.To != "resolved" || last.From != "critical" {
		t.Fatalf("last transition = %+v, want critical->resolved", last)
	}
	for i, tr := range trs {
		if tr.Seq != uint64(i+1) {
			t.Fatalf("transition seqs not contiguous: %+v", trs)
		}
	}

	// Metrics mirror the machine.
	snap := r.reg.Snapshot()
	if got := snap.CounterValue("switchmon_alert_transitions_total"); got != uint64(len(trs)) {
		t.Fatalf("transitions counter = %d, want %d", got, len(trs))
	}
}

func TestWarningWithoutSustainedBurn(t *testing.T) {
	// A short spike heats the fast window only: warning, then resolve,
	// never critical.
	rules := []Rule{{Name: "lat", Series: "g", Threshold: 100, Fast: 2 * time.Second, Slow: 20 * time.Second}}
	r := newRig(t, rules)
	g := r.reg.Gauge("g", "")
	for i := 0; i < 10; i++ {
		r.tick()
	}
	g.Set(500)
	r.tick()
	if got := state(t, r.eng, "lat"); got != "warning" {
		t.Fatalf("spike state = %s, want warning (slow window still cold)", got)
	}
	g.Set(0)
	for i := 0; i < 4; i++ {
		r.tick()
	}
	if got := state(t, r.eng, "lat"); got != "ok" {
		t.Fatalf("post-spike state = %s, want ok", got)
	}
	for _, tr := range r.eng.Transitions() {
		if tr.To == "critical" {
			t.Fatalf("short spike must not page: %+v", tr)
		}
	}
}

func TestHysteresisHoldsThroughFlap(t *testing.T) {
	// Sitting just under the threshold after firing must not resolve:
	// the clear line is threshold*(1-hysteresis).
	rules := []Rule{{Name: "r", Series: "g", Threshold: 100, Fast: 2 * time.Second, Slow: 4 * time.Second}}
	r := newRig(t, rules)
	g := r.reg.Gauge("g", "")
	g.Set(200)
	for i := 0; i < 6; i++ {
		r.tick()
	}
	if got := state(t, r.eng, "r"); got != "critical" {
		t.Fatalf("sustained burn = %s, want critical", got)
	}
	g.Set(95) // under threshold, inside the 10% hysteresis band
	for i := 0; i < 8; i++ {
		r.tick()
	}
	if got := state(t, r.eng, "r"); got != "critical" {
		t.Fatalf("in-band state = %s, want critical held by hysteresis", got)
	}
	g.Set(50)
	for i := 0; i < 8; i++ {
		r.tick()
	}
	if got := state(t, r.eng, "r"); got != "ok" {
		t.Fatalf("below-band state = %s, want resolved", got)
	}
}

// TestNoCrossSeriesWindowMixing: one series hot in only the fast
// window while another is hot in only the slow window must not combine
// into a critical no single series earned.
func TestNoCrossSeriesWindowMixing(t *testing.T) {
	var snap obs.Snapshot
	now := time.Unix(1_700_000_000, 0)
	db := histdb.New(histdb.Config{
		Source:      func() obs.Snapshot { return snap },
		SampleEvery: time.Second,
		Retention:   time.Minute,
		Now:         func() time.Time { return now },
	})
	eng := New(Config{DB: db, Rules: []Rule{
		{Name: "r", Series: "g*", Threshold: 100, Fast: 2 * time.Second, Slow: 8 * time.Second},
	}})
	gauge := func(name string, v int64) obs.FamilySnapshot {
		return obs.FamilySnapshot{Name: name, Kind: "gauge", Series: []obs.SeriesSnapshot{{Value: v}}}
	}
	tick := func(families ...obs.FamilySnapshot) {
		now = now.Add(time.Second)
		snap = obs.Snapshot{Families: families}
		db.Tick()
	}
	for i := 0; i < 6; i++ { // t1..t6: both cold
		tick(gauge("ga", 0), gauge("gb", 0))
	}
	for i := 0; i < 2; i++ { // t7,t8: B bursts (fast hot, slow diluted)
		tick(gauge("ga", 0), gauge("gb", 300))
	}
	for i := 0; i < 2; i++ { // t9,t10: B vanishes — its slow window
		// (600/6 = 100) is now hot with a cold fast window — while A
		// bursts the other way (fast 300 hot, slow 600/8 = 75 cold).
		tick(gauge("ga", 300))
	}
	if got := state(t, eng, "r"); got != "warning" {
		t.Fatalf("state = %s, want warning (no single series earned critical)", got)
	}
	for _, tr := range eng.Transitions() {
		if tr.To == "critical" {
			t.Fatalf("cross-series window mixing paged: %+v", tr)
		}
	}
}

// TestHysteresisDisabled: negative Config.Hysteresis selects an exact-
// threshold clear band, so sitting just under the threshold resolves
// (where the 0.1 default would hold critical).
func TestHysteresisDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.Unix(1_700_000_000, 0)
	db := histdb.New(histdb.Config{Registry: reg, SampleEvery: time.Second, Retention: time.Minute, Now: func() time.Time { return now }})
	eng := New(Config{DB: db, Registry: reg, Hysteresis: -1, Rules: []Rule{
		{Name: "r", Series: "g", Threshold: 100, Fast: 2 * time.Second, Slow: 4 * time.Second},
	}})
	g := reg.Gauge("g", "")
	tick := func() { now = now.Add(time.Second); db.Tick() }
	g.Set(200)
	for i := 0; i < 6; i++ {
		tick()
	}
	if got := state(t, eng, "r"); got != "critical" {
		t.Fatalf("sustained burn = %s, want critical", got)
	}
	g.Set(95) // inside the default 10% band — but hysteresis is off
	for i := 0; i < 8; i++ {
		tick()
	}
	if got := state(t, eng, "r"); got != "ok" {
		t.Fatalf("state = %s, want resolved with hysteresis disabled", got)
	}
}

func TestNoMatchingSeriesRestsAtOK(t *testing.T) {
	r := newRig(t, BuiltinRules())
	for i := 0; i < 5; i++ {
		r.tick()
	}
	for _, a := range r.eng.Alerts() {
		if a.State != "ok" {
			t.Fatalf("rule %s = %s with no matching series, want ok", a.Rule, a.State)
		}
	}
	if d := r.eng.Degraded(); len(d) != 0 {
		t.Fatalf("Degraded = %+v, want empty", d)
	}
}

func TestParseRule(t *testing.T) {
	r, err := ParseRule("shed:switchmon_*shed_events_total*:250:30s")
	if err != nil {
		t.Fatal(err)
	}
	want := Rule{Name: "shed", Series: "switchmon_*shed_events_total*", Threshold: 250, Fast: 30 * time.Second}
	if r != want {
		t.Fatalf("ParseRule = %+v, want %+v", r, want)
	}
	// Series globs may contain ':' — threshold/window split from the right.
	r, err = ParseRule("x:a:b:1.5:1m")
	if err != nil {
		t.Fatal(err)
	}
	if r.Series != "a:b" || r.Threshold != 1.5 || r.Fast != time.Minute {
		t.Fatalf("ParseRule with ':' in series = %+v", r)
	}
	for _, bad := range []string{"", "x", "x:y", "x:y:z", "x:y:nan?:1m", "x:y:5:bogus", ":s:1:1m",
		"x:y:NaN:1m", "x:y:+Inf:1m", "x:y:-Inf:1m", "x:y:inf:1m", "x:y:1e999:1m"} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}
	var rl RuleList
	if err := rl.Set("a:s:1:1m"); err != nil {
		t.Fatal(err)
	}
	if err := rl.Set("b:s2:2:30s"); err != nil {
		t.Fatal(err)
	}
	if len(rl) != 2 || rl[1].Name != "b" {
		t.Fatalf("RuleList = %+v", rl)
	}
}

// TestEvaluateSteadyStateZeroAlloc keeps the SLO engine inside the
// sampler's zero-alloc budget: with the engine attached to the tick
// hook, a steady-state tick (no transitions, no new series) must not
// allocate.
func TestEvaluateSteadyStateZeroAlloc(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
	rules := append(BuiltinRules(), Rule{Name: "shed", Series: "switchmon_*shed_events_total*", Threshold: 1e12, Fast: 2 * time.Second})
	r := newRig(t, rules)
	ctr := r.reg.Counter("switchmon_exporter_shed_events_total", "")
	h := r.reg.Histogram("switchmon_trace_detection_latency_ns", "")
	r.tick() // discovery + glob resolution

	allocs := testing.AllocsPerRun(200, func() {
		ctr.Add(5)
		h.Observe(1000)
		r.tick()
	})
	if allocs != 0 {
		t.Fatalf("steady-state tick+evaluate allocates %v times, want 0", allocs)
	}
}

func TestAlertsActiveGauges(t *testing.T) {
	rules := []Rule{
		{Name: "a", Series: "g1", Threshold: 10, Fast: time.Second, Slow: 2 * time.Second},
		{Name: "b", Series: "g2", Threshold: 10, Fast: time.Second, Slow: 100 * time.Second},
	}
	r := newRig(t, rules)
	g1 := r.reg.Gauge("g1", "")
	r.reg.Gauge("g2", "").Set(50) // fast hot, slow (100s window) also hot once sampled... use distinct shapes below
	g1.Set(50)
	for i := 0; i < 4; i++ {
		r.tick()
	}
	snap := r.reg.Snapshot()
	var warn, crit int64
	for _, f := range snap.Families {
		if f.Name != "switchmon_alerts_active" {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Key == "severity" && l.Value == "warning" {
					warn = s.Value
				}
				if l.Key == "severity" && l.Value == "critical" {
					crit = s.Value
				}
			}
		}
	}
	if warn+crit != 2 {
		t.Fatalf("alerts_active warning=%d critical=%d, want 2 firing total", warn, crit)
	}
}

// FuzzParseRule: any rule ParseRule accepts has a finite threshold and
// re-parses from its RuleList rendering (the -slo flag's String) to an
// equal Rule, so a rule echoed back by the flag means what it said.
func FuzzParseRule(f *testing.F) {
	for _, seed := range []string{
		"shed:switchmon_*shed_events_total*:250:30s",
		"x:a:b:1.5:1m",
		"lat:switchmon_*p99*|g:5e+07:1h0m0.5s",
		"x:y:0x1p-2:90s",
		"x:y:-0:1ns",
		"x:y:NaN:1m",
		"x:y:-Inf:1m",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRule(s)
		if err != nil {
			return
		}
		if math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) {
			t.Fatalf("ParseRule(%q) accepted threshold %v", s, r.Threshold)
		}
		rendered := (&RuleList{r}).String()
		back, err := ParseRule(rendered)
		if err != nil {
			t.Fatalf("ParseRule(%q) = %+v renders as %q, which does not parse: %v", s, r, rendered, err)
		}
		if back != r {
			t.Fatalf("ParseRule(%q) = %+v renders as %q, which parses to %+v", s, r, rendered, back)
		}
	})
}
