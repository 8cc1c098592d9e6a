// Package histdb is the monitor's memory: a fixed-size in-process ring
// TSDB that samples an obs registry at a configurable cadence and
// answers windowed queries over the recent past — the substrate under
// the /query endpoint and the SLO burn-rate engine (obs/slo).
//
// Each sample tick stores, per live series: counters as a per-second
// rate (the delta against the previous tick over the elapsed wall
// time), gauges raw, and histograms as three derived series — the p50,
// p99, and max of the observations that arrived in the tick window,
// read from the power-of-two bucket deltas via obs.HistQuantile. Keys
// are the obs.SeriesKey flat form with the derived suffix spliced into
// the name: switchmon_trace_stage_ns{stage=seal} yields
// switchmon_trace_stage_ns_p99{stage=seal}.
//
// The sampler has two sources. Registry mode caches live instrument
// pointers and rescans them only when the registry's series generation
// moves, so a steady-state tick is reads, arithmetic, and ring writes —
// zero allocations (gated by TestSamplerTickZeroAlloc in check.sh).
// Snapshot mode (Config.Source) re-samples an arbitrary snapshot
// producer each tick; fleetagg uses it over merged member scrapes,
// where the scrape itself allocates and the zero-alloc property is
// neither possible nor interesting.
package histdb

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"switchmon/internal/obs"
)

// kind discriminates what one stored series holds.
const (
	kindRate  = "rate"  // counter delta per second
	kindGauge = "gauge" // gauge sampled raw
	kindP50   = "p50"   // windowed histogram quantiles (per tick)
	kindP99   = "p99"
	kindMax   = "max"
)

// histSuffixes orders a histogram's derived series.
var histSuffixes = [3]string{"_p50", "_p99", "_max"}

// histKinds matches histSuffixes by index.
var histKinds = [3]string{kindP50, kindP99, kindMax}

// Config parameterizes a DB.
type Config struct {
	// Registry is the live source: instrument pointers are cached and
	// sampled directly (the zero-alloc path). Exactly one of Registry
	// and Source must be set.
	Registry *obs.Registry
	// Source is the snapshot source: called once per tick. For
	// aggregation tiers whose "registry" is a merged member scrape.
	Source func() obs.Snapshot
	// SampleEvery is the tick cadence (default 1s).
	SampleEvery time.Duration
	// Retention bounds how far back the ring reaches (default 10m).
	// The ring holds Retention/SampleEvery slots.
	Retention time.Duration
	// Now overrides the clock (tests drive Tick manually).
	Now func() time.Time
}

// track is one source instrument and its stored value rings: one ring
// for a counter or gauge, three (p50/p99/max) for a histogram.
type track struct {
	keys  []string
	kinds []string

	// Registry mode: exactly one non-nil.
	ctr *obs.Counter
	g   *obs.Gauge
	h   *obs.Histogram

	last    uint64      // counter: previous raw value
	lastB   [65]uint64  // histogram: previous bucket counts
	hasLast bool        // a previous sample exists (rates/deltas defined)
	vals    [][]float64 // value rings, aligned with DB.times
}

// DB is the ring TSDB. All methods are safe for concurrent use.
type DB struct {
	mu     sync.Mutex
	cfg    Config
	slots  int
	times  []int64 // unix nanos per slot
	head   int     // next slot to write
	n      int     // filled slots
	lastT  int64   // previous tick's unix nanos (rate denominator)
	tracks []*track
	byKey  map[string]*track // primary key (keys[0]) -> track
	regGen uint64            // registry generation at last rescan
	tGen   uint64            // bumps when the track set changes

	hooks []func(now time.Time)

	stop chan struct{}
	done chan struct{}
}

// New builds a DB over the configured source. It panics if neither or
// both of Registry and Source are set.
func New(cfg Config) *DB {
	if (cfg.Registry == nil) == (cfg.Source == nil) {
		panic("histdb: exactly one of Config.Registry and Config.Source must be set")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Second
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 10 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	slots := int(cfg.Retention / cfg.SampleEvery)
	if slots < 2 {
		slots = 2
	}
	if slots > 1<<20 {
		slots = 1 << 20
	}
	return &DB{
		cfg:   cfg,
		slots: slots,
		times: make([]int64, slots),
		byKey: map[string]*track{},
	}
}

// SampleEvery reports the configured tick cadence.
func (db *DB) SampleEvery() time.Duration { return db.cfg.SampleEvery }

// Retention reports the configured ring span.
func (db *DB) Retention() time.Duration { return db.cfg.Retention }

// Start launches the background sampler goroutine at the configured
// cadence. Close stops it.
func (db *DB) Start() {
	db.mu.Lock()
	if db.stop != nil {
		db.mu.Unlock()
		return
	}
	db.stop = make(chan struct{})
	db.done = make(chan struct{})
	stop, done := db.stop, db.done
	db.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(db.cfg.SampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				db.Tick()
			}
		}
	}()
}

// Close stops the background sampler, if running.
func (db *DB) Close() {
	db.mu.Lock()
	stop, done := db.stop, db.done
	db.stop, db.done = nil, nil
	db.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// OnTick registers a hook invoked after every sample tick, outside the
// DB lock — the SLO engine's evaluation trigger, so alert cadence
// follows sample cadence with no second timer.
func (db *DB) OnTick(fn func(now time.Time)) {
	db.mu.Lock()
	db.hooks = append(db.hooks, fn)
	db.mu.Unlock()
}

// Tick takes one sample: every tracked series gains one point stamped
// with the current clock. In registry mode a steady-state tick (no new
// series since the last rescan) performs no allocations.
func (db *DB) Tick() {
	now := db.cfg.Now()
	// Snapshot-mode sources can be slow — fleetagg's Source is a
	// concurrent HTTP scrape of every member with per-call timeouts —
	// so collect the snapshot before taking db.mu; readers (/query,
	// WindowAvg, ResolveGlob) must never block behind a dark member.
	var snap obs.Snapshot
	if db.cfg.Source != nil {
		snap = db.cfg.Source()
	}
	db.mu.Lock()
	if db.cfg.Registry != nil {
		db.tickRegistry(now)
	} else {
		db.tickSnapshot(now, snap)
	}
	hooks := db.hooks
	db.mu.Unlock()
	for _, fn := range hooks {
		fn(now)
	}
}

// tickRegistry samples cached instrument pointers, rescanning only
// when the registry generation moved. Called with db.mu held.
func (db *DB) tickRegistry(now time.Time) {
	if gen := db.cfg.Registry.Gen(); gen != db.regGen {
		db.rescanRegistry()
		db.regGen = gen
	}
	nowNS := now.UnixNano()
	dt := float64(nowNS-db.lastT) / float64(time.Second)
	slot := db.head
	db.times[slot] = nowNS
	for _, tr := range db.tracks {
		switch {
		case tr.ctr != nil:
			tr.recordCounter(slot, dt, tr.ctr.Value())
		case tr.g != nil:
			tr.recordGauge(slot, float64(tr.g.Value()))
		case tr.h != nil:
			tr.recordHistogram(slot, tr.h.Buckets())
		}
	}
	db.advance(nowNS)
}

// rescanRegistry resolves instruments the DB has not seen yet. Called
// with db.mu held; allocation here is fine — it runs only when a new
// series registers, not in steady state.
func (db *DB) rescanRegistry() {
	db.cfg.Registry.ForEachSeries(func(name, _ string, labels []obs.Label, ctr *obs.Counter, g *obs.Gauge, h *obs.Histogram) {
		key := obs.SeriesKey(name, labels)
		if _, ok := db.byKey[key]; ok {
			return
		}
		kind := "histogram"
		switch {
		case ctr != nil:
			kind = "counter"
		case g != nil:
			kind = "gauge"
		}
		tr := newTrack(kind, name, labels)
		tr.ctr, tr.g, tr.h = ctr, g, h
		db.addTrack(key, tr)
	})
}

// newTrack builds the track of a series of the given instrument kind —
// "counter", "gauge" or "histogram", as obs.Snapshot names them — with
// its stored keys; nil for any other kind.
func newTrack(kind, name string, labels []obs.Label) *track {
	switch kind {
	case "counter":
		return &track{keys: []string{obs.SeriesKey(name, labels)}, kinds: []string{kindRate}}
	case "gauge":
		return &track{keys: []string{obs.SeriesKey(name, labels)}, kinds: []string{kindGauge}}
	case "histogram":
		tr := &track{keys: make([]string, len(histSuffixes)), kinds: histKinds[:]}
		for i, suf := range histSuffixes {
			tr.keys[i] = obs.SeriesKey(name+suf, labels)
		}
		return tr
	}
	return nil
}

// addTrack registers a new track and NaN-backfills its rings. Called
// with db.mu held.
func (db *DB) addTrack(key string, tr *track) {
	tr.vals = make([][]float64, len(tr.keys))
	for i := range tr.vals {
		ring := make([]float64, db.slots)
		for j := range ring {
			ring[j] = math.NaN()
		}
		tr.vals[i] = ring
	}
	db.byKey[key] = tr
	db.tracks = append(db.tracks, tr)
	db.tGen++
}

// tickSnapshot stores one pre-collected Source snapshot. Called with
// db.mu held; the snapshot itself is taken outside the lock (Tick).
func (db *DB) tickSnapshot(now time.Time, snap obs.Snapshot) {
	nowNS := now.UnixNano()
	dt := float64(nowNS-db.lastT) / float64(time.Second)
	slot := db.head
	db.times[slot] = nowNS
	// Every tracked series defaults to NaN for this slot; series present
	// in the snapshot overwrite it below. A series that vanishes (a
	// member leaving the fleet) therefore reads as "no data", not as a
	// stale repeat of its last value.
	for _, tr := range db.tracks {
		for i := range tr.vals {
			tr.vals[i][slot] = math.NaN()
		}
	}
	for _, f := range snap.Families {
		for _, ser := range f.Series {
			key := obs.SeriesKey(f.Name, ser.Labels)
			tr := db.byKey[key]
			if tr == nil {
				if tr = newTrack(f.Kind, f.Name, ser.Labels); tr == nil {
					continue
				}
				db.addTrack(key, tr)
			}
			switch f.Kind {
			case "counter":
				tr.recordCounter(slot, dt, uint64(ser.Value))
			case "gauge":
				tr.recordGauge(slot, float64(ser.Value))
			case "histogram":
				var cur [65]uint64
				copy(cur[:], ser.Buckets)
				tr.recordHistogram(slot, cur)
			}
		}
	}
	db.advance(nowNS)
}

// The recording rules, one per instrument kind, written once for both
// sources: each stores one tick's value of tr's series at slot.

// recordCounter stores the counter's per-second rate over the dt
// seconds since the previous tick, NaN on its first tick. A total below
// the previous one — a snapshot source's member restarted, or a merged
// fleet snapshot missed a member for one scrape — is a reset, not a
// wrapped uint64 delta: it records no rate.
func (tr *track) recordCounter(slot int, dt float64, cur uint64) {
	v := math.NaN()
	if tr.hasLast && dt > 0 && cur >= tr.last {
		v = float64(cur-tr.last) / dt
	}
	tr.last, tr.hasLast = cur, true
	tr.vals[0][slot] = v
}

// recordGauge stores the gauge raw.
func (tr *track) recordGauge(slot int, v float64) { tr.vals[0][slot] = v }

// recordHistogram stores the p50, p99 and max of the observations that
// arrived since the previous tick, read from the bucket deltas; NaN on
// the first tick and when none arrived. A bucket count below the
// previous one is a reset, as for a counter: the deltas mean nothing
// this tick, so it records no quantiles.
func (tr *track) recordHistogram(slot int, cur [65]uint64) {
	var delta [65]uint64
	nonEmpty, reset := false, false
	for i := range cur {
		reset = reset || cur[i] < tr.lastB[i]
		delta[i] = cur[i] - tr.lastB[i]
		nonEmpty = nonEmpty || delta[i] != 0
	}
	q := [3]float64{math.NaN(), math.NaN(), math.NaN()}
	if tr.hasLast && nonEmpty && !reset {
		q = [3]float64{
			float64(obs.HistQuantile(delta[:], 0.50)),
			float64(obs.HistQuantile(delta[:], 0.99)),
			float64(obs.HistMaxBound(delta[:])),
		}
	}
	for i, v := range q {
		tr.vals[i][slot] = v
	}
	tr.lastB, tr.hasLast = cur, true
}

// advance commits the slot just written. Called with db.mu held.
func (db *DB) advance(nowNS int64) {
	db.head = (db.head + 1) % db.slots
	if db.n < db.slots {
		db.n++
	}
	db.lastT = nowNS
}

// TrackGen reports the track-set generation: it moves when the DB
// starts storing a series it had not seen before. The SLO engine
// re-resolves its rule globs only when this moves.
func (db *DB) TrackGen() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.tGen
}

// Handle names one stored series inside the DB, resolved from a glob
// once and then read allocation-free via WindowAvg.
type Handle struct {
	tr *track
	j  int
}

// Key reports the handle's flat series key.
func (h Handle) Key() string {
	if h.tr == nil {
		return ""
	}
	return h.tr.keys[h.j]
}

// ResolveGlob returns handles for every stored series whose key
// matches the '|'-separated glob list (see MatchGlob).
func (db *DB) ResolveGlob(pattern string) []Handle {
	globs := splitGlobs(pattern)
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []Handle
	for _, tr := range db.tracks {
		for j, key := range tr.keys {
			if matchAny(globs, key) {
				out = append(out, Handle{tr: tr, j: j})
			}
		}
	}
	return out
}

// WindowAvg averages the series' samples over the trailing window
// (rounded up to whole ticks), skipping no-data slots. n is the number
// of samples that contributed; n == 0 means the window holds no data.
func (db *DB) WindowAvg(h Handle, window time.Duration) (avg float64, n int) {
	if h.tr == nil {
		return 0, 0
	}
	k := int((window + db.cfg.SampleEvery - 1) / db.cfg.SampleEvery)
	if k < 1 {
		k = 1
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if k > db.n {
		k = db.n
	}
	ring := h.tr.vals[h.j]
	sum := 0.0
	for i := 1; i <= k; i++ {
		slot := (db.head - i + db.slots) % db.slots
		v := ring[slot]
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// Point is one stored sample.
type Point struct {
	// T is the sample's unix time in nanoseconds.
	T int64 `json:"t"`
	// V is the stored value (rate, gauge level, or derived quantile).
	V float64 `json:"v"`
}

// Series is one stored series in a QueryResult.
type Series struct {
	// Key is the flat series key (obs.SeriesKey form, histogram-derived
	// series carry a _p50/_p99/_max name suffix).
	Key string `json:"key"`
	// Kind is "rate", "gauge", "p50", "p99", or "max".
	Kind string `json:"kind"`
	// Points holds the matching samples, oldest first.
	Points []Point `json:"points"`
}

// QueryResult is the /query response document.
type QueryResult struct {
	// SampleEveryNS is the sampler cadence in nanoseconds.
	SampleEveryNS int64 `json:"sample_every_ns"`
	// RetentionNS is the ring span in nanoseconds.
	RetentionNS int64 `json:"retention_ns"`
	// NowUnixNS is the newest stored sample's timestamp.
	NowUnixNS int64 `json:"now_unix_ns"`
	// Series holds every matching series, in discovery order.
	Series []Series `json:"series"`
}

// Query answers a windowed read: every stored series matching the
// '|'-separated glob list, restricted to samples strictly newer than
// sinceUnixNS (0 = everything retained), downsampled to one point per
// step (0 = every sample; the newest sample is always representable).
// No-data slots are omitted.
func (db *DB) Query(pattern string, sinceUnixNS int64, step time.Duration) (QueryResult, error) {
	globs := splitGlobs(pattern)
	if len(globs) == 0 {
		return QueryResult{}, fmt.Errorf("empty series glob")
	}
	for _, g := range globs {
		if g == "" {
			return QueryResult{}, fmt.Errorf("empty series glob")
		}
	}
	stride := 1
	if step > 0 {
		stride = int(step / db.cfg.SampleEvery)
		if stride < 1 {
			stride = 1
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	res := QueryResult{
		SampleEveryNS: int64(db.cfg.SampleEvery),
		RetentionNS:   int64(db.cfg.Retention),
	}
	if db.n > 0 {
		res.NowUnixNS = db.times[(db.head-1+db.slots)%db.slots]
	}
	for _, tr := range db.tracks {
		for j, key := range tr.keys {
			if !matchAny(globs, key) {
				continue
			}
			s := Series{Key: key, Kind: tr.kinds[j]}
			ring := tr.vals[j]
			// Walk oldest -> newest; the stride phase is anchored on the
			// newest sample so the freshest point survives downsampling.
			for i := db.n; i >= 1; i-- {
				if (i-1)%stride != 0 {
					continue
				}
				slot := (db.head - i + db.slots) % db.slots
				t := db.times[slot]
				if t <= sinceUnixNS {
					continue
				}
				v := ring[slot]
				if math.IsNaN(v) {
					continue
				}
				s.Points = append(s.Points, Point{T: t, V: v})
			}
			res.Series = append(res.Series, s)
		}
	}
	return res, nil
}

// splitGlobs breaks a '|'-separated glob list into its parts.
func splitGlobs(pattern string) []string {
	if pattern == "" {
		return nil
	}
	return strings.Split(pattern, "|")
}

// matchAny reports whether key matches any glob in the list.
func matchAny(globs []string, key string) bool {
	for _, g := range globs {
		if MatchGlob(g, key) {
			return true
		}
	}
	return false
}

// MatchGlob matches key against a glob where '*' matches any run of
// bytes (including none) and '?' matches exactly one; every other byte
// is literal — so metric keys' '{', '=', and ',' need no escaping.
func MatchGlob(pattern, key string) bool {
	// Iterative wildcard match with single-star backtracking.
	pi, ki := 0, 0
	star, mark := -1, 0
	for ki < len(key) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == key[ki]):
			pi++
			ki++
		case pi < len(pattern) && pattern[pi] == '*':
			star, mark = pi, ki
			pi++
		case star >= 0:
			mark++
			pi, ki = star+1, mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}
