// Package obs is the switch-scope telemetry subsystem: atomic counters,
// gauges, power-of-two-bucket latency histograms, the bounded
// sequence-numbered Log behind every introspection stream (log.go: the
// violation ring, completed spans, alert transitions), and the one
// deterministic 1-in-N sampling test (InSample). It exists so the
// monitor can explain what it is doing — shard occupancy, queue drops,
// per-property match rates, per-event latency — without perturbing the
// data plane: every hot-path recording operation (Counter.Inc,
// Gauge.Add, Histogram.Observe) is a handful of uncontended atomic
// instructions and allocates nothing. Instrument handles are resolved
// once at registration time (monitor construction, property install);
// the event path never touches the registry, its lock, or a map.
//
// The registry is get-or-create on (name, labels): registering the same
// series twice returns the same instrument. A read-through series
// (CounterFunc, GaugeFunc) keeps no copy: it reads a count its component
// already keeps, when read, summed over every function registered under
// its name and labels — so shards and engines sharing a registry
// aggregate per property with no shared word on the event path.
//
// Export formats (Prometheus text, JSON, HTTP) live in obs/export so
// engines that only record never link the encoders.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// word is a counter's or gauge's value: its own word (a gauge's int64 in
// two's complement) plus what its read functions read now. reads.mu
// makes a read and a retire one step each, so a retiring function's last
// value, folded into the own word, is counted once.
type word struct {
	v     atomic.Uint64
	reads atomic.Pointer[reads]
}

type reads struct {
	mu  sync.Mutex
	fns []*func() uint64
}

func (w *word) load() uint64 {
	rs := w.reads.Load()
	if rs == nil {
		return w.v.Load()
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := w.v.Load()
	for _, f := range rs.fns {
		n += (*f)()
	}
	return n
}

// attach adds read to w and returns its retire, which removes it —
// folding its last value into w's own word first when fold is set.
func (w *word) attach(read func() uint64, fold bool) (retire func()) {
	w.reads.CompareAndSwap(nil, &reads{})
	rs, f := w.reads.Load(), &read
	rs.mu.Lock()
	rs.fns = append(rs.fns, f)
	rs.mu.Unlock()
	return func() {
		rs.mu.Lock()
		defer rs.mu.Unlock()
		if i := slices.Index(rs.fns, f); i >= 0 {
			if fold {
				w.v.Add(read())
			}
			rs.fns = slices.Delete(rs.fns, i, i+1)
		}
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ w word }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.w.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.w.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.w.load()
}

// Gauge is an atomically settable instantaneous value (occupancy, queue
// depth). Negative values are representable: deltas may transiently
// undershoot.
type Gauge struct{ w word }

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.w.v.Store(uint64(n))
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.w.v.Add(uint64(n))
}

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return int64(g.w.load())
}

// histBuckets is the bucket count of a Histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 holds v == 0). 65 covers the full uint64 range.
const histBuckets = 65

// Histogram is a power-of-two-bucket histogram of uint64 observations
// (latencies in nanoseconds, batch sizes). Recording is wait-free: one
// bit-length computation and three atomic adds per call — per sample, not
// per event, for a caller that samples (ObserveN) — and no allocation.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n observations of value v — one sample standing for n
// occurrences: its bucket and the count grow by n, the sum by n*v.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(n * v)
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the per-bucket counts; index i counts observations
// with bit length i (upper bound 2^i - 1).
func (h *Histogram) Buckets() [histBuckets]uint64 {
	var out [histBuckets]uint64
	if h == nil {
		return out
	}
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BucketBound reports the inclusive upper bound of bucket i.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// HistQuantile reads quantile q (0..1) from power-of-two bucket counts
// as produced by Histogram.Buckets or SeriesSnapshot.Buckets (trailing
// buckets may be trimmed). The answer is the inclusive upper bound of
// the bucket where the cumulative count first reaches rank ceil(q*n) —
// a conservative (never under-reporting) estimate, exact to the bucket
// resolution. An empty histogram reports 0; observations that landed in
// the overflow bucket (index 64) report the full uint64 range bound.
func HistQuantile(buckets []uint64, q float64) uint64 {
	var total uint64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, n := range buckets {
		cum += n
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(len(buckets) - 1)
}

// HistMaxBound reports the inclusive upper bound of the highest
// non-empty bucket — the histogram's observed maximum, rounded up to
// bucket resolution. Empty histograms report 0.
func HistMaxBound(buckets []uint64) uint64 {
	for i := len(buckets) - 1; i >= 0; i-- {
		if buckets[i] != 0 {
			return BucketBound(i)
		}
	}
	return 0
}

// InSample reports whether key lands in the deterministic 1-in-n
// sampled class (n <= 1 samples everything). The murmur3 fmix64
// finalizer keeps the class uniform even for structured keys (sequential
// packet ids), and fastrange ((x*n)>>64 == 0) costs one multiply where
// x%n would cost a ~30-cycle divide — this runs for every event, sampled
// or not, and inlines into its callers.
func InSample(key, n uint64) bool {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	hi, _ := bits.Mul64(key, n)
	return hi == 0
}

// metricKind discriminates the series types a family can hold.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one labeled instrument inside a family.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  int
	series map[string]*series
}

// Registry holds named metric families. Registration is get-or-create
// keyed on (name, labels) and safe for concurrent use; it is intended
// for construction time, not the event path. Snapshot may be called
// concurrently with recording — values are read atomically, so a scrape
// sees a consistent-enough live view without stopping the engine.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	nextOrd  int
	// gen counts series registrations: it changes exactly when a new
	// series (or family) is created, so a sampler can cache instrument
	// pointers and rescan only when Gen moves (histdb's zero-alloc tick).
	gen atomic.Uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// canonLabels returns a sorted copy of labels and their canonical key.
func canonLabels(labels []Label) ([]Label, string) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return ls, b.String()
}

// lookup finds or creates the family and series for (name, labels).
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *series {
	ls, key := canonLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, order: r.nextOrd, series: map[string]*series{}}
		r.nextOrd++
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as two different kinds", name))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: ls}
		switch kind {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = &Histogram{}
		}
		f.series[key] = s
		r.gen.Add(1)
	}
	return s
}

// Gen reports the registry's series generation: it advances exactly
// when a new series is registered. Samplers cache instrument handles
// and rescan (ForEachSeries) only when Gen has moved, keeping the
// steady-state sample path allocation-free.
func (r *Registry) Gen() uint64 {
	if r == nil {
		return 0
	}
	return r.gen.Load()
}

// SeriesVisitor receives one live series during ForEachSeries. kind is
// "counter", "gauge" or "histogram", and exactly one of ctr, gauge, hist
// is non-nil, matching it. The labels slice is the registry's canonical
// (sorted) copy and must not be mutated.
type SeriesVisitor func(name, help, kind string, labels []Label, ctr *Counter, gauge *Gauge, hist *Histogram)

// ForEachSeries visits every registered series in deterministic order
// (families by registration order, series by canonical label key),
// handing the visitor live instrument pointers. It is intended for
// construction-time discovery — a sampler resolving handles once per
// Gen change — not the hot path; the visitor runs under the registry
// lock and must not register new series.
func (r *Registry) ForEachSeries(visit SeriesVisitor) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].order < fams[j].order })
	for _, f := range fams {
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			visit(f.name, f.help, f.kind.kindName(), s.labels, s.ctr, s.gauge, s.hist)
		}
	}
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels).ctr
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels).gauge
}

// CounterFunc adds read to the counter series (name, labels), which
// reads its own count plus its functions' sum when read. read runs under
// the registry's lock: it may only load atomics, or take a lock of its
// own that nothing holds while registering a series. retire removes read
// and folds its last value into the series' own count, so the series
// stays monotone and keeps its pointer (and Gen).
func (r *Registry) CounterFunc(name, help string, read func() uint64, labels ...Label) (retire func()) {
	if r == nil {
		return func() {}
	}
	return r.lookup(name, help, kindCounter, labels).ctr.w.attach(read, true)
}

// GaugeFunc is CounterFunc for a gauge series. Its retire drops read
// without folding: a level leaves with its source.
func (r *Registry) GaugeFunc(name, help string, read func() int64, labels ...Label) (retire func()) {
	if r == nil {
		return func() {}
	}
	return r.lookup(name, help, kindGauge, labels).gauge.w.attach(func() uint64 { return uint64(read()) }, false)
}

// Histogram registers (or finds) a histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, labels).hist
}
