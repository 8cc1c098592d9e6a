package obs

import "strings"

// SeriesSnapshot is one labeled series captured by Snapshot.
type SeriesSnapshot struct {
	Labels []Label `json:"labels,omitempty"`
	// Value carries a counter's count or a gauge's level.
	Value int64 `json:"value"`
	// Count, Sum, and Buckets are histogram-only. Buckets[i] counts
	// observations with bit length i (upper bound BucketBound(i)).
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// FamilySnapshot is one metric family captured by Snapshot.
type FamilySnapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	// Kind is "counter", "gauge", or "histogram".
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is a point-in-time copy of a registry's metrics, ordered by
// registration: the unit the exporters encode and benchsweep diffs.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// kindName names a metricKind for snapshots and exporters.
func (k metricKind) kindName() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Snapshot captures every registered series, in ForEachSeries order.
// Safe to call while other goroutines record; each value is read
// atomically, and read-through series read their sources.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	r.ForEachSeries(func(name, help, kind string, labels []Label, ctr *Counter, gauge *Gauge, hist *Histogram) {
		if n := len(snap.Families); n == 0 || snap.Families[n-1].Name != name {
			snap.Families = append(snap.Families, FamilySnapshot{Name: name, Help: help, Kind: kind})
		}
		ss := SeriesSnapshot{Labels: labels}
		switch {
		case ctr != nil:
			ss.Value = int64(ctr.Value())
		case gauge != nil:
			ss.Value = gauge.Value()
		default:
			b := hist.Buckets()
			ss.Count, ss.Sum = hist.Count(), hist.Sum()
			// Trim trailing empty buckets; exporters re-derive bounds.
			hi := len(b)
			for hi > 0 && b[hi-1] == 0 {
				hi--
			}
			ss.Buckets = append([]uint64(nil), b[:hi]...)
		}
		f := &snap.Families[len(snap.Families)-1]
		f.Series = append(f.Series, ss)
	})
	return snap
}

// SeriesKey renders "name{k1=v1,k2=v2}" (or bare name when unlabeled) —
// the flat key used by Counters and DiffCounters.
func SeriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counters flattens the snapshot's counter series into key -> value.
func (s Snapshot) Counters() map[string]uint64 {
	out := map[string]uint64{}
	for _, f := range s.Families {
		if f.Kind != "counter" {
			continue
		}
		for _, ser := range f.Series {
			out[SeriesKey(f.Name, ser.Labels)] = uint64(ser.Value)
		}
	}
	return out
}

// CounterValue finds one counter series by name and exact label set.
func (s Snapshot) CounterValue(name string, labels ...Label) uint64 {
	ls, _ := canonLabels(labels)
	return s.Counters()[SeriesKey(name, ls)]
}

// DiffCounters returns after-minus-before deltas for every counter
// series present in after, omitting zero deltas — the payload attached
// to BENCH_*.json entries.
func DiffCounters(before, after Snapshot) map[string]uint64 {
	b := before.Counters()
	out := map[string]uint64{}
	for k, v := range after.Counters() {
		if d := v - b[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
