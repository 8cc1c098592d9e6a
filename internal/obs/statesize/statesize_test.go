package statesize

import (
	"fmt"
	"testing"

	"switchmon/internal/obs"
)

func TestAccountingTotalsAndShardBreakdown(t *testing.T) {
	tr := NewTracker(Config{Shards: 2})
	tr.InstallTenant(0, "p0", "")
	h0 := tr.Handle(0, 0)
	h1 := tr.Handle(0, 1)

	h0.File(11, 100)
	h0.File(12, 100)
	h1.File(13, 40)
	h0.ArmTimer()
	h1.ArmTimer()
	h1.DisarmTimer()
	h0.Unfile(100)
	tr.PoolPut(0)
	tr.PoolPut(0)
	tr.PoolGet(0)
	tr.PoolPut(1)

	r := tr.Report()
	if len(r.Properties) != 1 {
		t.Fatalf("properties = %d, want 1", len(r.Properties))
	}
	p := r.Properties[0]
	if p.Property != "p0" {
		t.Fatalf("property name = %q", p.Property)
	}
	if p.Live != 2 || p.Bytes != 140 || p.Timers != 1 || p.Filings != 3 {
		t.Fatalf("totals = live %d bytes %d timers %d filings %d, want 2/140/1/3",
			p.Live, p.Bytes, p.Timers, p.Filings)
	}
	if r.Pooled != 2 {
		t.Fatalf("pooled = %d, want 2", r.Pooled)
	}
	if len(r.PooledPerShard) != 2 || r.PooledPerShard[0] != 1 || r.PooledPerShard[1] != 1 {
		t.Fatalf("pooled per shard = %v", r.PooledPerShard)
	}
	if len(p.Shards) != 2 {
		t.Fatalf("shard breakdown = %v", p.Shards)
	}
	s0, s1 := p.Shards[0], p.Shards[1]
	if s0.Live != 1 || s0.Bytes != 100 || s0.Timers != 1 || s0.Filings != 2 {
		t.Fatalf("shard 0 = %+v", s0)
	}
	if s1.Live != 1 || s1.Bytes != 40 || s1.Timers != 0 || s1.Filings != 1 {
		t.Fatalf("shard 1 = %+v", s1)
	}
}

func TestSingleShardReportOmitsBreakdown(t *testing.T) {
	tr := NewTracker(Config{Shards: 1})
	tr.InstallTenant(0, "p0", "")
	tr.Handle(0, 0).File(1, 10)
	r := tr.Report()
	if r.PooledPerShard != nil {
		t.Fatalf("single-shard report has pooled breakdown %v", r.PooledPerShard)
	}
	if r.Properties[0].Shards != nil {
		t.Fatalf("single-shard report has shard breakdown %v", r.Properties[0].Shards)
	}
}

func TestSketchExactWhenUnderCapacity(t *testing.T) {
	tr := NewTracker(Config{Shards: 1, TopK: 16, SampleN: 1})
	tr.InstallTenant(0, "p0", "")
	h := tr.Handle(0, 0)
	// 8 distinct keys with distinct filing counts, interleaved.
	want := map[uint64]uint64{}
	for round := uint64(1); round <= 8; round++ {
		for key := uint64(100); key < 100+round; key++ {
			h.File(key, 1)
			want[key]++
		}
	}
	top := tr.Report().Properties[0].TopKeys
	if len(top) != 8 {
		t.Fatalf("topk entries = %d, want 8", len(top))
	}
	for i, kw := range top {
		if kw.MaxOver != 0 {
			t.Fatalf("entry %d key %s has error %d; under capacity all counts are exact", i, kw.Key, kw.MaxOver)
		}
		var key uint64
		if _, err := fmt.Sscanf(kw.Key, "0x%x", &key); err != nil {
			t.Fatalf("unparseable key %q: %v", kw.Key, err)
		}
		if want[key] != kw.Filings {
			t.Fatalf("key %#x: filings %d, want %d", key, kw.Filings, want[key])
		}
		if i > 0 && top[i-1].Filings < kw.Filings {
			t.Fatalf("topk not sorted descending at %d: %v", i, top)
		}
	}
}

// TestSketchSpaceSavingBound overloads a tiny sketch with more distinct
// keys than slots and checks the space-saving guarantee for every
// surviving key: filings-maxover <= true <= filings, and the globally
// heaviest key is reported heaviest.
func TestSketchSpaceSavingBound(t *testing.T) {
	const k = 4
	tr := NewTracker(Config{Shards: 1, TopK: k, SampleN: 1})
	tr.InstallTenant(0, "p0", "")
	h := tr.Handle(0, 0)
	// Skewed workload: key 1 files 64 times, key 2 files 32, ... key 12
	// files once — 12 distinct keys through 4 slots.
	truth := map[uint64]uint64{}
	for i := 0; i < 6; i++ {
		truth[uint64(i+1)] = 64 >> i
	}
	for i := 6; i < 12; i++ {
		truth[uint64(i+1)] = 1
	}
	// Interleave round-robin so light keys keep contending for slots.
	remaining := map[uint64]uint64{}
	for key, n := range truth {
		remaining[key] = n
	}
	for len(remaining) > 0 {
		for key := uint64(1); key <= 12; key++ {
			if remaining[key] > 0 {
				h.File(key, 1)
				remaining[key]--
				if remaining[key] == 0 {
					delete(remaining, key)
				}
			}
		}
	}
	top := tr.Report().Properties[0].TopKeys
	if len(top) != k {
		t.Fatalf("topk entries = %d, want %d", len(top), k)
	}
	for _, kw := range top {
		var key uint64
		fmt.Sscanf(kw.Key, "0x%x", &key)
		lo := kw.Filings - kw.MaxOver
		if tc := truth[key]; tc > kw.Filings || tc < lo {
			t.Fatalf("key %#x: bound [%d,%d] misses true count %d", key, lo, kw.Filings, tc)
		}
	}
	var heaviest uint64
	fmt.Sscanf(top[0].Key, "0x%x", &heaviest)
	if heaviest != 1 {
		t.Fatalf("heaviest reported key = %#x, want 1 (64 filings)", heaviest)
	}
}

func TestSketchMergesAcrossShards(t *testing.T) {
	tr := NewTracker(Config{Shards: 2, TopK: 8, SampleN: 1})
	tr.InstallTenant(0, "p0", "")
	h0, h1 := tr.Handle(0, 0), tr.Handle(0, 1)
	for i := 0; i < 5; i++ {
		h0.File(7, 1)
	}
	for i := 0; i < 3; i++ {
		h1.File(7, 1)
	}
	h1.File(9, 1)
	top := tr.Report().Properties[0].TopKeys
	if len(top) != 2 {
		t.Fatalf("topk = %v, want two keys", top)
	}
	if top[0].Key != fmt.Sprintf("%#016x", uint64(7)) || top[0].Filings != 8 {
		t.Fatalf("merged head = %+v, want key 7 with 8 filings", top[0])
	}
}

func TestSamplingScalesEstimates(t *testing.T) {
	const n = 8
	tr := NewTracker(Config{Shards: 1, TopK: 8, SampleN: n})
	tr.InstallTenant(0, "p0", "")
	h := tr.Handle(0, 0)
	// Find a key in the sampled class and one outside it.
	var sampled, skipped uint64
	for k := uint64(1); sampled == 0 || skipped == 0; k++ {
		if obs.InSample(k, n) {
			if sampled == 0 {
				sampled = k
			}
		} else if skipped == 0 {
			skipped = k
		}
	}
	for i := 0; i < 10; i++ {
		h.File(sampled, 1)
		h.File(skipped, 1)
	}
	top := tr.Report().Properties[0].TopKeys
	if len(top) != 1 {
		t.Fatalf("topk = %v, want only the sampled key", top)
	}
	if top[0].Filings != 10*n {
		t.Fatalf("scaled estimate = %d, want %d", top[0].Filings, 10*n)
	}
	if got := tr.Report().Properties[0].Filings; got != 20 {
		t.Fatalf("filings counter = %d, want 20 (sampling affects the sketch only)", got)
	}
}

func TestWatermarkPressureAndHysteresis(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracker(Config{Shards: 1, Watermark: 8, Metrics: reg})
	tr.InstallTenant(0, "p0", "")
	h := tr.Handle(0, 0)
	for i := 0; i < 8; i++ {
		h.File(uint64(i), 1)
	}
	if tr.Report().Properties[0].Pressure {
		t.Fatal("pressure raised at watermark; should require exceeding it")
	}
	h.File(99, 1)
	p := tr.Report().Properties[0]
	if !p.Pressure || p.Crossings != 1 {
		t.Fatalf("after crossing: pressure=%v crossings=%d, want true/1", p.Pressure, p.Crossings)
	}
	// Dropping just below the watermark is not enough to clear...
	h.Unfile(1)
	h.Unfile(1)
	if !tr.Report().Properties[0].Pressure {
		t.Fatal("pressure cleared without hysteresis margin")
	}
	// ...but falling to 3/4 of it is (8 - 8>>2 = 6).
	h.Unfile(1)
	if p := tr.Report().Properties[0]; p.Pressure {
		t.Fatalf("pressure still set at live=%d, want cleared at <=6", p.Live)
	}
	// Re-crossing counts again.
	for i := 0; i < 3; i++ {
		h.File(uint64(200+i), 1)
	}
	if p := tr.Report().Properties[0]; !p.Pressure || p.Crossings != 2 {
		t.Fatalf("after re-crossing: pressure=%v crossings=%d, want true/2", p.Pressure, p.Crossings)
	}
	g := reg.Gauge("switchmon_state_pressure", "", obs.L("property", "p0"))
	if g.Value() != 1 {
		t.Fatalf("pressure gauge = %d, want 1", g.Value())
	}
	c := reg.Counter("switchmon_state_pressure_crossings_total", "", obs.L("property", "p0"))
	if c.Value() != 2 {
		t.Fatalf("crossings counter = %d, want 2", c.Value())
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracker
	tr.InstallTenant(0, "x", "")
	tr.PoolGet(0)
	tr.PoolPut(0)
	if h := tr.Handle(0, 0); h != nil {
		t.Fatal("nil tracker returned non-nil handle")
	}
	if r := tr.Report(); len(r.Properties) != 0 {
		t.Fatalf("nil tracker report = %+v", r)
	}
	var h *Handle
	h.File(1, 1)
	h.Unfile(1)
	h.ArmTimer()
	h.DisarmTimer()
	if h.Sketching() {
		t.Fatal("nil handle claims to sketch")
	}
}

func TestInstallIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracker(Config{Shards: 2, TopK: 4, Metrics: reg})
	tr.InstallTenant(0, "p0", "")
	h := tr.Handle(0, 0)
	h.File(1, 10)
	tr.InstallTenant(0, "p0", "") // second shard installing the same property
	if got := tr.Report().Properties[0].Live; got != 1 {
		t.Fatalf("re-install reset accounting: live = %d, want 1", got)
	}
}

func TestZeroKeyRemapped(t *testing.T) {
	tr := NewTracker(Config{Shards: 1, TopK: 4, SampleN: 1})
	tr.InstallTenant(0, "p0", "")
	h := tr.Handle(0, 0)
	h.File(0, 1)
	top := tr.Report().Properties[0].TopKeys
	if len(top) != 1 || top[0].Filings != 1 {
		t.Fatalf("zero key not counted: %v", top)
	}
}
