package obs

import "testing"

// TestHistQuantileEdges pins the quantile reader on the shapes histdb's
// derived series lean on: empty histograms, a single observation, and
// observations beyond the largest finite bucket bound (the overflow
// bucket at index 64).
func TestHistQuantileEdges(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var h Histogram
		b := h.Buckets()
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := HistQuantile(b[:], q); got != 0 {
				t.Fatalf("HistQuantile(empty, %v) = %d, want 0", q, got)
			}
		}
		if got := HistMaxBound(b[:]); got != 0 {
			t.Fatalf("HistMaxBound(empty) = %d, want 0", got)
		}
		if got := HistQuantile(nil, 0.5); got != 0 {
			t.Fatalf("HistQuantile(nil, 0.5) = %d, want 0", got)
		}
	})

	t.Run("single-sample", func(t *testing.T) {
		var h Histogram
		h.Observe(100) // bits.Len64(100) == 7 -> bucket 7, bound 127
		b := h.Buckets()
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := HistQuantile(b[:], q); got != 127 {
				t.Fatalf("HistQuantile(single, %v) = %d, want 127", q, got)
			}
		}
		if got := HistMaxBound(b[:]); got != 127 {
			t.Fatalf("HistMaxBound(single) = %d, want 127", got)
		}
	})

	t.Run("all-in-overflow-bucket", func(t *testing.T) {
		var h Histogram
		// 1<<63 has bit length 64: every observation lands in the last
		// bucket, whose bound is the full uint64 range.
		for i := 0; i < 10; i++ {
			h.Observe(1 << 63)
		}
		b := h.Buckets()
		want := ^uint64(0)
		for _, q := range []float64{0.5, 0.99, 1} {
			if got := HistQuantile(b[:], q); got != want {
				t.Fatalf("HistQuantile(overflow, %v) = %d, want %d", q, got, want)
			}
		}
		if got := HistMaxBound(b[:]); got != want {
			t.Fatalf("HistMaxBound(overflow) = %d, want %d", got, want)
		}
	})

	t.Run("trimmed-snapshot-buckets", func(t *testing.T) {
		// Snapshot trims trailing empty buckets; quantiles must agree
		// with the untrimmed array.
		var h Histogram
		for i := 0; i < 99; i++ {
			h.Observe(10) // bucket 4, bound 15
		}
		h.Observe(1000) // bucket 10, bound 1023
		full := h.Buckets()
		trimmed := full[:11]
		if got := HistQuantile(trimmed, 0.5); got != 15 {
			t.Fatalf("p50 = %d, want 15", got)
		}
		if got := HistQuantile(trimmed, 1); got != 1023 {
			t.Fatalf("p100 = %d, want 1023", got)
		}
		if got := HistQuantile(full[:], 0.5); got != 15 {
			t.Fatalf("untrimmed p50 = %d, want 15", got)
		}
	})
}

// TestRegistryGen pins the generation contract ForEachSeries consumers
// rely on: Gen moves exactly when a new series appears, and re-lookups
// of an existing series leave it unchanged.
func TestRegistryGen(t *testing.T) {
	r := NewRegistry()
	if r.Gen() != 0 {
		t.Fatalf("fresh registry Gen = %d, want 0", r.Gen())
	}
	c := r.Counter("a_total", "")
	g1 := r.Gen()
	if g1 == 0 {
		t.Fatal("Gen did not advance on first registration")
	}
	if again := r.Counter("a_total", ""); again != c {
		t.Fatal("re-registration returned a different instrument")
	}
	if r.Gen() != g1 {
		t.Fatalf("Gen moved on re-registration: %d -> %d", g1, r.Gen())
	}
	r.Gauge("b", "", L("x", "1"))
	if r.Gen() <= g1 {
		t.Fatalf("Gen did not advance on new series: %d", r.Gen())
	}

	var names []string
	r.ForEachSeries(func(name, _, _ string, labels []Label, ctr *Counter, gauge *Gauge, hist *Histogram) {
		names = append(names, SeriesKey(name, labels))
		switch name {
		case "a_total":
			if ctr == nil || gauge != nil || hist != nil {
				t.Errorf("a_total: wrong instrument pointers")
			}
		case "b":
			if gauge == nil {
				t.Errorf("b: gauge is nil")
			}
		}
	})
	if len(names) != 2 || names[0] != "a_total" || names[1] != "b{x=1}" {
		t.Fatalf("ForEachSeries order = %v, want [a_total b{x=1}]", names)
	}
}
