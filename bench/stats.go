package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is what the acceptance rule for this
// benchmark is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	at := func(i int) float64 {
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// pctNs is the nearest-rank p-quantile (0..1) of sorted samples.
func pctNs(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapMiB is the live heap: what the state still referenced (engine
// instances, timers, queues) adds up to. Two collections, because the
// first only moves sync.Pool contents to the victim cache; HeapAlloc
// rather than HeapInuse, because span fragmentation made the latter
// differ by 15 % between identical churn-timeouts runs while the live
// bytes agreed to four digits.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs is the process-wide heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// envStamp describes where a row was measured; every output row of
// -agree and the header of every run carries it.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func stampEnv() envStamp {
	st := envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	// `go run` does not stamp the binary; ask git, when run from the root
	// of a work tree.
	if _, err := os.Stat(".git"); err == nil && st.Commit == "unknown" {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			st.Commit = strings.TrimSpace(string(b))
		}
	}
	return st
}

// meter measures one closed-loop phase in windows: the rate of applied
// events and the CPU spent per applied event, window by window. What
// is reported is the median over windows — one descheduled second, or
// a neighbour's burst on a shared box, moves one window and not the
// median.
type meter struct {
	window time.Duration
	n0     uint64
	gc0    float64
	edge   time.Time
	lastT  time.Time
	lastN  uint64
	lastC  int64
	rates  []float64 // events/s, per window
	cpus   []float64 // CPU ns per event, per window
}

func newMeter(window time.Duration, applied uint64) *meter {
	now := time.Now()
	return &meter{window: window, n0: applied, gc0: gcCPUSeconds(), edge: now.Add(window),
		lastT: now, lastN: applied, lastC: cpuNs()}
}

// roll closes the current window when now has passed its edge and
// reports whether it did. appliedFn reads the engine-applied event
// total; it is only called at a window edge, so it may be costly.
func (m *meter) roll(now time.Time, appliedFn func() uint64) bool {
	if now.Before(m.edge) {
		return false
	}
	m.close(now, appliedFn())
	return true
}

func (m *meter) close(now time.Time, applied uint64) {
	cpu := cpuNs()
	if n := applied - m.lastN; n > 0 {
		m.rates = append(m.rates, float64(n)/now.Sub(m.lastT).Seconds())
		m.cpus = append(m.cpus, float64(cpu-m.lastC)/float64(n))
	}
	m.lastT, m.lastN, m.lastC = now, applied, cpu
	m.edge = now.Add(m.window)
}

// finish returns the median window rate, the median window CPU ns per
// applied event, and the events applied over the whole phase. The
// phase's tail (its drain) is closed as a last window when no window
// closed before it; a partial tail is otherwise left out.
func (m *meter) finish(applied uint64) (eventsPerS, cpuNsPerEvent float64, events uint64) {
	if len(m.rates) == 0 {
		m.close(time.Now(), applied)
	}
	return median(m.rates), median(m.cpus), applied - m.n0
}

// gcNs is the garbage collector's CPU over the phase per applied event, by the
// runtime's own accounting: the one cost of a layer's allocations that
// lands outside every call into it.
func (m *meter) gcNs(applied uint64) float64 {
	if applied == m.n0 {
		return 0
	}
	return (gcCPUSeconds() - m.gc0) * 1e9 / float64(applied-m.n0)
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
