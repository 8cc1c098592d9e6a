package export

import (
	"runtime"
	"runtime/metrics"
	"sync"

	"switchmon/internal/obs"
)

// runtimeRead returns a read function summing the named runtime/metrics
// samples; metrics.Read stops nothing, and mu guards the buffer.
func runtimeRead(names ...string) func() uint64 {
	var mu sync.Mutex
	s := make([]metrics.Sample, len(names))
	for i, name := range names {
		s[i].Name = name
	}
	return func() (n uint64) {
		mu.Lock()
		defer mu.Unlock()
		metrics.Read(s)
		for i := range s {
			n += s[i].Value.Uint64()
		}
		return n
	}
}

// runtimeCollector serves Go runtime health in a registry: goroutines,
// heap occupancy and GC cycles read the runtime whenever the registry is
// read (so /query sees them with no /metrics request); the GC pause
// histogram is pull-driven, collect observing each pause since the last
// /metrics scrape once, mutex-guarded so concurrent scrapes neither race
// nor double-count.
type runtimeCollector struct {
	gcPauseNs *obs.Histogram

	mu     sync.Mutex
	lastGC uint32 // NumGC high-water mark: pauses up to here are observed
}

func newRuntimeCollector(reg *obs.Registry) *runtimeCollector {
	gauge := func(read func() uint64) func() int64 { return func() int64 { return int64(read()) } }
	heapAlloc := "/memory/classes/heap/objects:bytes" // MemStats.HeapAlloc
	reg.GaugeFunc("switchmon_go_goroutines", "Live goroutines at the last scrape.", gauge(runtimeRead("/sched/goroutines:goroutines")))
	reg.GaugeFunc("switchmon_go_heap_alloc_bytes", "Heap bytes allocated and still in use.", gauge(runtimeRead(heapAlloc)))
	// The heap's four memory classes sum to MemStats.HeapSys.
	reg.GaugeFunc("switchmon_go_heap_sys_bytes", "Heap bytes obtained from the OS.", gauge(runtimeRead(heapAlloc,
		"/memory/classes/heap/unused:bytes", "/memory/classes/heap/free:bytes", "/memory/classes/heap/released:bytes")))
	reg.GaugeFunc("switchmon_go_heap_objects", "Live heap objects.", gauge(runtimeRead("/gc/heap/objects:objects")))
	reg.CounterFunc("switchmon_go_gc_cycles_total", "Completed GC cycles.", runtimeRead("/gc/cycles/total:gc-cycles"))
	return &runtimeCollector{
		gcPauseNs: reg.Histogram("switchmon_go_gc_pause_ns", "Stop-the-world GC pause durations, nanoseconds."),
	}
}

// collect observes the GC pauses since the previous call. Nil-safe (a
// mux with no registry has no collector).
func (rc *runtimeCollector) collect() {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// PauseNs is a circular buffer of the last 256 pauses; the pause of
	// GC cycle i lives at PauseNs[(i+255)%256]. Observe each cycle since
	// the previous scrape exactly once, clamping to the buffer depth
	// when more than 256 cycles passed between scrapes.
	first := rc.lastGC + 1
	if ms.NumGC > 256 && first < ms.NumGC-255 {
		first = ms.NumGC - 255
	}
	for i := first; i <= ms.NumGC; i++ {
		rc.gcPauseNs.Observe(ms.PauseNs[(i+255)%256])
	}
	rc.lastGC = ms.NumGC
}
