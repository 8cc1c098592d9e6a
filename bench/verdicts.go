package main

import (
	"sync"
	"time"

	"switchmon/internal/core"
)

// vkey identifies one expected violation: which property, and the
// virtual time the engine will stamp on the report. Generators emit
// strictly increasing virtual times, so a key is unique.
type vkey struct {
	prop uint8
	at   int64
}

// verdicts is the analytic reference. The generator — never an engine —
// decides which of the events it emits complete a violation and calls
// expect before handing the event over; the engines' OnViolation hook
// calls observe. What is left in pending (missed) plus what arrived
// unannounced (extra) is the symmetric difference of the two multisets.
//
// The same correlation gives detection latency: expect records the wall
// time the violating event was due (open loop) or handed in (closed
// loop), observe takes the clock first thing on entry.
type verdicts struct {
	names []string

	mu      sync.Mutex
	pending map[vkey]int64 // expected, not yet seen → wall start ns (0: no latency sample)
	extra   map[uint8]uint64
	// Detection-latency samples: cur is the open window; p50s/p99s are
	// per closed window; all keeps every sample of the phase for the
	// all-sample tail reported per layer.
	cur  []int64
	all  []int64
	p50s []float64
	p99s []float64
}

func newVerdicts(props ...string) *verdicts {
	return &verdicts{names: props, pending: map[vkey]int64{}, extra: map[uint8]uint64{}}
}

// expect announces a violation of property prop stamped at virtual time
// at; startWall is the wall-clock ns latency is measured from.
func (v *verdicts) expect(prop uint8, at, startWall int64) {
	v.mu.Lock()
	v.pending[vkey{prop, at}] = startWall
	v.mu.Unlock()
}

// observe is the engines' OnViolation hook. Sharded engines call it
// from shard goroutines.
func (v *verdicts) observe(viol *core.Violation) {
	now := time.Now().UnixNano()
	prop := uint8(len(v.names))
	for i, n := range v.names {
		if n == viol.Property {
			prop = uint8(i)
			break
		}
	}
	k := vkey{prop, viol.Time.UnixNano()}
	v.mu.Lock()
	defer v.mu.Unlock()
	start, ok := v.pending[k]
	if !ok {
		v.extra[prop]++
		return
	}
	delete(v.pending, k)
	if start != 0 {
		d := now - start
		v.cur = append(v.cur, d)
		v.all = append(v.all, d)
	}
}

// minWindowSamples is the fewest samples a window needs before its
// percentiles count: below it a p99 is just the maximum.
const minWindowSamples = 100

// rollWindow closes the open latency window.
func (v *verdicts) rollWindow() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.cur) >= minWindowSamples {
		s := sortedCopy(v.cur)
		v.p50s = append(v.p50s, float64(pctNs(s, 0.50))/1e3)
		v.p99s = append(v.p99s, float64(pctNs(s, 0.99))/1e3)
	}
	v.cur = v.cur[:0]
}

// forget drops every expectation and unannounced verdict, once errors
// has judged them, so a later phase is judged on its own.
func (v *verdicts) forget() {
	v.mu.Lock()
	defer v.mu.Unlock()
	clear(v.pending)
	clear(v.extra)
}

// resetLatency drops every latency sample, so a new phase starts clean.
func (v *verdicts) resetLatency() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.cur, v.all, v.p50s, v.p99s = v.cur[:0], nil, nil, nil
}

// detect returns the median of per-window p50 and p99 (µs), the
// all-sample p99 and max (µs), and the sample count. A phase too short
// to close a window reports its all-sample percentiles instead.
func (v *verdicts) detect() (p50, p99, p99All, max float64, samples int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := sortedCopy(v.all)
	samples = len(s)
	if samples > 0 {
		p99All = float64(pctNs(s, 0.99)) / 1e3
		max = float64(s[samples-1]) / 1e3
	}
	if len(v.p50s) == 0 {
		return float64(pctNs(s, 0.50)) / 1e3, p99All, p99All, max, samples
	}
	return median(v.p50s), median(v.p99s), p99All, max, samples
}

// errors sizes the symmetric difference. Expectations stamped after
// horizon (virtual ns) are not yet decidable — the engine's clock never
// got there — and are skipped. A property carrying a ledger mark has
// admitted it may have missed events, so its missing verdicts are not
// errors (the lost events count as failed instead); a verdict it
// reports that the generator never announced still is.
func (v *verdicts) errors(led *core.Ledger, horizon int64) uint64 {
	marked := map[string]bool{}
	if led != nil {
		for _, m := range led.Snapshot() {
			marked[m.Property] = true
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	var n uint64
	for _, c := range v.extra {
		n += c
	}
	for k := range v.pending {
		if k.at > horizon || marked[v.names[k.prop]] {
			continue
		}
		n++
	}
	return n
}
