package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced pass brackets every call the benchmark makes into a layer
// with a span, from the benchmark's side of the call. One batch in
// sampleBatches is traced; spans stay in memory until the run ends.
const sampleBatches = 64

// spanName says which call a span brackets.
type spanName uint8

const (
	spBatch spanName = iota
	spGen
	spDecode
	spInject
	spPublish
	spWrite
	spRead
	spSink
	spHandle
	spSubmit
	spTick
	spBarrier
	spTimers
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spBatch: "bench.batch", spGen: "gen.next", spDecode: "packet.Decode",
	spInject: "Switch.Inject", spPublish: "Exporter.Publish",
	spWrite: "conn.Write", spRead: "conn.Read", spSink: "Sink.SubmitBatch",
	spHandle: "Monitor.HandleEvent", spSubmit: "ShardedMonitor.SubmitBatch",
	spTick: "ShardedMonitor.Tick", spBarrier: "ShardedMonitor.Barrier",
	spTimers: "Scheduler.RunUntil",
}

// span is one bracketed call. parent indexes the span that caused it
// (-1 for a root); batch is the event-batch ordinal the spans of one
// batch share. It holds no pointers, so the garbage collector never scans the
// span store.
type span struct {
	start, end int64
	parent     int32
	batch      uint32
	events     uint32
	name       spanName
}

const spanChunk = 1 << 13

// spanRec holds the spans of one traced run, in fixed-size chunks so
// that recording never copies what is already recorded. begin/end are
// safe from any goroutine (the fabric records from the generator, the
// exporter's sender and the collector's reader).
type spanRec struct {
	mu     sync.Mutex
	chunks [][]span
	n      int32
	// inside is what an empty span measures of itself (one clock read);
	// around is what recording a span costs its parent beyond that.
	inside, around int64
}

// newSpanRec calibrates the recorder: what it measures, and costs,
// when the bracketed call is nothing at all.
func newSpanRec() *spanRec {
	cal := &spanRec{}
	const n = 4096
	t0 := time.Now()
	for i := 0; i < n; i++ {
		cal.end(cal.begin(spGen, -1, 0), 0)
	}
	total := int64(time.Since(t0)) / n
	durs := make([]int64, 0, n)
	cal.each(func(_ int32, s *span) { durs = append(durs, s.end-s.start) })
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	t := &spanRec{inside: durs[n/2]}
	if t.around = total - t.inside; t.around < 0 {
		t.around = 0
	}
	return t
}

func (t *spanRec) at(id int32) *span { return &t.chunks[id/spanChunk][id%spanChunk] }

func (t *spanRec) begin(name spanName, parent int32, batch uint32) int32 {
	t.mu.Lock()
	id := t.n
	if int(id/spanChunk) == len(t.chunks) {
		t.chunks = append(t.chunks, make([]span, spanChunk))
	}
	t.n++
	*t.at(id) = span{name: name, parent: parent, batch: batch, start: time.Now().UnixNano()}
	t.mu.Unlock()
	return id
}

func (t *spanRec) end(id int32, events int) {
	now := time.Now().UnixNano()
	t.mu.Lock()
	s := t.at(id)
	s.end, s.events = now, uint32(events)
	t.mu.Unlock()
}

// batchSpans records the spans of one batch — or, for its zero value
// (the batch is not sampled, or nothing is being traced), nothing: every
// method is then a compare and a return, so the loops are written once.
type batchSpans struct {
	t     *spanRec
	root  int32
	batch uint32
}

// sample opens batch no's root span if the batch is one of the sampled.
func (t *spanRec) sample(no uint32) batchSpans {
	if t == nil || no%sampleBatches != 0 {
		return batchSpans{}
	}
	return batchSpans{t, t.begin(spBatch, -1, no), no}
}

func (b batchSpans) begin(name spanName) int32 { return b.beginUnder(name, b.root) }

func (b batchSpans) beginUnder(name spanName, parent int32) int32 {
	if b.t == nil {
		return -1
	}
	return b.t.begin(name, parent, b.batch)
}

func (b batchSpans) end(id int32, events int) {
	if b.t != nil {
		b.t.end(id, events)
	}
}

// done closes the batch's root span over the events the batch was.
func (b batchSpans) done(events int) { b.end(b.root, events) }

func (t *spanRec) each(fn func(id int32, s *span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := int32(0); id < t.n; id++ {
		fn(id, t.at(id))
	}
}

// layerSelf aggregates one span name. A span's self time is its
// duration minus what its child spans cover and minus what recording
// itself and them cost.
type layerSelf struct {
	self   []int64 // sorted
	events uint64
}

func (l *layerSelf) calls() int { return len(l.self) }

// quantile is the q-quantile of the per-call self times (0 if none).
func (l *layerSelf) quantile(q float64) float64 {
	if l == nil {
		return 0
	}
	return float64(pctNs(l.self, q))
}

// mean is the mean per-call self time without the slowest call in a
// thousand: a span the scheduler sat on for milliseconds is the box's
// doing, not the layer's, while a slow tail that is the layer's own
// (a call that fires timers, say) stays in.
func (l *layerSelf) mean() float64 {
	keep := l.self[:len(l.self)-len(l.self)/1000]
	if len(keep) == 0 {
		return 0
	}
	var sum int64
	for _, ns := range keep {
		sum += ns
	}
	return float64(sum) / float64(len(keep))
}

func (t *spanRec) selfTimes() [numSpanNames]*layerSelf {
	covered := make([]int64, t.n)
	t.each(func(_ int32, s *span) {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start + t.around
		}
	})
	var out [numSpanNames]*layerSelf
	for i := range out {
		out[i] = &layerSelf{}
	}
	t.each(func(id int32, s *span) {
		self := s.end - s.start - covered[id] - t.inside
		if self < 0 {
			self = 0
		}
		l := out[s.name]
		l.self = append(l.self, self)
		l.events += uint64(s.events)
	})
	for _, l := range out {
		sort.Slice(l.self, func(i, j int) bool { return l.self[i] < l.self[j] })
	}
	return out
}

// write dumps the spans as NDJSON into dir.
func (t *spanRec) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".ndjson"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int32  `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Batch  uint32 `json:"batch"`
		Events uint32 `json:"events,omitempty"`
	}
	t.each(func(id int32, s *span) {
		if err == nil {
			err = enc.Encode(line{id, spanNames[s.name], s.start, s.end, s.parent, s.batch, s.events})
		}
	})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
