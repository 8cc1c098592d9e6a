package obs

import (
	"sync"
	"time"

	"switchmon/internal/packet"
)

// TraceStep is one stage of a violation's provenance history (ProvFull
// only). The engine keeps an instance's history as TraceSteps, so a
// report and its ring record share one history slice.
type TraceStep struct {
	Stage int       `json:"stage"`
	Label string    `json:"label"`
	Time  time.Time `json:"time"`
	// Event is the summary of the advancing event; "timeout" for negative
	// observations advanced by their deadline.
	Event string `json:"event"`
}

// Binding is one variable of a violation report and the value the
// instance bound it to.
type Binding struct {
	Var   string
	Value packet.Value
}

// TraceRecord is one violation with as much provenance as the
// monitor's configured level allowed: bindings at limited and above,
// History at full. Seq is the record's position in the total stream
// (stamped by the ring, from 0), so a reader can detect records it
// missed after wraparound.
//
// A recorded TraceRecord holds the report's own slices: Values (the
// bindings in variable-name order) and History are shared with the
// Violation the engine handed its callback, and nobody may write to
// them. Bindings, the rendered form /violations serves, is built from
// Values only on read (RenderBindings), so recording a violation
// renders nothing.
type TraceRecord struct {
	Seq      uint64            `json:"seq"`
	Time     time.Time         `json:"time"`
	Property string            `json:"property"`
	Trigger  string            `json:"trigger"`
	Bindings map[string]string `json:"bindings,omitempty"`
	History  []TraceStep       `json:"history,omitempty"`
	Values   []Binding         `json:"-"`
}

// RenderBindings renders a report's bindings as /violations serves
// them, variable name to value string; nil when there are none. It is
// the one place a report's bindings become strings, and it runs only
// when someone reads them.
func RenderBindings(bs []Binding) map[string]string {
	if len(bs) == 0 {
		return nil
	}
	m := make(map[string]string, len(bs))
	for _, b := range bs {
		m[b.Var] = b.Value.String()
	}
	return m
}

// Ring is the violation ring: recent violation trace records, the
// paper's F10 provenance made inspectable at run time without unbounded
// memory. Shards share one ring.
type Ring = Log[TraceRecord]

// NewRing creates a violation ring holding up to capacity records
// (minimum 1). Its read stamp renders each returned copy's Bindings.
func NewRing(capacity int) *Ring {
	return NewLog(capacity, func(r *TraceRecord, seq uint64) {
		r.Seq = seq
		r.Bindings = RenderBindings(r.Values)
	})
}

// Page selects one incremental read of a Log: the records whose seq is
// strictly greater than Since (every retained record when !HasSince —
// so Since 0 with HasSince skips seq 0 only), then the newest Limit of
// those (all of them when Limit < 0).
type Page struct {
	Since    uint64
	HasSince bool
	Limit    int
}

// All reads every retained record.
var All = Page{Limit: -1}

// Log is the bounded, sequence-numbered record log behind every
// introspection stream (violations, completed spans, alert transitions).
// Records take seqs 0, 1, 2, ... in append order and a full log evicts
// its oldest, so retained seqs are contiguous: a page starting past
// since+1 proves records were missed. The mutex is off the hot path —
// writers append only on rare edges. All methods are nil-receiver safe.
type Log[T any] struct {
	mu    sync.Mutex
	buf   []T // seq s lives at buf[s%cap(buf)]
	total uint64
	stamp func(rec *T, seq uint64)
}

// NewLog creates a log holding up to capacity records (minimum 1).
// stamp finishes the copy a read returns — writes its seq, and renders
// whatever the stream defers to read time (the violation ring's
// bindings); records are stored unstamped, so appending never hands a
// pointer to stamp.
func NewLog[T any](capacity int, stamp func(rec *T, seq uint64)) *Log[T] {
	return &Log[T]{buf: make([]T, 0, max(capacity, 1)), stamp: stamp}
}

// Record appends rec as seq Total(), evicting the oldest record when
// full. A nil log drops it.
func (l *Log[T]) Record(rec T) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, rec)
	} else {
		l.buf[l.total%uint64(cap(l.buf))] = rec
	}
	l.total++
	l.mu.Unlock()
}

// Total reports how many records were ever appended.
func (l *Log[T]) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot copies every retained record, oldest first.
func (l *Log[T]) Snapshot() []T {
	recs, _ := l.Page(All)
	return recs
}

// Page copies the records p selects, oldest first and stamped with
// their seqs, together with the all-time total — both from one critical
// section, so the newest record of an unfiltered page is always seq
// total-1. A nil log returns nil, 0.
func (l *Log[T]) Page(p Page) ([]T, uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	total := l.total
	start := total - uint64(len(l.buf))
	if p.HasSince && p.Since >= start {
		start = total
		if p.Since < total {
			start = p.Since + 1
		}
	}
	if p.Limit >= 0 && total-start > uint64(p.Limit) {
		start = total - uint64(p.Limit)
	}
	out := make([]T, 0, total-start)
	for seq := start; seq < total; seq++ {
		out = append(out, l.buf[seq%uint64(cap(l.buf))])
	}
	l.mu.Unlock()
	for i := range out {
		l.stamp(&out[i], start+uint64(i))
	}
	return out, total
}
