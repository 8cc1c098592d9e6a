package core

import (
	"sync/atomic"

	"switchmon/internal/obs"
)

// statsCell is the monitor's live counter storage: one atomic word per
// Stats field, the only store of each. The engine mutates it from its
// single driving goroutine; Stats() and the registry's series read it
// with atomic loads, so observers (a metrics scrape, an operator polling
// a split-mode worker) read concurrently without a lock and without
// racing the hot path.
type statsCell struct {
	events        atomic.Uint64
	created       atomic.Uint64
	advanced      atomic.Uint64
	violations    atomic.Uint64
	discharged    atomic.Uint64
	expired       atomic.Uint64
	deduped       atomic.Uint64
	refreshed     atomic.Uint64
	suppressed    atomic.Uint64
	evicted       atomic.Uint64
	droppedEvents atomic.Uint64
}

// addTo adds every counter to s, each read atomically. Fields are
// loaded independently: the sum is per-counter atomic, not a
// cross-counter transaction — sufficient for monitoring, and the
// strongest guarantee available without stalling the event path.
func (c *statsCell) addTo(s *Stats) {
	s.Events += c.events.Load()
	s.Created += c.created.Load()
	s.Advanced += c.advanced.Load()
	s.Violations += c.violations.Load()
	s.Discharged += c.discharged.Load()
	s.Expired += c.expired.Load()
	s.Deduped += c.deduped.Load()
	s.Refreshed += c.refreshed.Load()
	s.Suppressed += c.suppressed.Load()
	s.Evicted += c.evicted.Load()
	s.DroppedEvents += c.droppedEvents.Load()
}

// instrument registers the monitor's engine-level series: read-through
// ones over the counts the monitor keeps anyway, so an applied event
// pays for its accounting once, and eventNs, the weighted
// one-in-timeGapMean sample of apply latency.
func (m *Monitor) instrument(reg *obs.Registry, labels []obs.Label) {
	reg.CounterFunc("switchmon_monitor_events_total", "Events applied to monitor state.", m.stats.events.Load, labels...)
	m.eventNs = reg.Histogram("switchmon_monitor_event_ns", "Per-event monitor processing latency in nanoseconds, from a weighted sample of events.", labels...)
	reg.GaugeFunc("switchmon_monitor_instances", "Live (filed) monitor instances.", m.live.Load, labels...)
	reg.GaugeFunc("switchmon_monitor_pending_events", "Split-mode queued events awaiting Flush.", m.pendingN.Load, labels...)
	reg.CounterFunc("switchmon_monitor_dropped_events_total", "Split-mode queue overflow drops.", m.stats.droppedEvents.Load, labels...)
}

// shardedMetrics holds the ShardedMonitor router's telemetry handles:
// how events fan out, how much of the stream is pinned to the catch-all
// shard, and how full the handed-off batches run.
type shardedMetrics struct {
	// events counts Submit calls; deliveries counts per-shard copies
	// (>= events when routes fan out, < when events are unroutable).
	events     *obs.Counter
	deliveries *obs.Counter
	// catchall counts events delivered to shard 0 because at least one
	// property has no stable shard key; catchall/events is the router
	// catch-all ratio — the fraction of the stream that cannot
	// parallelize.
	catchall   *obs.Counter
	unroutable *obs.Counter
	// batchSize is the histogram of batch lengths handed to shard
	// goroutines (shardBatchSize-capped; Barrier flushes partials).
	batchSize *obs.Histogram
}

// newShardedMetrics registers the router-side series.
func newShardedMetrics(reg *obs.Registry, labels []obs.Label) *shardedMetrics {
	return &shardedMetrics{
		events:     reg.Counter("switchmon_router_events_total", "Events submitted to the sharded router.", labels...),
		deliveries: reg.Counter("switchmon_router_deliveries_total", "Per-shard event deliveries (fan-out included).", labels...),
		catchall:   reg.Counter("switchmon_router_catchall_events_total", "Events pinned to the catch-all shard by an unshardable property.", labels...),
		unroutable: reg.Counter("switchmon_router_unroutable_events_total", "Events no property could act on, dropped at the router.", labels...),
		batchSize:  reg.Histogram("switchmon_shard_batch_events", "Events per batch handed to a shard goroutine.", labels...),
	}
}

// propCounter names one per-property count: an index into propCell.
type propCounter int

const (
	// propEvents counts events the property's matcher examined: under
	// sharding an execution-strategy metric (the router skips deliveries
	// an inline engine scans), unlike the routing-invariant rest.
	propEvents propCounter = iota
	propMatches
	propViolations
	propTimeouts
	propDischarged
	propExpired
	numPropCounters
)

// propSeries names and describes each propCounter's series.
var propSeries = [numPropCounters]struct{ name, help string }{
	propEvents:     {"switchmon_property_events_total", "Events examined by the property's matcher."},
	propMatches:    {"switchmon_property_matches_total", "Pattern matches that created or advanced an instance."},
	propViolations: {"switchmon_property_violations_total", "Completed violation patterns."},
	propTimeouts:   {"switchmon_property_timeouts_total", "Deadline firings: negative-observation advances plus window expiries."},
	propDischarged: {"switchmon_property_discharged_total", "Instances discharged by guards or awaited events."},
	propExpired:    {"switchmon_property_expired_total", "Instances whose positive-stage window lapsed."},
}

// propCell is one property's counters on one shard, written only by
// that shard's monitor and padded to its own cache line. A nil cell — an
// engine with no registry — counts nothing.
type propCell struct {
	n [numPropCounters]atomic.Uint64
	_ [64 - numPropCounters*8]byte
}

// inc counts one for c's counter i.
func (c *propCell) inc(i propCounter) {
	if c != nil {
		c.n[i].Add(1)
	}
}

// newPropCounts registers a property's counter series and returns their
// cells, one per shard (nil without a registry), and the series' retire.
// The series sum the cells when read and carry only the property label
// — not the monitor's extra labels — so shards and engines sharing a
// registry read one aggregate per property.
func newPropCounts(reg *obs.Registry, name string, shards int) (cells []propCell, retire func()) {
	if reg == nil {
		return nil, func() {}
	}
	cells = make([]propCell, shards)
	var retires [numPropCounters]func()
	for i, s := range propSeries {
		retires[i] = reg.CounterFunc(s.name, s.help, func() (n uint64) {
			for c := range cells {
				n += cells[c].n[i].Load()
			}
			return n
		}, obs.L("property", name))
	}
	return cells, func() {
		for _, r := range retires {
			r()
		}
	}
}
