package core

import (
	"sync/atomic"

	"switchmon/internal/obs"
)

// statsCell is the monitor's live counter storage: one atomic word per
// Stats field. The engine mutates it from its single driving goroutine;
// Stats() assembles a snapshot with atomic loads, so observers (a
// metrics scrape, an operator polling a split-mode worker) can read
// concurrently without a lock and without racing the hot path.
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

// snapshot reads every counter atomically into a plain Stats value.
// Fields are loaded independently: the snapshot is per-counter atomic,
// not a cross-counter transaction — sufficient for monitoring, and the
// strongest guarantee available without stalling the event path.
func (c *statsCell) snapshot() Stats {
	return Stats{
		Events:        c.events.Load(),
		Created:       c.created.Load(),
		Advanced:      c.advanced.Load(),
		Violations:    c.violations.Load(),
		Discharged:    c.discharged.Load(),
		Expired:       c.expired.Load(),
		Deduped:       c.deduped.Load(),
		Refreshed:     c.refreshed.Load(),
		Suppressed:    c.suppressed.Load(),
		Evicted:       c.evicted.Load(),
		DroppedEvents: c.droppedEvents.Load(),
	}
}

// monitorMetrics holds the engine-level telemetry handles, resolved
// once at construction so the event path never touches the registry.
// All handles are nil-safe no-ops when telemetry is disabled, but the
// struct pointer itself is nil in that case and the hot path checks it
// once per event, keeping every clock read off the free path.
type monitorMetrics struct {
	// events counts applied events; eventNs is the apply latency
	// histogram, a weighted one-in-timeGapMean sample of them.
	events  *obs.Counter
	eventNs *obs.Histogram
	// occupancy tracks the live instance population (the instance-table
	// occupancy the Sec. 3.3 scalability argument is about); pending
	// tracks the split-mode queue depth.
	occupancy *obs.Gauge
	pending   *obs.Gauge
	dropped   *obs.Counter
}

// propMetrics holds one property's counter handles. The series carry
// only the property label — deliberately not the monitor's extra
// labels — so every shard of a ShardedMonitor resolves to the same
// atomic counters and the registry's view is the cross-shard aggregate.
type propMetrics struct {
	// events counts events examined by this property's matcher. Under
	// sharding this is an execution-strategy metric (the router skips
	// deliveries a single engine would have scanned); the remaining
	// counters are routing-invariant and must agree with an inline run.
	events     *obs.Counter
	matches    *obs.Counter
	violations *obs.Counter
	timeouts   *obs.Counter
	discharged *obs.Counter
	expired    *obs.Counter
}

// newMonitorMetrics registers the engine-level series.
func newMonitorMetrics(reg *obs.Registry, labels []obs.Label) *monitorMetrics {
	return &monitorMetrics{
		events:    reg.Counter("switchmon_monitor_events_total", "Events applied to monitor state.", labels...),
		eventNs:   reg.Histogram("switchmon_monitor_event_ns", "Per-event monitor processing latency in nanoseconds, from a weighted sample of events.", labels...),
		occupancy: reg.Gauge("switchmon_monitor_instances", "Live (filed) monitor instances.", labels...),
		pending:   reg.Gauge("switchmon_monitor_pending_events", "Split-mode queued events awaiting Flush.", labels...),
		dropped:   reg.Counter("switchmon_monitor_dropped_events_total", "Split-mode queue overflow drops.", labels...),
	}
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

// newPropMetrics registers one property's counter series.
func newPropMetrics(reg *obs.Registry, name string) propMetrics {
	l := obs.L("property", name)
	return propMetrics{
		events:     reg.Counter("switchmon_property_events_total", "Events examined by the property's matcher.", l),
		matches:    reg.Counter("switchmon_property_matches_total", "Pattern matches that created or advanced an instance.", l),
		violations: reg.Counter("switchmon_property_violations_total", "Completed violation patterns.", l),
		timeouts:   reg.Counter("switchmon_property_timeouts_total", "Deadline firings: negative-observation advances plus window expiries.", l),
		discharged: reg.Counter("switchmon_property_discharged_total", "Instances discharged by guards or awaited events.", l),
		expired:    reg.Counter("switchmon_property_expired_total", "Instances whose positive-stage window lapsed.", l),
	}
}
