package backend

import (
	"runtime"

	"switchmon/internal/core"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// shardedCaps is Ideal's vector under its own name and mechanism cells.
var shardedCaps = amend(idealRow.caps, func(c *Capabilities) {
	c.Name = "Sharded Varanus (multi-core)"
	c.StateMechanism = "Sharded indexed instances"
	c.ProcessingMode = "Parallel"
})

// ShardedVaranus is the multi-core variant of the ideal switch: the
// core.ShardedMonitor exposed as a backend. Same capability vector as
// Ideal — sharding is an execution strategy, not a semantic restriction —
// but state is partitioned by instance-identity hash across per-core
// engines, the answer to Sec. 3.3's worry that per-instance cost grows
// with the live population: the population divides by the core count.
//
// The engine's Feed keeps shard virtual clocks tracking the event stream;
// the read-side accessors (Violations, state cost) barrier internally, so
// the Backend contract — read after feed — holds without the caller
// knowing about shards.
type ShardedVaranus struct {
	sm     *core.ShardedMonitor
	nViol  uint64
	stages int
}

// DefaultShards picks the shard count for NewShardedVaranus: GOMAXPROCS
// clamped to [2, 8] — at least two so the partitioning machinery is
// always exercised, at most eight because the simulated workloads stop
// scaling there.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	if n > 8 {
		n = 8
	}
	return n
}

// NewShardedVaranus builds the sharded ideal backend with DefaultShards
// shards. The scheduler argument is accepted for constructor uniformity
// with the other backends but unused: each shard owns a private scheduler
// whose clock follows the event stream.
func NewShardedVaranus(_ *sim.Scheduler) *ShardedVaranus {
	return NewShardedVaranusN(DefaultShards())
}

// NewShardedVaranusN builds the sharded ideal backend with an explicit
// shard count.
func NewShardedVaranusN(shards int) *ShardedVaranus {
	sv := &ShardedVaranus{}
	sv.sm = core.NewShardedMonitor(shards, core.Config{
		Provenance:  core.ProvFull,
		OnViolation: func(*core.Violation) { sv.nViol++ },
	})
	return sv
}

// Name implements Backend.
func (sv *ShardedVaranus) Name() string { return shardedCaps.Name }

// Capabilities implements Backend.
func (sv *ShardedVaranus) Capabilities() Capabilities { return shardedCaps }

// Monitor exposes the underlying sharded engine (for barriers, explicit
// clock control, and shard-level stats in the E8 experiments).
func (sv *ShardedVaranus) Monitor() *core.ShardedMonitor { return sv.sm }

// AddProperty implements Backend. The capability vector is all-yes, so
// this only fails on compile errors.
func (sv *ShardedVaranus) AddProperty(p *property.Property) error {
	return install(shardedCaps, sv.sm.AddProperty, p, &sv.stages)
}

// HandleEvent implements Backend: full visibility, so every event is
// routed. Monotone event timestamps pull the shard clocks forward.
func (sv *ShardedVaranus) HandleEvent(e core.Event) { sv.sm.Feed(e) }

// Violations implements Backend (with an internal barrier: the count
// covers everything fed so far).
func (sv *ShardedVaranus) Violations() uint64 {
	sv.sm.Barrier()
	return sv.nViol
}

// PipelineDepth implements Backend: like Ideal, depth is the stage count
// of the deepest property, independent of the live population.
func (sv *ShardedVaranus) PipelineDepth() int { return sv.stages }

// StateUpdateCost implements Backend: register-speed state, one write per
// monitor transition (summed across shards; barriers internally).
func (sv *ShardedVaranus) StateUpdateCost() uint64 {
	return transitionCount(sv.sm.Stats())
}

// Close stops the shard goroutines. Reads remain valid afterwards.
func (sv *ShardedVaranus) Close() { sv.sm.Close() }
