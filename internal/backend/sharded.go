package backend

import (
	"runtime"

	"switchmon/internal/core"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

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
	caps   Capabilities
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
	caps := Capabilities{
		Name:             "Sharded Varanus (multi-core)",
		StateMechanism:   "Sharded indexed instances",
		UpdateDatapath:   "Fast path",
		ProcessingMode:   "Parallel",
		FieldAccess:      "Dynamic",
		EventHistory:     Yes,
		RelatedEvents:    Yes,
		NegativeMatch:    Yes,
		RuleTimeouts:     Yes,
		TimeoutActions:   Yes,
		SymmetricMatch:   Yes,
		WanderingMatch:   Yes,
		OutOfBand:        Yes,
		FullProvenance:   Yes,
		DropVisibility:   Yes,
		EgressVisibility: Yes,
		Counting:         Yes,
		StickyGuards:     Yes,
	}
	sv := &ShardedVaranus{caps: caps}
	sv.sm = core.NewShardedMonitor(shards, core.Config{
		Provenance:  core.ProvFull,
		OnViolation: func(*core.Violation) { sv.nViol++ },
	})
	return sv
}

// Name implements Backend.
func (sv *ShardedVaranus) Name() string { return sv.caps.Name }

// Capabilities implements Backend.
func (sv *ShardedVaranus) Capabilities() Capabilities { return sv.caps }

// Monitor exposes the underlying sharded engine (for barriers, explicit
// clock control, and shard-level stats in the E8 experiments).
func (sv *ShardedVaranus) Monitor() *core.ShardedMonitor { return sv.sm }

// AddProperty implements Backend. The capability vector is all-yes, so
// this only fails on compile errors.
func (sv *ShardedVaranus) AddProperty(p *property.Property) error {
	if err := checkSupport(sv.caps, p); err != nil {
		return err
	}
	if err := sv.sm.AddProperty(p); err != nil {
		return err
	}
	if n := len(p.Stages); n > sv.stages {
		sv.stages = n
	}
	return nil
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
	st := sv.sm.Stats()
	return st.Created + st.Advanced + st.Discharged + st.Expired + st.Refreshed
}

// Close stops the shard goroutines. Reads remain valid afterwards.
func (sv *ShardedVaranus) Close() { sv.sm.Close() }
