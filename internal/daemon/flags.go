// Package daemon is the one place a monitoring process is assembled.
// cmd/switchmon, cmd/collector and cmd/fleetagg differ in topology — what
// feeds the engine, what the process listens for, what it forwards — and
// share everything else: the flags below, the core.Config and telemetry
// they select, -catalog/-props loading, the introspection server with its
// metrics-history sampler and SLO engine, the signal/-hold wait, and the
// exit report. Each of those is written here once; docs/OBSERVABILITY.md
// documents the flags.
package daemon

import (
	"flag"
	"time"

	"switchmon/internal/obs/slo"
)

// Flags holds the parsed value of every flag more than one daemon
// accepts. A daemon embeds it next to its own flags and calls the
// Register methods for the groups it has. The usage text registered here
// is the first daemon's to have the flag; one whose role shifts what a
// shared flag means rewrites that text (fs.Lookup(name).Usage) and presets
// the two defaults that differ by role, Shards and Listen, before
// registering.
type Flags struct {
	// RegisterEngine's group.
	Props, Catalog, Provenance, TenantQuotas string
	Shards                                   int
	MetricsAddr                              string
	Hold, DrainTimeout                       time.Duration
	JSON                                     bool
	ViolationRing, TraceRing, StateTopK      int
	TraceSample, StateSample                 uint64
	StateWatermark                           int64
	// RegisterHistory's group.
	SampleEvery, History time.Duration
	SLO                  slo.RuleList
	// RegisterListen's flag.
	Listen string
}

// RegisterEngine registers the flags of a process that runs a monitoring
// engine (switchmon, collector): the property set, the engine's shape and
// quotas, the violation output, tracing, state accounting, and the
// -metrics-addr introspection endpoint with its -hold/-drain-timeout
// shutdown.
func (f *Flags) RegisterEngine(fs *flag.FlagSet) {
	fs.StringVar(&f.Props, "props", "", "DSL file with property definitions")
	fs.StringVar(&f.Catalog, "catalog", "", "comma-separated built-in property names")
	fs.StringVar(&f.Provenance, "provenance", "limited", "provenance level: none, limited, full")
	fs.IntVar(&f.Shards, "shards", f.Shards, "run the sharded multi-core engine with this many shards (0 = single engine)")
	fs.StringVar(&f.TenantQuotas, "tenant-quotas", "", "per-tenant quotas as tenant=maxInstances[:maxQueued], comma-separated; breaches shed that tenant's events into the soundness ledger")

	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics, /healthz, /violations, /trace, /state, /query, /alerts, /buildinfo, /debug/pprof on this address")
	fs.DurationVar(&f.Hold, "hold", 0, "with -metrics-addr: keep serving this long after the run (0 = until SIGINT)")
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 5*time.Second, "with -export: how long the exit drain waits for unacked batches before abandoning them")
	fs.BoolVar(&f.JSON, "json", false, "emit violations as one JSON object per line")
	fs.IntVar(&f.ViolationRing, "violation-ring", 256, "violation trace records retained for /violations")

	fs.Uint64Var(&f.TraceSample, "trace-sample", 0, "stamp every Nth event with end-to-end stage marks (0 = tracing off); completed spans served at /trace")
	fs.IntVar(&f.TraceRing, "trace-ring", 0, "completed tracing spans retained for /trace (0 = default 2048)")

	fs.IntVar(&f.StateTopK, "state-topk", 32, "heavy-hitter sketch capacity per property for /state top_keys (0 = sketch off)")
	fs.Uint64Var(&f.StateSample, "state-sample", 8, "sample 1 in N instance filings into the heavy-hitter sketch (1 = every filing)")
	fs.Int64Var(&f.StateWatermark, "state-watermark", 0, "per-property live-instance count that raises the state_pressure warning metric (0 = off)")
}

// RegisterHistory registers the self-monitoring flags every daemon has:
// the metrics-history sampler behind /query and the extra SLO rules
// behind /alerts.
func (f *Flags) RegisterHistory(fs *flag.FlagSet) {
	fs.DurationVar(&f.SampleEvery, "sample-every", time.Second, "with -metrics-addr: cadence of the in-process metrics-history sampler behind /query")
	fs.DurationVar(&f.History, "history", 10*time.Minute, "with -metrics-addr: how far back the metrics-history ring reaches")
	fs.Var(&f.SLO, "slo", "extra SLO rule as name:series-glob:threshold:fast-window (repeatable; slow window is 10x fast; built-in rules are always evaluated)")
}

// RegisterListen registers -listen, the address a server daemon accepts
// its clients on (collector: exporters; fleetagg: HTTP).
func (f *Flags) RegisterListen(fs *flag.FlagSet) {
	fs.StringVar(&f.Listen, "listen", f.Listen, "TCP address to accept exporter connections on")
}
