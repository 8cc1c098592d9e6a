// Command collector is the central half of the distributed monitoring
// fabric: a TCP server that accepts switch-side exporters (switchmon
// -export, internal/exporter), merges their per-datapath event streams
// with sequence-gap and replay accounting, and evaluates properties
// centrally on the sharded engine. This is the deployment split the
// paper's Sec. 3.2 sketches — switches keep a sequencer and a bounded
// queue, the stateful monitor runs here — with the soundness discipline
// carried over the wire: every lost event becomes a per-property
// wire-loss mark, never a silently wrong verdict.
//
// Usage:
//
//	collector -listen :9190 -catalog firewall-basic
//	collector -listen :9190 -props net.properties -shards 8 -metrics-addr :9090
//
// The process serves until SIGINT/SIGTERM (or for -hold), printing
// violations as they fire, then drains — waiting up to -drain-timeout for
// in-flight exporter batches to quiesce — and prints an exit report:
// engine stats, per-datapath wire accounting, and the degradation ledger.
//
// The process is assembled by internal/daemon, which it shares with
// cmd/switchmon and cmd/fleetagg; what is written here is what only the
// collector has: the exporter listener, the property set
// (federation.PropertySet) whose every change is broadcast so connected
// switches converge on it, -aggregate forwarding of admin operations to
// the fleet tier, and the fleet-member endpoints that tier drives.
// docs/OBSERVABILITY.md documents every flag and endpoint; -h lists the
// flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/daemon"
	"switchmon/internal/federation"
	"switchmon/internal/obs/export"
)

func main() { daemon.Main("collector", run) }

// options is the collector's flag surface: the shared daemon flags,
// reworded where a central engine shifts their meaning, plus -aggregate.
type options struct {
	daemon.Flags
	aggregate string
}

func (o *options) register(fs *flag.FlagSet) {
	o.Shards, o.Listen = 4, ":9190"
	o.RegisterEngine(fs)
	o.RegisterHistory(fs)
	o.RegisterListen(fs)
	fs.Lookup("catalog").Usage = "comma-separated built-in property names (switchmon -list)"
	fs.Lookup("shards").Usage = "shard count for the central engine"
	fs.Lookup("hold").Usage = "serve this long, then exit (0 = until SIGINT/SIGTERM)"
	fs.Lookup("drain-timeout").Usage = "after SIGINT/SIGTERM: how long to wait for in-flight exporter batches to quiesce before closing"
	fs.Lookup("trace-sample").Usage = "negotiate end-to-end tracing with exporters and sample every Nth event of untraced streams (0 = off); completed spans served at /trace"
	fs.StringVar(&o.aggregate, "aggregate", "", "fleet aggregation-tier base URL; /properties admin ops are forwarded there so install/remove on this collector applies fleet-wide in one order")
}

func run() error {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	if o.Shards <= 0 {
		return fmt.Errorf("-shards must be positive")
	}
	cfg, err := o.EngineConfig(os.Stdout)
	if err != nil {
		return err
	}
	sm := core.NewShardedMonitor(o.Shards, cfg)
	defer sm.Close()

	col, err := collector.New(collector.Config{Addr: o.Listen, Metrics: cfg.Metrics, Tracer: cfg.Tracer}, sm)
	if err != nil {
		return err
	}
	installed, err := o.LoadProperties()
	if err != nil {
		return err
	}
	if len(installed) == 0 && o.MetricsAddr == "" {
		return fmt.Errorf("no properties installed (use -catalog and/or -props, or -metrics-addr for live POST /properties)")
	}
	// The installed set is one document: the startup set applied in one
	// step, then pushed to the exporters on every change, replaced by the
	// aggregation tier's through /fleet/properties, whose membership
	// changes are relayed too.
	set, err := federation.NewPropertySet(sm, installed, col.Broadcast)
	if err != nil {
		return err
	}
	col.Serve()
	fmt.Fprintf(os.Stderr, "collector: accepting exporters on %s (%d properties, %d shards)\n",
		col.Addr(), len(installed), o.Shards)
	if err := set.Publish(); err != nil {
		return err
	}

	mc := daemon.MuxConfig(cfg, sm)
	mc.Properties = set.Edits()
	if o.aggregate != "" {
		up := forward(o.aggregate)
		mc.Properties.Install, mc.Properties.Remove = up.Install, up.Remove
	}
	srv, err := o.Serve(mc, func(mux *http.ServeMux) {
		federation.RegisterMemberEndpoints(mux, set)
	})
	if err != nil {
		return err
	}

	if s := daemon.Wait(o.Hold); s != nil {
		fmt.Fprintf(os.Stderr, "collector: %s, draining\n", s)
	}

	// Graceful drain: connected exporters keep shipping until their
	// queues empty; wait for ingest to quiesce (two consecutive idle
	// polls) or the -drain-timeout deadline, whichever first.
	deadline := time.Now().Add(o.DrainTimeout)
	prev := col.Stats()
	idle := 0
	for time.Now().Before(deadline) && idle < 2 {
		time.Sleep(50 * time.Millisecond)
		cur := col.Stats()
		if cur.Batches == prev.Batches && cur.Events == prev.Events {
			idle++
		} else {
			idle = 0
		}
		prev = cur
	}
	col.Close()
	srv.Close()

	st := sm.Stats()
	cs := col.Stats()
	daemon.ReportSummary(os.Stdout, st)
	fmt.Printf("wire: datapaths=%d batches=%d events=%d bytes=%d gaps=%d deduped=%d reconnects=%d\n",
		cs.Datapaths, cs.Batches, cs.Events, cs.Bytes, cs.GapEvents, cs.Deduped, cs.Reconnects)
	daemon.ReportLedger(os.Stdout, sm, st, false)
	return nil
}

// forward is -aggregate: public /properties install and remove route
// through the aggregation tier at base, which edits the fleet's property
// set and replicates it to every member, this one included, through
// /fleet/properties. Each forward is one federation.AdminCall, bounded by
// federation.EditTimeout, the edit's own worst case, and answers the
// fleet's edited document.
func forward(base string) *export.PropertiesConfig {
	call := func(method, query, body string) (any, error) {
		target := strings.TrimRight(base, "/") + "/properties?" + query
		ans, err := federation.AdminCall(federation.EditTimeout, method, target, "text/plain", body)
		if err != nil || !json.Valid(ans) {
			return nil, err
		}
		return json.RawMessage(ans), nil
	}
	return &export.PropertiesConfig{
		Install: func(src, tenant string) (any, error) {
			return call(http.MethodPost, "tenant="+url.QueryEscape(tenant), src)
		},
		Remove: func(name string) (any, error) { return call(http.MethodDelete, "name="+url.QueryEscape(name), "") },
	}
}
