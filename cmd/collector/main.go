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
// collector has: the exporter listener, the property-set broadcast that
// keeps connected switches converged on the installed set, -aggregate
// forwarding of admin operations to the fleet tier, and the fleet-member
// endpoints that tier drives. docs/OBSERVABILITY.md documents every flag
// and endpoint; -h lists the flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/daemon"
	"switchmon/internal/dsl"
	"switchmon/internal/federation"
	"switchmon/internal/property"
	"switchmon/internal/wire"
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

	// propObjs keeps the installed property objects so lifecycle pushes
	// can carry the full DSL source (dsl.FormatAll round-trips) — the
	// engine itself only hands back names.
	var propMu sync.Mutex
	propObjs := map[string]*property.Property{}
	install := func(p *property.Property) error {
		if err := sm.AddProperty(p); err != nil {
			return err
		}
		propMu.Lock()
		propObjs[p.Name] = p
		propMu.Unlock()
		return nil
	}
	installed, err := o.LoadProperties(install)
	if err != nil {
		return err
	}
	if len(installed) == 0 && o.MetricsAddr == "" {
		return fmt.Errorf("no properties installed (use -catalog and/or -props, or -metrics-addr for live POST /properties)")
	}

	col, err := collector.New(collector.Config{Addr: o.Listen, Metrics: cfg.Metrics, Tracer: cfg.Tracer}, sm)
	if err != nil {
		return err
	}
	col.Serve()
	fmt.Fprintf(os.Stderr, "collector: accepting exporters on %s (%d properties, %d shards)\n",
		col.Addr(), len(installed), o.Shards)

	// broadcast pushes the current property set (epoch, names, tenants,
	// and the full DSL source) to every lifecycle-capable exporter; the
	// collector retains it for exporters that connect later.
	broadcast := func() {
		propMu.Lock()
		u := &wire.PropertySetUpdate{Epoch: sm.Epoch(), Source: ""}
		ordered := make([]*property.Property, 0, len(propObjs))
		for _, name := range sm.Properties() {
			p := propObjs[name]
			if p == nil {
				continue
			}
			ordered = append(ordered, p)
			u.Props = append(u.Props, wire.PropMeta{Name: p.Name, Tenant: p.Tenant})
		}
		u.Source = dsl.FormatAll(ordered)
		propMu.Unlock()
		if err := col.BroadcastPropertySet(u); err != nil {
			fmt.Fprintf(os.Stderr, "collector: property-set push: %v\n", err)
		}
	}
	broadcast()

	installLocal := func(src, tenant string) error {
		if err := daemon.InstallSource(src, tenant, install); err != nil {
			return err
		}
		broadcast()
		return nil
	}
	removeLocal := func(name string) error {
		if err := sm.RemoveProperty(name); err != nil {
			return err
		}
		propMu.Lock()
		delete(propObjs, name)
		propMu.Unlock()
		broadcast()
		return nil
	}
	mc := daemon.MuxConfig(cfg, sm)
	mc.Properties.Install, mc.Properties.Remove = installLocal, removeLocal
	if o.aggregate != "" {
		// Public admin ops route through the aggregation tier so they
		// apply on every fleet member in one serialized order; the tier
		// applies them back here through the local-only
		// /fleet/properties endpoint.
		propsURL := strings.TrimRight(o.aggregate, "/") + "/properties"
		mc.Properties.Install = func(src, tenant string) error {
			u := propsURL
			if tenant != "" {
				u += "?tenant=" + url.QueryEscape(tenant)
			}
			return forward(http.MethodPost, u, src)
		}
		mc.Properties.Remove = func(name string) error {
			return forward(http.MethodDelete, propsURL+"?name="+url.QueryEscape(name), "")
		}
	}
	srv, err := o.Serve(mc, func(mux *http.ServeMux) {
		federation.RegisterMemberEndpoints(mux, federation.MemberEndpoints{
			BroadcastFleet: col.BroadcastFleetConfig,
			InstallLocal:   installLocal,
			RemoveLocal:    removeLocal,
		})
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

// forward relays a /properties admin operation to the aggregation tier,
// which fans it out to every fleet member (including this one) in the
// single fleet-wide lifecycle order.
func forward(method, target, body string) error {
	req, err := http.NewRequest(method, target, strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("aggregate forward: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("aggregate forward: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}
