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

	ps := &propertySet{sm: sm, objs: map[string]*property.Property{}}
	installed, err := o.LoadProperties(ps.install)
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
	ps.col = col
	ps.broadcast()

	mc := daemon.MuxConfig(cfg, sm)
	mc.Properties.Install, mc.Properties.Remove = ps.installSource, ps.remove
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
			Broadcast:    col.Broadcast,
			InstallLocal: ps.installSource,
			RemoveLocal:  ps.remove,
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

// propertySet is the installed set as exporters receive it: objs keeps
// the property objects, whose DSL source every push carries.
type propertySet struct {
	sm   *core.ShardedMonitor
	col  *collector.Collector
	mu   sync.Mutex
	objs map[string]*property.Property
	// gen numbers the pushes. The engine's lifecycle epoch cannot: it
	// stays put until traffic arrives and concurrent changes can read one
	// value, so a newer set would repeat a held epoch and drop as stale.
	gen uint64
}

func (ps *propertySet) install(p *property.Property) error {
	if err := ps.sm.AddProperty(p); err != nil {
		return err
	}
	ps.mu.Lock()
	ps.objs[p.Name] = p
	ps.mu.Unlock()
	return nil
}

// installSource is a /properties install: on success it pushes the set.
func (ps *propertySet) installSource(src, tenant string) error {
	return ps.pushed(daemon.InstallSource(src, tenant, ps.install))
}

// remove is a /properties remove: on success it pushes the set.
func (ps *propertySet) remove(name string) error { return ps.pushed(ps.sm.RemoveProperty(name)) }

func (ps *propertySet) pushed(err error) error {
	if err == nil {
		ps.broadcast()
	}
	return err
}

// broadcast pushes the installed set (names, tenants, DSL source) to
// every property-kind exporter, and forgets removed objects. A set is
// built after every change older than its generation, so the collector,
// retaining the newest, keeps a complete one in any arrival order.
func (ps *propertySet) broadcast() {
	ps.mu.Lock()
	ps.gen++
	u := &wire.Config{Kind: wire.ConfigProperties, Epoch: ps.gen}
	installed := make(map[string]*property.Property, len(ps.objs))
	var ordered []*property.Property
	for _, name := range ps.sm.Properties() {
		if p := ps.objs[name]; p != nil {
			installed[name], ordered = p, append(ordered, p)
			u.Props = append(u.Props, wire.PropMeta{Name: p.Name, Tenant: p.Tenant})
		}
	}
	ps.objs, u.Source = installed, dsl.FormatAll(ordered)
	ps.mu.Unlock()
	if err := ps.col.Broadcast(u); err != nil {
		fmt.Fprintf(os.Stderr, "collector: property-set push: %v\n", err)
	}
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
