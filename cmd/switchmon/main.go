// Command switchmon runs the stateful property monitor over an event
// trace (see internal/trace for the format) or over a built-in demo
// scenario, reporting every violation.
//
// Usage:
//
//	switchmon -trace events.trc -catalog firewall-basic,nat-reverse
//	switchmon -trace events.trc -props my.properties
//	switchmon -demo firewall
//	switchmon -demo firewall -metrics-addr :9090
//	switchmon -trace events.trc -catalog firewall-basic -fault drop=0.01,dup=0.001,seed=7
//	switchmon -demo firewall -export 127.0.0.1:9190
//	switchmon -demo firewall -export 10.0.0.1:9190,10.0.0.2:9190
//	switchmon -list
//
// The process is assembled by internal/daemon, which it shares with
// cmd/collector and cmd/fleetagg; what is written here is what only a
// switch has: the trace/demo feed, the fault injector, and the -export
// shipping of its event stream to the central fabric.
// docs/OBSERVABILITY.md documents every flag and endpoint; -h lists the
// flags.
//
// -fault injects deterministic faults into the run (internal/fault);
// every injected loss lands in the soundness ledger, which the exit
// report prints and /healthz serves as a degradation report. The spec
// grammar is comma-separated key=value:
//
//	drop=F            probability in [0,1] of dropping each event
//	dup=F             probability in [0,1] of duplicating each event
//	reorder=F         probability of swapping adjacent events (-trace only)
//	delay=DUR         jitter timestamps by uniform [0,DUR) (-trace only)
//	seed=N            PRNG seed; same seed+spec = same run
//	panic-shard=S@N   panic shard S at its Nth event (needs -shards)
//	stall-shard=S@N   stall shard S at its Nth event (needs -shards; with
//	                  two or more shards the router outruns the stalled
//	                  worker and its bounded queue fills, with -shards 1
//	                  the feeder is the shard, so the feeder stalls and
//	                  nothing is shed)
//	stall=DUR         stall duration (default 10ms)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"switchmon/internal/apps"
	"switchmon/internal/core"
	"switchmon/internal/daemon"
	"switchmon/internal/dataplane"
	"switchmon/internal/exporter"
	"switchmon/internal/fault"
	"switchmon/internal/federation"
	"switchmon/internal/obs"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/trace"
	"switchmon/internal/wire"
)

func main() { daemon.Main("switchmon", run) }

// options is switchmon's flag surface: the shared daemon flags plus the
// ones only a switch has.
type options struct {
	daemon.Flags
	trace, demo, record, mode, fault string
	export, partition                string
	list                             bool
	exportDPID                       uint64
	batchSLO                         time.Duration
	batchMax                         int
}

func (o *options) register(fs *flag.FlagSet) {
	o.RegisterEngine(fs)
	o.RegisterHistory(fs)
	fs.StringVar(&o.trace, "trace", "", "event trace file to replay")
	fs.StringVar(&o.demo, "demo", "", "run a built-in scenario: firewall, arp, knocking")
	fs.StringVar(&o.record, "record", "", "record the demo's event stream to this trace file")
	fs.StringVar(&o.mode, "mode", "inline", "processing mode: inline, split")
	fs.BoolVar(&o.list, "list", false, "list built-in catalogue properties and exit")
	fs.StringVar(&o.fault, "fault", "", "inject deterministic faults: drop=F,dup=F,reorder=F,delay=DUR,seed=N,panic-shard=S@N,stall-shard=S@N,stall=DUR")
	fs.StringVar(&o.export, "export", "", "also ship the event stream to these comma-separated collector addresses (cmd/collector): events fan out across the fleet by partition key, each collector with its own sequence space, queue, and replay")
	fs.StringVar(&o.partition, "partition", "dpid", "with -export: fleet partition key — dpid (whole switch on one collector) or identity (property-identity key derived from the installed set; requires -catalog/-props)")
	fs.Uint64Var(&o.exportDPID, "export-dpid", 1, "datapath id announced to the collectors by -export")
	fs.DurationVar(&o.batchSLO, "batch-slo", 250*time.Microsecond, "with -export: seal-latency budget for batches held behind a busy link; while the link keeps up, the idle sender ships each batch at once")
	fs.IntVar(&o.batchMax, "batch-max", 256, "with -export: upper clamp on the adaptive batch size")
}

func run() error {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	if o.list {
		for _, e := range property.Catalog(property.DefaultParams()) {
			fmt.Printf("%-26s %-18s %s\n", e.Prop.Name, "("+e.Group+")", e.Prop.Description)
		}
		return nil
	}

	spec, err := fault.ParseSpec(o.fault)
	if err != nil {
		return err
	}
	if (spec.PanicShard >= 0 || spec.StallShard >= 0) && o.Shards <= 0 {
		return fmt.Errorf("-fault %s: panic-shard/stall-shard need -shards", spec)
	}
	if spec.NeedsBuffer() && o.trace == "" {
		return fmt.Errorf("-fault %s: reorder/delay need the buffered -trace path", spec)
	}
	if o.partition != "dpid" && o.partition != "identity" {
		return fmt.Errorf("unknown -partition %q (dpid or identity)", o.partition)
	}

	cfg, err := o.EngineConfig(os.Stdout)
	if err != nil {
		return err
	}
	switch o.mode {
	case "inline":
		cfg.Mode = core.Inline
	case "split":
		cfg.Mode = core.Split
	default:
		return fmt.Errorf("unknown mode %q", o.mode)
	}
	reg, tr := cfg.Metrics, cfg.Tracer

	sched := sim.NewScheduler()
	var mon core.Engine
	if o.Shards > 0 {
		if cfg.Mode != core.Inline {
			return fmt.Errorf("-shards is incompatible with -mode %s", o.mode)
		}
		sm := core.NewShardedMonitor(o.Shards, cfg)
		defer sm.Close()
		if err := fault.ArmShardFaults(sm, spec); err != nil {
			return err
		}
		mon = sm
	} else {
		mon = core.NewMonitor(sched, cfg)
	}

	// The installed set is one document: the startup set applied in one
	// step, and with -export it converges onto the set the collectors push.
	installed, err := o.LoadProperties()
	if err != nil {
		return err
	}
	if o.demo != "" && len(installed) == 0 {
		if o.Catalog = demoCatalog[o.demo]; o.Catalog == "" {
			return fmt.Errorf("unknown demo %q (want firewall, arp, knocking)", o.demo)
		}
		if installed, err = o.LoadProperties(); err != nil {
			return err
		}
	}
	set, err := federation.NewPropertySet(mon, installed, nil)
	if err != nil {
		return err
	}

	// The feed injector: drops and duplicates apply online (both paths);
	// reorder/delay apply in the buffered trace path. Every drop lands in
	// the soundness ledger via MarkFeedLoss.
	var inj *fault.Injector
	if !spec.Zero() {
		inj = fault.NewInjector(spec)
		inj.OnDrop = func(e core.Event) { mon.MarkFeedLoss(e.Time, 1, "injected drop (-fault)") }
	}

	mc := daemon.MuxConfig(cfg, mon)
	mc.Properties = set.Edits()
	srv, err := o.Serve(mc, nil)
	if err != nil {
		return err
	}
	defer srv.Close()

	// With -export, a federation.Router receives a copy of every event
	// the local engine sees; the collectors at the far end evaluate their
	// own properties over the merged streams. One collector is a fleet of
	// one. The routes connect only once the startup set is installed: a
	// collector pushes its property set at the handshake, and converging
	// onto it (set.ApplyConfig) has to find the startup set, not race its
	// installation.
	var fed *federation.Router
	feed := mon.Feed
	if o.export != "" {
		if fed, err = newRouter(&o, set, installed, reg, tr); err != nil {
			return err
		}
		fed.Start()
		feed = func(e core.Event) {
			mon.Feed(e)
			fed.Publish(e)
		}
	}

	switch {
	case o.demo != "":
		var rec *trace.Recorder
		if o.record != "" {
			rec = &trace.Recorder{}
		}
		handle := feed
		if inj != nil {
			handle = inj.Wrap(handle)
		}
		if err := runDemo(sched, mon, handle, rec, reg, tr, o.demo); err != nil {
			return err
		}
		if rec != nil {
			f, err := os.Create(o.record)
			if err != nil {
				return err
			}
			if err := trace.WriteAll(f, rec.Events); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("recorded %d events to %s\n", len(rec.Events), o.record)
		}
	case o.trace != "":
		if len(installed) == 0 {
			return fmt.Errorf("no properties installed (use -catalog and/or -props)")
		}
		f, err := os.Open(o.trace)
		if err != nil {
			return err
		}
		defer f.Close()
		events, err := trace.ReadAll(f)
		if err != nil {
			return err
		}
		if inj != nil {
			events = inj.Apply(events)
		}
		// The replay path has no dataplane switch, so spans originate
		// here: the same deterministic sampling decision the dataplane
		// would have made, stamped at the replay boundary as ingress.
		sink := feed
		if tr != nil {
			sink = func(e core.Event) {
				if sp := tr.Sample(e.SwitchID, uint64(e.PacketID), uint8(e.Kind)); sp != nil {
					sp.Stamp(tracer.StageIngress)
					e.Trace = sp
				}
				feed(e)
			}
		}
		trace.Replay(sched, events, sink)
		// Fire the deadline monitors still outstanding an hour past the
		// last event.
		mon.AdvanceTo(sched.Now().Add(time.Hour))
	default:
		return fmt.Errorf("nothing to do: pass -trace, -demo, or -list")
	}

	st := mon.Stats()
	daemon.ReportSummary(os.Stdout, st)
	if fed != nil {
		fed.Flush()
		// Stats are read after Close: the drain is what lands the final
		// acks, so a pre-Close snapshot undercounts batches and bytes.
		abandoned := fed.Close(o.DrainTimeout)
		routeStats := fed.RouteStats()
		fs := fed.Stats()
		fmt.Printf("federation: collectors=%d epoch=%d reroutes=%d events=%d replayed=%d batches_acked=%d bytes=%d reconnects=%d shed=%d abandoned=%d\n",
			fs.Routes, fs.Epoch, fs.Reroutes, fs.Published, fs.Replayed, fs.BatchesAcked, fs.BytesSent, fs.Reconnects, fs.ShedEvents, abandoned)
		addrs := make([]string, 0, len(routeStats))
		for addr := range routeStats {
			addrs = append(addrs, addr)
		}
		sort.Strings(addrs)
		for _, addr := range addrs {
			es := routeStats[addr]
			fmt.Printf("  route %-21s events=%d batches_acked=%d bytes=%d reconnects=%d shed=%d\n",
				addr, es.Published, es.BatchesAcked, es.BytesSent, es.Reconnects, es.ShedEvents)
		}
		// The exporter-side ledger: what this process knows it failed to
		// ship.
		for _, m := range fed.Ledger() {
			fmt.Printf("  export loss: %-14s since %s lost=%d %s\n",
				m.Reason, m.SinceTime.Format(time.RFC3339), m.Events, m.Detail)
		}
	}
	if inj != nil {
		is := inj.Stats()
		fmt.Printf("fault: spec=%s injected dropped=%d duplicated=%d reordered=%d delayed=%d\n",
			spec, is.Dropped, is.Duplicated, is.Reordered, is.Delayed)
	}
	daemon.ReportLedger(os.Stdout, mon, st, true)

	if srv != nil {
		if o.Hold > 0 {
			fmt.Fprintf(os.Stderr, "metrics: holding for %s\n", o.Hold)
		} else {
			fmt.Fprintln(os.Stderr, "metrics: run complete, serving until SIGINT/SIGTERM")
		}
		if s := daemon.Wait(o.Hold); s != nil {
			fmt.Fprintf(os.Stderr, "metrics: %s, draining\n", s)
		}
	}
	return nil
}

// newRouter builds -export's federation.Router over the listed
// collectors. Every collector gets its own exporter: per-route sequence
// spaces keep the collector-side gap accounting exact across partition
// moves, and per-route series (labeled by collector) land on the
// daemon's registry. The collector pushes its property set to exporters
// with a handler; converge the local set onto it so switch and collector
// evaluate the same set. The partition key is pinned against the startup
// set: dpid keying is checked against the shardability analysis (a
// cross-switch property split across collectors can silently miss
// violations), identity keying is derived from it.
func newRouter(o *options, set *federation.PropertySet, installed []*property.Property, reg *obs.Registry, tr *tracer.Tracer) (*federation.Router, error) {
	if o.batchSLO <= 0 {
		return nil, fmt.Errorf("-batch-slo %v: the seal-latency budget must be positive", o.batchSLO)
	}
	if o.batchMax < 1 {
		return nil, fmt.Errorf("-batch-max %d: the batch-size clamp must be at least 1", o.batchMax)
	}
	key := core.PartitionByDPID
	if o.partition == "identity" {
		f, err := core.IdentityPartitionFunc(installed)
		if err != nil {
			return nil, fmt.Errorf("-partition identity: %w", err)
		}
		key = func(e *core.Event) uint64 {
			// Unroutable events carry none of the identity fields: no
			// instance can consume them, any route is correct.
			k, _ := f(e)
			return k
		}
	} else if err := core.ValidateDPIDPartition(installed); err != nil {
		fmt.Fprintf(os.Stderr, "federation: warning: %v\n", err)
	}
	var members []federation.Member
	for _, a := range strings.Split(o.export, ",") {
		if a = strings.TrimSpace(a); a != "" {
			members = append(members, federation.Member{Addr: a})
		}
	}
	xcfg := exporter.Config{TargetSealLatency: o.batchSLO, BatchSizeMax: o.batchMax, Metrics: reg, Tracer: tr}
	// A failure is logged, not fatal; a closed engine is not one (the
	// exporter's Close does not wait for a running apply, so shutdown can
	// overtake it).
	xcfg.OnConfig[wire.ConfigProperties] = func(u *wire.Config) {
		if err := set.ApplyConfig(u); err != nil && !errors.Is(err, core.ErrClosed) {
			fmt.Fprintf(os.Stderr, "property-set epoch %d: %v\n", u.Epoch, err)
		}
	}
	return federation.NewRouter(federation.Config{
		Members: members, DPID: o.exportDPID, DrainTimeout: o.DrainTimeout,
		PartitionKey: key, Exporter: xcfg,
	})
}

// demoCatalog is the -catalog each demo scenario runs under when the
// command line installs no properties of its own.
var demoCatalog = map[string]string{
	"firewall": "firewall-basic,firewall-until-close",
	"arp":      "arp-proxy-reply,arp-known-not-forwarded",
	"knocking": "knock-intervening,knock-valid-sequence",
}

// runDemo executes a built-in faulty scenario against the monitor,
// optionally recording the event stream and registering the demo
// switch's dataplane counters. handle is the event sink — usually
// mon.Feed, possibly wrapped by a fault injector.
func runDemo(sched *sim.Scheduler, mon core.Engine, handle func(core.Event), rec *trace.Recorder, reg *obs.Registry, tr *tracer.Tracer, demo string) error {
	macA := packet.MustMAC("02:00:00:00:00:0a")
	macB := packet.MustMAC("02:00:00:00:00:0b")
	ipA := packet.MustIPv4("10.0.0.1")
	ipB := packet.MustIPv4("203.0.113.9")

	sw := dataplane.New("demo", sched, 2)
	sw.SetMetrics(reg)
	sw.SetTracer(tr)
	for i := 1; i <= 4; i++ {
		sw.AddPort(dataplane.PortNo(i), nil)
	}
	if rec != nil {
		sw.Observe(rec.Observe)
	}
	sw.Observe(handle)

	switch demo {
	case "firewall":
		apps.NewFirewall(sw, 1, 2, time.Minute, apps.FirewallFaults{DropValidReturnEvery: 3})
		for i := 0; i < 9; i++ {
			sw.Inject(1, packet.NewTCP(macA, macB, ipA, ipB, uint16(30000+i), 80, packet.FlagSYN, nil))
			sw.Inject(2, packet.NewTCP(macB, macA, ipB, ipA, 80, uint16(30000+i), packet.FlagSYN|packet.FlagACK, nil))
		}
	case "arp":
		apps.NewARPProxy(sw, apps.ARPProxyFaults{NeverReply: true})
		sw.Inject(3, packet.NewARPReply(macA, ipA, macB, ipB))
		sw.Inject(4, packet.NewARPRequest(macB, ipB, ipA))
		sched.RunFor(5 * time.Second)
	case "knocking":
		apps.NewPortKnocking(sw, []uint16{7001, 7002, 7003}, 22, 2, apps.KnockFaults{IgnoreWrongGuess: true})
		for _, port := range []uint16{7001, 9999, 7002, 7003} {
			sw.Inject(1, packet.NewUDP(macA, macB, ipA, ipB, 30000, port, nil))
		}
		sw.Inject(1, packet.NewTCP(macA, macB, ipA, ipB, 30001, 22, packet.FlagSYN, nil))
	default:
		return fmt.Errorf("unknown demo %q", demo)
	}
	// Settle what was fed and pull the engine's clock up to the
	// scheduler's, so a scenario that ran past its last event has fired
	// the deadlines due by now.
	mon.AdvanceTo(sched.Now())
	return nil
}
