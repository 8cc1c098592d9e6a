// Command fleetagg is the aggregation tier of a federated collector
// fleet: it merges per-collector metrics, health, state reports, and
// violation streams into fleet-wide endpoints, and owns the fleet's one
// document — its property set and its membership — which each sampler
// tick reconciles onto every member, each member relaying it to its
// connected exporters.
//
// Usage:
//
//	fleetagg -listen :9090 -members 127.0.0.1:9190=http://127.0.0.1:9091,127.0.0.1:9290=http://127.0.0.1:9291
//
// Each -members entry is exporterAddr=adminURL[=weight]: the TCP
// address switches dial (what appears in fleet config frames and the
// routers' consistent-hash ring) and the collector's -metrics-addr
// base URL the aggregator scrapes and administers. It seeds the fleet
// only until a POST /fleet names the members. The process holds no
// monitoring state — every answer is composed from live member scrapes,
// and the document, membership included, is re-learned from the members
// — so it can restart at any time.
//
// Endpoints: /metrics (summed switchmon_fleet_* namespace), /healthz,
// /state, /violations, /properties (GET/POST/DELETE, fleet-wide), and
// /fleet (GET membership, POST a new member set).
//
// The aggregator also self-monitors: a background sampler scrapes the
// fleet into an in-process history ring (/query), and the SLO engine
// evaluates burn-rate rules over the merged fleet series (/alerts) —
// including the built-in reachability rule, so a member going dark is
// itself an alert. /violations forwards ?since and ?limit to every
// member, with repeated ?cursor=<addr>=<seq> params overriding since per
// member.
//
// The listener, sampler, SLO engine and signal wait come from
// internal/daemon, shared with cmd/switchmon and cmd/collector; what is
// written here is the member list and the aggregator.
// docs/OBSERVABILITY.md documents every flag and endpoint.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"switchmon/internal/daemon"
	"switchmon/internal/federation"
)

func main() { daemon.Main("fleetagg", run) }

func parseMembers(spec string) ([]federation.AggMember, error) {
	var out []federation.AggMember
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.SplitN(entry, "=", 3)
		if len(parts) < 2 {
			return nil, fmt.Errorf("member %q: want exporterAddr=adminURL[=weight]", entry)
		}
		m := federation.AggMember{Addr: parts[0], Admin: parts[1]}
		if len(parts) == 3 {
			w, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("member %q: bad weight %q", entry, parts[2])
			}
			m.Weight = w
		}
		out = append(out, m)
	}
	if err := federation.ValidateMembers(out); err != nil {
		return nil, err
	}
	return out, nil
}

// options is fleetagg's flag surface: -listen and the self-monitoring
// flags from the shared set, reworded for a tier whose history is fleet
// scrapes, plus the fleet's own.
type options struct {
	daemon.Flags
	members string
	timeout time.Duration
}

func (o *options) register(fs *flag.FlagSet) {
	o.Listen = ":9090"
	o.RegisterListen(fs)
	o.RegisterHistory(fs)
	fs.Lookup("listen").Usage = "serve the fleet endpoints on this address"
	fs.Lookup("sample-every").Usage = "cadence of the fleet-history sampler behind /query (each tick scrapes every member)"
	fs.Lookup("history").Usage = "how far back the fleet metrics-history ring reaches"
	fs.Lookup("slo").Usage = "extra fleet SLO rule as name:series-glob:threshold:fast-window (repeatable; slow window is 10x fast; built-in rules are always evaluated)"
	fs.StringVar(&o.members, "members", "", "comma-separated exporterAddr=adminURL[=weight] collector entries")
	fs.DurationVar(&o.timeout, "timeout", federation.AdminTimeout, "per-member scrape/admin call timeout")
}

func run() error {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	if o.members == "" {
		return fmt.Errorf("-members is required")
	}
	ms, err := parseMembers(o.members)
	if err != nil {
		return err
	}
	agg, err := federation.NewAggregator(federation.AggConfig{Members: ms, Timeout: o.timeout})
	if err != nil {
		return err
	}
	// Self-monitoring in snapshot mode: each sampler tick reconciles the
	// document, scrapes the fleet and records the merged snapshot,
	// so /query serves fleet history and the SLO engine alerts on it
	// (member reachability included) with no per-member configuration.
	srv, err := o.NewServer(o.Listen, nil, agg.Sample)
	if err != nil {
		return err
	}
	agg.AttachSelfMonitor(srv.History, srv.Alerts)
	srv.Start(agg.Mux())
	fmt.Fprintf(os.Stderr, "fleetagg: serving fleet endpoints on http://%s/metrics (%d members)\n", srv.Addr(), len(ms))

	daemon.Wait(0)
	return srv.Close()
}
