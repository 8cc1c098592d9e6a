// Command endpointsmoke is check.sh's introspection-surface gate. All
// three daemons are wired by internal/daemon, so it brings all three up
// as real processes: a collector; a switchmon with every observability
// feature on (-metrics-addr, tracing, state accounting) exporting its
// demo run to that collector; and a fleetagg over the collector. It hits
// every endpoint each one serves, failing on any non-200 status or
// malformed body, then sends each process SIGTERM and fails unless it
// exits 0 within -drain-timeout. The point is end-to-end wiring — a flag
// that stops reaching the mux, an endpoint that panics on a live engine,
// a JSON shape regression, or a shutdown path that hangs all surface
// here, where unit tests against a hand-built MuxConfig would keep
// passing.
//
// Usage: go run ./scripts/endpointsmoke (from the repository root)
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// drainTimeout is passed as -drain-timeout and bounds each process's
// exit after SIGTERM.
const drainTimeout = 5 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "endpointsmoke:", err)
		os.Exit(1)
	}
	fmt.Println("endpointsmoke: all endpoints OK")
}

// proc is one daemon under test and the scanner over its stderr.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stderr *bufio.Scanner
}

// start launches bin with args, stdout discarded.
func start(bin string, args ...string) (*proc, error) {
	p := &proc{name: filepath.Base(bin), cmd: exec.Command(bin, args...)}
	p.cmd.Stdout = io.Discard
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p.stderr = bufio.NewScanner(stderr)
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

// after scans stderr for the first line containing marker and returns
// the whitespace-delimited token that follows it — how each daemon
// announces the address an ephemeral port resolved to.
func (p *proc) after(marker string) (string, error) {
	for p.stderr.Scan() {
		_, rest, ok := strings.Cut(p.stderr.Text(), marker)
		if f := strings.Fields(rest); ok && len(f) > 0 {
			return f[0], nil
		}
	}
	return "", fmt.Errorf("%s: no %q line on stderr (daemon failed to start?): %v", p.name, marker, p.stderr.Err())
}

// stop sends SIGTERM and requires a clean exit within drainTimeout.
func (p *proc) stop() error {
	exited := make(chan error, 1)
	go func() {
		for p.stderr.Scan() { // Wait needs the pipe drained to EOF
		}
		exited <- p.cmd.Wait()
	}()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", p.name, err)
	}
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("%s: exit after SIGTERM: %w", p.name, err)
		}
		return nil
	case <-time.After(drainTimeout + time.Second):
		return fmt.Errorf("%s: still running %s after SIGTERM", p.name, drainTimeout)
	}
}

// muxChecks are the endpoints export.NewMux serves on switchmon and the
// collector alike, with the body kind check validates.
var muxChecks = [][2]string{
	{"/metrics", "text"},
	{"/metrics?format=json", "json"},
	{"/healthz", "text"}, // "ok" when sound, a JSON degradation report otherwise
	{"/violations", "json"},
	{"/violations?since=0&limit=2", "json"},
	{"/trace", "ndjson"},
	{"/trace?limit=3", "ndjson"},
	{"/state", "json"},
	{"/query?series=*", "json"},
	{"/query?series=switchmon_*_total&step=100ms", "json"},
	{"/alerts", "json"},
	{"/alerts?since=0&limit=4", "json"},
	{"/buildinfo", "json"},
	{"/debug/pprof/cmdline", "text"},
}

func checkAll(client *http.Client, who, base string, checks [][2]string) error {
	for _, c := range checks {
		if err := check(client, base+c[0], c[1]); err != nil {
			return fmt.Errorf("%s: GET %s: %w", who, c[0], err)
		}
	}
	return nil
}

func run() error {
	dir, err := os.MkdirTemp("", "endpointsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/switchmon", "./cmd/collector", "./cmd/fleetagg")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building the daemons: %w", err)
	}
	var procs []*proc
	defer func() {
		for _, p := range procs {
			_ = p.cmd.Process.Kill() // no-op for the ones stop already reaped
		}
	}()
	launch := func(name string, args ...string) (*proc, error) {
		p, err := start(filepath.Join(dir, name), args...)
		if err == nil {
			procs = append(procs, p)
		}
		return p, err
	}
	grace := "-drain-timeout=" + drainTimeout.String()

	// The collector carries the firewall demo's own two properties, so
	// the set it pushes to switchmon's exporter converges to a no-op.
	col, err := launch("collector",
		"-listen", "127.0.0.1:0", "-catalog", "firewall-basic,firewall-until-close", "-shards", "2",
		"-metrics-addr", "127.0.0.1:0", "-trace-sample", "1", "-sample-every", "50ms", grace)
	if err != nil {
		return err
	}
	exportAddr, err := col.after("accepting exporters on ")
	if err != nil {
		return err
	}
	colBase, err := col.after("metrics: serving on ")
	if err != nil {
		return err
	}
	colBase = strings.TrimSuffix(colBase, "/metrics")

	// A demo run with the whole observability surface on: metrics mux
	// on an ephemeral port, every event traced, every filing sketched,
	// and a watermark low enough that the demo raises state pressure.
	// -hold keeps the mux serving after the demo completes; -export
	// ships the run to the collector above.
	sw, err := launch("switchmon",
		"-demo", "firewall",
		"-metrics-addr", "127.0.0.1:0",
		"-hold", "1m",
		"-trace-sample", "1",
		"-sample-every", "50ms", // fast cadence so /query has points within the smoke's patience
		"-slo", "smoke-extra:switchmon_monitor_events_total:1e12:1m",
		"-state-topk", "8", "-state-sample", "1", "-state-watermark", "1",
		"-json", "-export", exportAddr, grace,
	)
	if err != nil {
		return err
	}
	base, err := sw.after("metrics: serving on ")
	if err != nil {
		return err
	}
	base = strings.TrimSuffix(base, "/metrics")

	agg, err := launch("fleetagg",
		"-listen", "127.0.0.1:0", "-members", exportAddr+"="+colBase, "-sample-every", "50ms")
	if err != nil {
		return err
	}
	aggBase, err := agg.after("serving fleet endpoints on ")
	if err != nil {
		return err
	}
	aggBase = strings.TrimSuffix(aggBase, "/metrics")

	client := &http.Client{Timeout: 5 * time.Second}
	if err := checkAll(client, "switchmon", base, muxChecks); err != nil {
		return err
	}
	if err := selfMonitoring(client, base); err != nil {
		return err
	}
	if err := switchmonContent(client, base, exportAddr); err != nil {
		return err
	}
	if err := properties(client, base); err != nil {
		return err
	}

	if err := checkAll(client, "collector", colBase, muxChecks); err != nil {
		return err
	}
	if err := collectorFleet(client, colBase, exportAddr); err != nil {
		return err
	}
	if err := checkAll(client, "fleetagg", aggBase, [][2]string{
		{"/metrics", "text"}, {"/healthz", "text"}, {"/query?series=*", "json"},
		{"/alerts", "json"}, {"/properties", "json"}, {"/state", "json"},
		{"/violations?since=0&limit=2", "json"},
	}); err != nil {
		return err
	}
	if err := rejected(client, aggBase, "/violations?since=notanumber", "/violations?limit=-1", "/state?limit=x"); err != nil {
		return fmt.Errorf("fleetagg: %w", err)
	}
	if err := fleetEdits(client, aggBase, colBase); err != nil {
		return fmt.Errorf("fleetagg: %w", err)
	}

	for _, p := range []*proc{sw, agg, col} {
		if err := p.stop(); err != nil {
			return err
		}
	}
	return nil
}

// collectorFleet covers what only the collector's mux has: the exporter
// connection switchmon made must show in the per-datapath series, and the
// fleet-member endpoint the aggregation tier drives must take the fleet's
// document, property set and membership, as a whole.
func collectorFleet(client *http.Client, base, exportAddr string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, err := get(client, base+"/metrics")
		if err != nil {
			return fmt.Errorf("collector: GET /metrics: %w", err)
		}
		if strings.Contains(string(body), `switchmon_collector_events_total{dpid="1"}`) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("collector: /metrics shows no events from switchmon's -export connection after 10s")
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fleetProperties(client, base, exportAddr)
}

// propertySetDoc is the document GET and PUT /fleet/properties speak,
// and the one a daemon's GET /properties lists.
type propertySetDoc struct {
	Epoch   uint64      `json:"epoch"`
	Props   []propMeta  `json:"props"`
	Source  string      `json:"source"`
	Members []aggMember `json:"members,omitempty"`
}

type propMeta struct {
	Name   string `json:"name"`
	Tenant string `json:"tenant"`
}

type aggMember struct {
	Addr   string  `json:"addr"`
	Admin  string  `json:"admin"`
	Weight float64 `json:"weight,omitempty"`
}

// listProperties reads the document at url and the names it holds.
func listProperties(client *http.Client, url string) (propertySetDoc, []string, error) {
	var d propertySetDoc
	body, err := get(client, url)
	if err == nil {
		err = json.Unmarshal(body, &d)
	}
	var names []string
	for _, p := range d.Props {
		names = append(names, p.Name)
	}
	return d, names, err
}

// fleetProperties drives a member's /fleet/properties the way the
// aggregation tier does: GET the applied document, PUT it back one epoch
// on with a probe property added and the member named as the fleet (its
// exporters, switchmon's router among them, already route on it),
// confirm the engine runs the probe and the member reports the fleet,
// confirm the 4xx paths (a body that is no document, a source that does
// not parse, a source filed under another name, members no router takes,
// a POST) and a stale PUT leave the document alone, then PUT the original
// set and the same fleet two epochs on and confirm the probe is gone.
func fleetProperties(client *http.Client, base, exportAddr string) error {
	read := func() (propertySetDoc, error) {
		d, _, err := listProperties(client, base+"/fleet/properties")
		return d, err
	}
	put := func(d any) (int, string, error) {
		body, err := json.Marshal(d)
		if err != nil {
			return 0, "", err
		}
		return do(client, http.MethodPut, base+"/fleet/properties", string(body))
	}
	running := func() ([]string, error) {
		_, names, err := listProperties(client, base+"/properties")
		return names, err
	}

	orig, err := read()
	if err != nil {
		return fmt.Errorf("GET /fleet/properties: %w", err)
	}
	if len(orig.Props) == 0 {
		return fmt.Errorf("/fleet/properties: the collector's startup set is empty")
	}
	withProbe := orig
	withProbe.Epoch = orig.Epoch + 1
	withProbe.Props = append(withProbe.Props[:len(withProbe.Props):len(withProbe.Props)], propMeta{probe, "smoke"})
	withProbe.Source = orig.Source + "\n" + probeSource
	withProbe.Members = []aggMember{{Addr: exportAddr, Admin: base}}
	if status, body, err := put(withProbe); err != nil || status != http.StatusOK {
		return fmt.Errorf("PUT /fleet/properties: status %d, want 200: %s %v", status, body, err)
	}
	if names, err := running(); err != nil || !slicesContains(names, probe) {
		return fmt.Errorf("/properties after a PUT with %q: %v %v", probe, names, err)
	}
	if d, err := read(); err != nil || len(d.Members) != 1 || d.Members[0].Addr != exportAddr {
		return fmt.Errorf("/fleet/properties after a PUT naming the fleet: %+v %v", d, err)
	}

	for _, bad := range []struct {
		what, method, body string
		want               int
	}{
		{"a body that is no document", http.MethodPut, `{"epoch": "x"`, http.StatusBadRequest},
		{"a source that does not parse", http.MethodPut, fmt.Sprintf(`{"epoch":%d,"props":[{"name":"broken"}],"source":"property \"broken\" {"}`, orig.Epoch+9), http.StatusBadRequest},
		{"a source under another name", http.MethodPut, fmt.Sprintf(`{"epoch":%d,"props":[{"name":"other"}],"source":%q}`, orig.Epoch+9, probeSource), http.StatusBadRequest},
		{"members no router takes", http.MethodPut, fmt.Sprintf(`{"epoch":%d,"props":[],"members":[{"addr":%q,"admin":%q,"weight":-1}]}`, orig.Epoch+9, exportAddr, base), http.StatusBadRequest},
		{"a POST", http.MethodPost, probeSource, http.StatusMethodNotAllowed},
		{"a stale document", http.MethodPut, fmt.Sprintf(`{"epoch":%d,"props":[]}`, withProbe.Epoch), http.StatusOK},
	} {
		status, body, err := do(client, bad.method, base+"/fleet/properties", bad.body)
		if err != nil {
			return fmt.Errorf("/fleet/properties with %s: %w", bad.what, err)
		}
		if status != bad.want {
			return fmt.Errorf("/fleet/properties with %s: status %d, want %d: %s", bad.what, status, bad.want, body)
		}
		if d, err := read(); err != nil || d.Epoch != withProbe.Epoch || len(d.Props) != len(withProbe.Props) {
			return fmt.Errorf("/fleet/properties with %s changed the set: %+v %v", bad.what, d, err)
		}
	}

	orig.Epoch, orig.Members = orig.Epoch+2, withProbe.Members
	if status, body, err := put(orig); err != nil || status != http.StatusOK {
		return fmt.Errorf("PUT /fleet/properties without %q: status %d, want 200: %s %v", probe, status, body, err)
	}
	if names, err := running(); err != nil || slicesContains(names, probe) || len(names) != len(orig.Props) {
		return fmt.Errorf("/properties after a PUT without %q: %v %v", probe, names, err)
	}
	return nil
}

// switchmonContent spot-checks content, not just shape: the metric
// families the PR contract names must be present, the -export route to
// the collector must have its own exporter series, and /state must
// report the demo's installed properties with the accounting having seen
// them.
func switchmonContent(client *http.Client, base, exportAddr string) error {
	body, err := get(client, base+"/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"switchmon_build_info{", "switchmon_go_goroutines",
		"switchmon_state_live_instances{", "switchmon_state_pressure{",
	} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("/metrics: missing %q", want)
		}
	}
	route := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "switchmon_exporter_events_total{") &&
			strings.Contains(line, `collector="`+exportAddr+`"`) {
			route = true
		}
	}
	if !route {
		return fmt.Errorf("/metrics: no switchmon_exporter_events_total{collector=%q} series for the -export route", exportAddr)
	}
	body, err = get(client, base+"/state")
	if err != nil {
		return err
	}
	var state struct {
		Properties []struct {
			Property string `json:"property"`
			Filings  uint64 `json:"filings"`
			TopKeys  []any  `json:"top_keys"`
		} `json:"properties"`
	}
	if err := json.Unmarshal(body, &state); err != nil {
		return fmt.Errorf("/state: %w", err)
	}
	if len(state.Properties) == 0 {
		return fmt.Errorf("/state: no properties in report")
	}
	// Accounting and the sketch must have seen the demo's instances:
	// every property filed at least once, and with -state-sample 1 the
	// heavy-hitter sketch holds the demo's flow key. (Watermark
	// crossings are not asserted here — the firewall demo's flows share
	// one binding signature, so live occupancy never exceeds 1; the
	// crossing behavior is covered by the core unit tests.)
	for _, p := range state.Properties {
		if p.Filings == 0 {
			return fmt.Errorf("/state: property %s filed no instances", p.Property)
		}
		if len(p.TopKeys) == 0 {
			return fmt.Errorf("/state: property %s has no top_keys despite -state-sample 1", p.Property)
		}
	}
	return nil
}

// selfMonitoring exercises the /query and /alerts surface beyond bare
// 200s: the history ring must hold real sampled series, the rule set
// must include both built-ins and the -slo flag's custom rule, and the
// rejection paths must answer 4xx with the uniform JSON error shape.
func selfMonitoring(client *http.Client, base string) error {
	// The sampler runs at 50ms; give it a few ticks, then /query must
	// return the monitor's throughput series with at least one point.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, err := get(client, base+"/query?series=switchmon_monitor_events_total*")
		if err != nil {
			return fmt.Errorf("GET /query: %w", err)
		}
		var q struct {
			SampleEveryNS int64 `json:"sample_every_ns"`
			Series        []struct {
				Key    string           `json:"key"`
				Kind   string           `json:"kind"`
				Points []map[string]any `json:"points"`
			} `json:"series"`
		}
		if err := json.Unmarshal(body, &q); err != nil {
			return fmt.Errorf("/query: invalid JSON: %w", err)
		}
		if q.SampleEveryNS != 50*time.Millisecond.Nanoseconds() {
			return fmt.Errorf("/query: sample_every_ns %d, want 50ms", q.SampleEveryNS)
		}
		if len(q.Series) > 0 && len(q.Series[0].Points) > 0 {
			if q.Series[0].Kind != "rate" {
				return fmt.Errorf("/query: counter series kind %q, want rate", q.Series[0].Kind)
			}
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/query: no sampled points for switchmon_monitor_events_total after 10s")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// /alerts must list the built-in rules plus the -slo custom rule,
	// all resting at ok in a healthy demo run.
	body, err := get(client, base+"/alerts")
	if err != nil {
		return fmt.Errorf("GET /alerts: %w", err)
	}
	var a struct {
		Alerts []struct {
			Rule  string `json:"rule"`
			State string `json:"state"`
		} `json:"alerts"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("/alerts: invalid JSON: %w", err)
	}
	rules := map[string]string{}
	for _, al := range a.Alerts {
		rules[al.Rule] = al.State
	}
	for _, want := range []string{"detection-latency-p99", "unsound-properties", "shed-rate", "smoke-extra"} {
		if _, ok := rules[want]; !ok {
			return fmt.Errorf("/alerts: rule %q missing (have %v)", want, rules)
		}
	}
	if st := rules["smoke-extra"]; st != "ok" {
		return fmt.Errorf("/alerts: smoke-extra state %q, want ok (threshold 1e12)", st)
	}

	// Rejection paths: a missing or empty glob, a malformed since, step
	// or limit, and a /query since past int64 nanoseconds.
	return rejected(client, base,
		"/query",
		"/query?series=",
		"/query?series=a%7C", // trailing empty alternative
		"/query?series=*&since=notanumber",
		"/query?series=*&step=bogus",
		"/query?series=*&since=1700000000000000000", // unix ns where seconds belong
		"/alerts?since=notanumber",
		"/alerts?limit=-1",
		"/violations?since=notanumber",
		"/violations?limit=-1",
		"/trace?since=notanumber",
		"/trace?limit=-1",
	)
}

// rejected requires every path to answer 4xx with the admin surface's
// {"error": ...} JSON shape.
func rejected(client *http.Client, base string, paths ...string) error {
	for _, bad := range paths {
		status, body, err := do(client, http.MethodGet, base+bad, "")
		if err != nil {
			return fmt.Errorf("GET %s: %w", bad, err)
		}
		if status/100 != 4 {
			return fmt.Errorf("GET %s: status %d, want 4xx", bad, status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			return fmt.Errorf("GET %s: body %q is not the {\"error\": ...} shape", bad, body)
		}
	}
	return nil
}

// fleetEdits installs and removes the probe through the aggregation
// tier's /properties and re-posts the fleet's membership through its
// /fleet: each edit answers the fleet's document one epoch on, an unknown
// name answers 404, and the member ends up holding the fleet's last
// document.
func fleetEdits(client *http.Client, aggBase, colBase string) error {
	edit := func(method, target, body string, want int) (propertySetDoc, error) {
		var d propertySetDoc
		status, ans, err := do(client, method, aggBase+target, body)
		if err == nil && status != want {
			err = fmt.Errorf("status %d, want %d: %s", status, want, ans)
		}
		if err == nil && want/100 == 2 {
			err = json.Unmarshal([]byte(ans), &d)
		}
		if err != nil {
			err = fmt.Errorf("%s %s: %w", method, target, err)
		}
		return d, err
	}
	installed, err := edit(http.MethodPost, "/properties", probeSource, http.StatusCreated)
	if err != nil {
		return err
	}
	removed, err := edit(http.MethodDelete, "/properties?name="+probe, "", http.StatusOK)
	if err != nil {
		return err
	}
	if installed.Epoch == 0 || removed.Epoch != installed.Epoch+1 {
		return fmt.Errorf("/properties: install answered epoch %d, remove %d; want consecutive", installed.Epoch, removed.Epoch)
	}
	if _, err := edit(http.MethodDelete, "/properties?name="+probe, "", http.StatusNotFound); err != nil {
		return err
	}
	fleet, err := json.Marshal(map[string][]aggMember{"members": removed.Members})
	if err != nil {
		return err
	}
	moved, err := edit(http.MethodPost, "/fleet", string(fleet), http.StatusOK)
	if err != nil {
		return err
	}
	if moved.Epoch != removed.Epoch+1 || len(moved.Members) != 1 || len(moved.Props) != len(removed.Props) {
		return fmt.Errorf("/fleet: a membership edit after epoch %d answered %+v", removed.Epoch, moved)
	}
	var member propertySetDoc
	body, err := get(client, colBase+"/fleet/properties")
	if err == nil {
		err = json.Unmarshal(body, &member)
	}
	if err != nil || member.Epoch != moved.Epoch || len(member.Props) != len(moved.Props) || len(member.Members) != 1 {
		return fmt.Errorf("the member holds %+v (%v) after the fleet's edits, want epoch %d", member, err, moved.Epoch)
	}
	return nil
}

// probe is the property the lifecycle checks install and remove.
const probe = "endpointsmoke-probe"

const probeSource = `property "` + probe + `" {
  description "install/remove probe for the endpoint smoke"
  on arrival "echo-request" {
    match icmp.type == 8
    bind $ID = icmp.id
  }
  unless egress "no-reply" within 2s {
    match icmp.type == 0
    match icmp.id == $ID
  }
}`

// properties drives switchmon's /properties through one full
// lifecycle against the live engine: list, install a probe property from
// DSL source, confirm it appears with a bumped epoch, remove it, and
// confirm the 4xx paths (malformed DSL, unknown name) reject without
// disturbing the installed set.
func properties(client *http.Client, base string) error {
	list := func() (uint64, []string, error) {
		d, names, err := listProperties(client, base+"/properties")
		return d.Epoch, names, err
	}
	epoch0, names0, err := list()
	if err != nil {
		return fmt.Errorf("GET /properties: %w", err)
	}
	if len(names0) == 0 {
		return fmt.Errorf("/properties: demo engine lists no properties")
	}

	if status, body, err := do(client, http.MethodPost, base+"/properties?tenant=smoke", probeSource); err != nil {
		return fmt.Errorf("POST /properties: %w", err)
	} else if status != http.StatusCreated {
		return fmt.Errorf("POST /properties: status %d, want 201: %s", status, body)
	}
	epoch1, names1, err := list()
	if err != nil {
		return fmt.Errorf("GET /properties after install: %w", err)
	}
	if epoch1 <= epoch0 {
		return fmt.Errorf("/properties: epoch %d did not advance past %d on install", epoch1, epoch0)
	}
	if !slicesContains(names1, probe) {
		return fmt.Errorf("/properties: %q missing after install: %v", probe, names1)
	}

	// The 4xx paths must reject without side effects: malformed DSL is
	// 400, removing an unknown name is 404.
	if status, _, err := do(client, http.MethodPost, base+"/properties", `property "broken" {`); err != nil {
		return fmt.Errorf("POST bad DSL: %w", err)
	} else if status != http.StatusBadRequest {
		return fmt.Errorf("POST bad DSL: status %d, want 400", status)
	}
	if status, _, err := do(client, http.MethodDelete, base+"/properties?name=no-such-property", ""); err != nil {
		return fmt.Errorf("DELETE unknown: %w", err)
	} else if status != http.StatusNotFound {
		return fmt.Errorf("DELETE unknown: status %d, want 404", status)
	}

	if status, body, err := do(client, http.MethodDelete, base+"/properties?name="+probe, ""); err != nil {
		return fmt.Errorf("DELETE /properties: %w", err)
	} else if status != http.StatusOK {
		return fmt.Errorf("DELETE /properties: status %d, want 200: %s", status, body)
	}
	epoch2, names2, err := list()
	if err != nil {
		return fmt.Errorf("GET /properties after remove: %w", err)
	}
	if epoch2 <= epoch1 {
		return fmt.Errorf("/properties: epoch %d did not advance past %d on remove", epoch2, epoch1)
	}
	if slicesContains(names2, probe) {
		return fmt.Errorf("/properties: %q still listed after remove: %v", probe, names2)
	}
	if len(names2) != len(names0) {
		return fmt.Errorf("/properties: install/remove cycle changed the set: before %v, after %v", names0, names2)
	}
	return nil
}

func slicesContains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// do issues a request with an optional body and returns the status and
// response body; non-2xx statuses are returned, not errors, so callers
// can assert the rejection paths.
func do(client *http.Client, method, url, body string) (int, string, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(b), nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// check fetches the URL and validates the body for its kind: "json" is
// one JSON value, "ndjson" zero or more JSON values back to back, and
// "text" any 200 body.
func check(client *http.Client, url, kind string) error {
	body, err := get(client, url)
	if err != nil {
		return err
	}
	switch kind {
	case "json":
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("invalid JSON: %w", err)
		}
	case "ndjson":
		dec := json.NewDecoder(strings.NewReader(string(body)))
		for dec.More() {
			var v any
			if err := dec.Decode(&v); err != nil {
				return fmt.Errorf("invalid NDJSON: %w", err)
			}
		}
	}
	return nil
}
