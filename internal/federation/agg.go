package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/obs/export"
	"switchmon/internal/obs/histdb"
	"switchmon/internal/obs/slo"
	"switchmon/internal/wire"
)

// AggMember is one collector in the fleet as the aggregation tier sees
// it: the TCP address exporters dial, and the admin HTTP base URL the
// aggregator scrapes and administers.
type AggMember struct {
	Addr   string  `json:"addr"`
	Admin  string  `json:"admin"`
	Weight float64 `json:"weight,omitempty"`
}

// AggConfig parameterizes an Aggregator.
type AggConfig struct {
	// Members is the initial fleet.
	Members []AggMember
	// Epoch is the initial fleet-config epoch; membership changes
	// applied through /fleet increment it.
	Epoch uint64
	// Timeout bounds each member scrape/admin call (default 3s).
	Timeout time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// Aggregator is the fleet head: it merges per-collector metrics,
// health, state reports, and violation streams into fleet-wide
// endpoints, serializes property-lifecycle operations into one
// fleet-wide order, and drives membership changes by posting a FleetDoc
// to every member collector, which relays it to its exporters.
//
// It holds no monitoring state of its own — every answer is composed
// from live member scrapes, so a restarted aggregator is immediately
// current.
type Aggregator struct {
	mu      sync.Mutex // guards members/epoch and the scrape-error count
	opMu    sync.Mutex // serializes lifecycle ops into one fleet-wide order
	members []AggMember
	epoch   uint64

	client  *http.Client
	timeout time.Duration

	scrapeErrs uint64

	// Self-monitoring, attached via AttachSelfMonitor before Mux().
	history *histdb.DB
	alerts  *slo.Engine
}

// NewAggregator builds the fleet head over the given members.
func NewAggregator(cfg AggConfig) (*Aggregator, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("federation: aggregator needs at least one member")
	}
	for _, m := range cfg.Members {
		if m.Addr == "" || m.Admin == "" {
			return nil, fmt.Errorf("federation: member needs both addr and admin URL: %+v", m)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * time.Second
	}
	cl := cfg.Client
	if cl == nil {
		cl = &http.Client{Timeout: cfg.Timeout}
	}
	return &Aggregator{
		members: append([]AggMember(nil), cfg.Members...),
		epoch:   cfg.Epoch,
		client:  cl,
		timeout: cfg.Timeout,
	}, nil
}

// Members snapshots the current membership.
func (a *Aggregator) Members() []AggMember {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AggMember(nil), a.members...)
}

// Epoch is the current fleet-config epoch.
func (a *Aggregator) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// get fetches one member endpoint, returning the body.
func (a *Aggregator) get(admin, path string) ([]byte, error) {
	resp, err := a.client.Get(strings.TrimRight(admin, "/") + path)
	if err != nil {
		a.mu.Lock()
		a.scrapeErrs++
		a.mu.Unlock()
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s%s: %s: %s", admin, path, resp.Status, bytes.TrimSpace(body))
	}
	if err != nil {
		a.mu.Lock()
		a.scrapeErrs++
		a.mu.Unlock()
		return nil, err
	}
	return body, nil
}

// memberDoc is one member's contribution to a fleet-wide JSON answer.
type memberDoc struct {
	Member string          `json:"member"`
	Error  string          `json:"error,omitempty"`
	Doc    json.RawMessage `json:"doc,omitempty"`
}

// collectJSON fetches path from every member concurrently, in member
// order.
func (a *Aggregator) collectJSON(path string) []memberDoc {
	return a.collectJSONPer(func(AggMember) string { return path })
}

// collectJSONPer is collectJSON with a per-member path, so callers can
// thread member-specific cursors into the fan-out.
func (a *Aggregator) collectJSONPer(pathFor func(AggMember) string) []memberDoc {
	members := a.Members()
	out := make([]memberDoc, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m AggMember) {
			defer wg.Done()
			out[i].Member = m.Addr
			body, err := a.get(m.Admin, pathFor(m))
			if err != nil {
				out[i].Error = err.Error()
				return
			}
			if json.Valid(body) {
				out[i].Doc = body
			} else {
				// Non-JSON member answers (plain "ok") are quoted.
				q, _ := json.Marshal(strings.TrimSpace(string(body)))
				out[i].Doc = q
			}
		}(i, m)
	}
	wg.Wait()
	return out
}

// labelSig canonicalizes a label set for cross-member series matching.
func labelSig(labels []obs.Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}

// mergeSnapshots sums per-member registry snapshots into one fleet
// snapshot: families matched by name, series matched by label set,
// counters/gauges summed, histogram buckets/sums/counts summed. Family
// names gain the fleet prefix: switchmon_engine_events_total becomes
// switchmon_fleet_engine_events_total, so a fleet scrape can never be
// confused with (or double-counted against) a member scrape.
func mergeSnapshots(snaps []obs.Snapshot) obs.Snapshot {
	type famAcc struct {
		fam   obs.FamilySnapshot
		index map[string]int
		order int
	}
	fams := map[string]*famAcc{}
	nextOrder := 0
	for _, s := range snaps {
		for _, f := range s.Families {
			acc := fams[f.Name]
			if acc == nil {
				acc = &famAcc{
					fam:   obs.FamilySnapshot{Name: fleetName(f.Name), Help: f.Help, Kind: f.Kind},
					index: map[string]int{},
					order: nextOrder,
				}
				nextOrder++
				fams[f.Name] = acc
			}
			for _, ser := range f.Series {
				sig := labelSig(ser.Labels)
				i, ok := acc.index[sig]
				if !ok {
					i = len(acc.fam.Series)
					acc.index[sig] = i
					acc.fam.Series = append(acc.fam.Series, obs.SeriesSnapshot{
						Labels:  append([]obs.Label(nil), ser.Labels...),
						Buckets: append([]uint64(nil), ser.Buckets...),
					})
					acc.fam.Series[i].Value = ser.Value
					acc.fam.Series[i].Count = ser.Count
					acc.fam.Series[i].Sum = ser.Sum
					continue
				}
				dst := &acc.fam.Series[i]
				dst.Value += ser.Value
				dst.Count += ser.Count
				dst.Sum += ser.Sum
				for bi, n := range ser.Buckets {
					if bi < len(dst.Buckets) {
						dst.Buckets[bi] += n
					} else {
						dst.Buckets = append(dst.Buckets, n)
					}
				}
			}
		}
	}
	ordered := make([]*famAcc, 0, len(fams))
	for _, acc := range fams {
		ordered = append(ordered, acc)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].order < ordered[j].order })
	var out obs.Snapshot
	for _, acc := range ordered {
		out.Families = append(out.Families, acc.fam)
	}
	return out
}

// fleetName maps a member family name into the fleet namespace.
func fleetName(name string) string {
	if rest, ok := strings.CutPrefix(name, "switchmon_"); ok {
		return "switchmon_fleet_" + rest
	}
	return "switchmon_fleet_" + name
}

// fleetFamilies builds the aggregator's own series: membership size,
// reachability, fleet epoch, scrape errors.
func (a *Aggregator) fleetFamilies(reachable int) []obs.FamilySnapshot {
	a.mu.Lock()
	n, epoch, errs := len(a.members), a.epoch, a.scrapeErrs
	a.mu.Unlock()
	g := func(name, help string, v int64) obs.FamilySnapshot {
		return obs.FamilySnapshot{Name: name, Help: help, Kind: "gauge",
			Series: []obs.SeriesSnapshot{{Value: v}}}
	}
	c := func(name, help string, v int64) obs.FamilySnapshot {
		return obs.FamilySnapshot{Name: name, Help: help, Kind: "counter",
			Series: []obs.SeriesSnapshot{{Value: v}}}
	}
	return []obs.FamilySnapshot{
		g("switchmon_fleet_members", "Collectors in the current fleet config.", int64(n)),
		g("switchmon_fleet_members_reachable", "Members that answered the last fleet scrape.", int64(reachable)),
		g("switchmon_fleet_members_unreachable", "Members that did not answer the last fleet scrape.", int64(n-reachable)),
		g("switchmon_fleet_epoch", "Applied fleet-config epoch.", int64(epoch)),
		c("switchmon_fleet_scrape_errors_total", "Member admin calls that failed.", int64(errs)),
	}
}

// FleetSnapshot scrapes every member and returns the merged fleet
// snapshot with the aggregator's own fleet gauges prepended — the same
// document /metrics serves, exposed as a function so a histdb sampler
// can record fleet history (Source mode) and an SLO engine can alert on
// it, including on members going dark (the unreachable gauge).
func (a *Aggregator) FleetSnapshot() obs.Snapshot {
	snaps, reachable := a.scrapeMetrics()
	merged := mergeSnapshots(snaps)
	merged.Families = append(a.fleetFamilies(reachable), merged.Families...)
	return merged
}

// AttachSelfMonitor wires the aggregator's own history ring and alert
// engine into the mux Mux builds: /query and /alerts get registered,
// and firing rules fold into the /healthz degradation report. Call it
// before Mux.
func (a *Aggregator) AttachSelfMonitor(db *histdb.DB, eng *slo.Engine) {
	a.history = db
	a.alerts = eng
}

// scrapeMetrics pulls every member's registry snapshot; a member is
// reachable when it answers one.
func (a *Aggregator) scrapeMetrics() (snaps []obs.Snapshot, reachable int) {
	for _, d := range a.collectJSON("/metrics?format=json") {
		var snap obs.Snapshot
		if d.Error == "" && json.Unmarshal(d.Doc, &snap) == nil {
			snaps = append(snaps, snap)
		}
	}
	return snaps, len(snaps)
}

// pushFleetConfig posts the fleet document to every reachable member's
// /fleet admin endpoint, which broadcasts it to that member's connected
// exporters; since every federated exporter holds a route to every
// member, one reachable member suffices for convergence, and the push
// is idempotent under the routers' epoch filter. Returns the first
// error with the count of successful pushes.
func (a *Aggregator) pushFleetConfig(members []AggMember, fc *FleetDoc) (int, error) {
	body, err := json.Marshal(fc)
	if err != nil {
		return 0, err
	}
	pushed := 0
	var firstErr error
	for _, m := range members {
		if err := a.send(http.MethodPost, strings.TrimRight(m.Admin, "/")+"/fleet", "application/json", bytes.NewReader(body)); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		pushed++
	}
	return pushed, firstErr
}

// send makes one admin call on a member — the fleet push or one step of
// the lifecycle fan-out — and requires a 2xx answer, returning the
// member's error body otherwise.
func (a *Aggregator) send(method, target, contentType string, body io.Reader) error {
	req, err := http.NewRequest(method, target, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", method, target, resp.Status, bytes.TrimSpace(b))
	}
	return nil
}

// ApplyMembership installs a new member set: bumps the fleet epoch and
// pushes the resulting FleetDoc through the union of old and new
// members (departing members relay the config to their exporters too,
// when still reachable).
func (a *Aggregator) ApplyMembership(members []AggMember) (*FleetDoc, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet config needs at least one member")
	}
	for _, m := range members {
		if m.Addr == "" || m.Admin == "" {
			return nil, fmt.Errorf("member needs both addr and admin URL: %+v", m)
		}
		if m.Weight < 0 || math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) {
			return nil, fmt.Errorf("member %s: invalid weight %v", m.Addr, m.Weight)
		}
	}
	a.mu.Lock()
	old := a.members
	a.epoch++
	fc := &FleetDoc{Epoch: a.epoch}
	for _, m := range members {
		// The wire carries weight as fixed-point millis so fractional
		// capacities survive the trip (0 means the default weight 1.0);
		// any positive weight rounds to at least one milli-unit.
		w := uint64(math.Round(m.Weight * 1000))
		if m.Weight > 0 && w == 0 {
			w = 1
		}
		fc.Members = append(fc.Members, wire.FleetMember{Addr: m.Addr, Weight: w})
	}
	a.members = append([]AggMember(nil), members...)
	a.mu.Unlock()

	union := append([]AggMember(nil), members...)
	have := map[string]bool{}
	for _, m := range members {
		have[m.Admin] = true
	}
	for _, m := range old {
		if !have[m.Admin] {
			union = append(union, m)
		}
	}
	pushed, err := a.pushFleetConfig(union, fc)
	if pushed > 0 {
		// Convergence only needs one relay; partial push is a warning,
		// not a failure.
		err = nil
	}
	return fc, err
}

// lifecycleOp forwards one property-lifecycle operation to every
// member's local-apply endpoint in member order, under the lifecycle
// lock — the single fleet-wide serialization point that keeps every
// collector's epoch sequence identical.
func (a *Aggregator) lifecycleOp(do func(m AggMember) error) error {
	a.mu.Lock()
	members := append([]AggMember(nil), a.members...)
	a.mu.Unlock()
	var firstErr error
	applied := 0
	for _, m := range members {
		if err := do(m); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", m.Addr, err)
			}
			continue
		}
		applied++
	}
	if firstErr != nil {
		return fmt.Errorf("applied on %d/%d members, first error: %w", applied, len(members), firstErr)
	}
	return nil
}

// InstallProperty applies the DSL source on every member, serialized.
func (a *Aggregator) InstallProperty(src, tenant string) error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.lifecycleOp(func(m AggMember) error {
		u := strings.TrimRight(m.Admin, "/") + "/fleet/properties"
		if tenant != "" {
			u += "?tenant=" + url.QueryEscape(tenant)
		}
		return a.send(http.MethodPost, u, "text/plain", strings.NewReader(src))
	})
}

// RemoveProperty removes the named property on every member, serialized.
func (a *Aggregator) RemoveProperty(name string) error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.lifecycleOp(func(m AggMember) error {
		u := strings.TrimRight(m.Admin, "/") + "/fleet/properties?name=" + url.QueryEscape(name)
		return a.send(http.MethodDelete, u, "", nil)
	})
}

// Mux serves the fleet-wide endpoints:
//
//	/metrics     member registries merged (summed) under the
//	             switchmon_fleet_* namespace, plus fleet gauges
//	/healthz     "ok" iff every member is reachable and sound; else a
//	             JSON degradation report with per-member detail
//	/state       per-member state-cost reports, keyed by member
//	/violations  per-member violation dumps, keyed by member;
//	             ?since/?limit forward to every member, and repeated
//	             ?cursor=<addr>=<seq> params override since per member
//	             so a poller can resume each member's stream where it
//	             left off (both endpoints validate ?since/?limit with
//	             export.ReadPage: a malformed one answers 400)
//	/query       fleet metrics history (when AttachSelfMonitor wired a
//	             history ring; see export.HistoryHandler)
//	/alerts      fleet SLO rule status (when AttachSelfMonitor wired an
//	             alert engine; see export.AlertsHandler)
//	/properties  GET: per-member property sets plus a converged flag;
//	             POST/DELETE: the op applied on every member in one
//	             fleet-wide serialized order
//	/fleet       GET: current membership and epoch; POST: install a new
//	             member set, push it fleet-wide, and answer its FleetDoc
//
// Errors answer the admin surface's uniform {"error": "..."} JSON shape.
func (a *Aggregator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		export.Metrics(w, r, a.FleetSnapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		docs := a.collectJSON("/healthz")
		healthy := true
		for _, d := range docs {
			if d.Error != "" || string(d.Doc) != `"ok"` {
				healthy = false
				break
			}
		}
		var firing []slo.ActiveAlert
		if a.alerts != nil {
			firing = a.alerts.Degraded()
		}
		if healthy && len(firing) == 0 {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
			return
		}
		export.JSON(w, struct {
			Status  string            `json:"status"`
			Members []memberDoc       `json:"members"`
			Alerts  []slo.ActiveAlert `json:"alerts,omitempty"`
		}{Status: "degraded", Members: docs, Alerts: firing})
	})
	serveMembers := func(path string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			p, ok := export.ReadPage(w, r)
			if !ok {
				return
			}
			// Per-member cursors: repeated ?cursor=<addr>=<seq> override
			// the global ?since for that member, so one poll can resume
			// every member's independent sequence space.
			cursors := map[string]string{}
			for _, c := range r.URL.Query()["cursor"] {
				addr, seq, ok := strings.Cut(c, "=")
				if !ok {
					export.Errorf(w, http.StatusBadRequest, "bad cursor %q: want <addr>=<seq>", c)
					return
				}
				if _, err := strconv.ParseUint(seq, 10, 64); err != nil {
					export.Errorf(w, http.StatusBadRequest, "bad cursor %q: seq %q is not an unsigned integer", c, seq)
					return
				}
				cursors[addr] = seq
			}
			docs := a.collectJSONPer(func(m AggMember) string {
				vals := url.Values{}
				if v, ok := cursors[m.Addr]; ok {
					vals.Set("since", v)
				} else if p.HasSince {
					vals.Set("since", strconv.FormatUint(p.Since, 10))
				}
				if p.Limit >= 0 {
					vals.Set("limit", strconv.Itoa(p.Limit))
				}
				if len(vals) == 0 {
					return path
				}
				return path + "?" + vals.Encode()
			})
			export.JSON(w, struct {
				Members []memberDoc `json:"members"`
			}{docs})
		}
	}
	mux.HandleFunc("/state", serveMembers("/state"))
	mux.HandleFunc("/violations", serveMembers("/violations"))
	if a.history != nil {
		mux.HandleFunc("/query", export.HistoryHandler(a.history))
	}
	if a.alerts != nil {
		mux.HandleFunc("/alerts", export.AlertsHandler(a.alerts))
	}
	mux.HandleFunc("/properties", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			docs := a.collectJSON("/properties")
			converged := len(docs) > 0
			for _, d := range docs {
				if d.Error != "" || !bytes.Equal(d.Doc, docs[0].Doc) {
					converged = false
				}
			}
			export.JSON(w, struct {
				Converged bool        `json:"converged"`
				Members   []memberDoc `json:"members"`
			}{converged, docs})
		case http.MethodPost:
			src, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				export.Error(w, http.StatusBadRequest, err.Error())
				return
			}
			if err := a.InstallProperty(string(src), r.URL.Query().Get("tenant")); err != nil {
				export.Error(w, http.StatusBadRequest, err.Error())
				return
			}
			w.WriteHeader(http.StatusCreated)
			fmt.Fprintln(w, "installed fleet-wide")
		case http.MethodDelete:
			name := r.URL.Query().Get("name")
			if name == "" {
				export.Error(w, http.StatusBadRequest, "missing ?name=")
				return
			}
			if err := a.RemoveProperty(name); err != nil {
				export.Error(w, http.StatusNotFound, err.Error())
				return
			}
			fmt.Fprintln(w, "removed fleet-wide")
		default:
			export.Error(w, http.StatusMethodNotAllowed, "GET, POST or DELETE")
		}
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			a.mu.Lock()
			doc := struct {
				Epoch   uint64      `json:"epoch"`
				Members []AggMember `json:"members"`
			}{a.epoch, append([]AggMember(nil), a.members...)}
			a.mu.Unlock()
			export.JSON(w, doc)
		case http.MethodPost:
			var req struct {
				Members []AggMember `json:"members"`
			}
			if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
				export.Error(w, http.StatusBadRequest, err.Error())
				return
			}
			fc, err := a.ApplyMembership(req.Members)
			if err != nil {
				export.Error(w, http.StatusBadRequest, err.Error())
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(fc)
		default:
			export.Error(w, http.StatusMethodNotAllowed, "GET or POST")
		}
	})
	return mux
}
