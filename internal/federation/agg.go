package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// Members is the fleet until the fleet's document names its members.
	Members []AggMember
	// Timeout bounds each member scrape/admin call (default
	// AdminTimeout).
	Timeout time.Duration
}

// Aggregator is the fleet head: it merges per-collector metrics,
// health, state reports, and violation streams into fleet-wide
// endpoints, and owns the fleet's one document — its property set and its
// membership — which it replicates onto every member, each member
// relaying it to its exporters.
//
// It holds no monitoring state of its own: every answer is composed
// from live member scrapes, and the document is re-learned from the
// members (settle), so a restarted aggregator's next edit, of the set or
// of the members, outranks every member and every router.
type Aggregator struct {
	mu sync.Mutex // guards props and behind
	// seed is the fleet until props names its members; props is the
	// fleet's document; behind, the members the last reconcile left
	// without it.
	seed   []AggMember
	props  PropertySetDoc
	behind int

	timeout time.Duration

	adminErrs [len(adminOps)]atomic.Uint64

	// Self-monitoring, attached via AttachSelfMonitor before Mux().
	history *histdb.DB
	alerts  *slo.Engine
}

// NewAggregator builds the fleet head over the given members.
func NewAggregator(cfg AggConfig) (*Aggregator, error) {
	if err := ValidateMembers(cfg.Members); err != nil {
		return nil, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = AdminTimeout
	}
	return &Aggregator{seed: slices.Clone(cfg.Members), timeout: cfg.Timeout}, nil
}

// ValidateMembers is the one rule a member list passes, at NewAggregator,
// at ApplyMembership, at a member's apply and for fleetagg's -members: at
// least one member, each naming an admin URL, whose addrs and weights
// build a Ring (NewRing: non-empty unique addrs, finite non-negative
// weights, 0 meaning 1) and which the wire carries as a fleet config —
// so no membership is accepted that every router would refuse.
func ValidateMembers(members []AggMember) error {
	if len(members) == 0 {
		return fmt.Errorf("federation: fleet config needs at least one member")
	}
	ring := make([]Member, len(members))
	for i, m := range members {
		if m.Admin == "" {
			return fmt.Errorf("federation: member %q needs an admin URL", m.Addr)
		}
		ring[i] = Member{Addr: m.Addr, Weight: m.Weight}
	}
	_, err := NewRing(ring)
	if err == nil {
		_, err = wire.AppendConfig(nil, PropertySetDoc{Members: members}.fleetConfig())
	}
	return err
}

// fleet is the fleet's document naming the current membership: its own
// members, else the seed.
func (a *Aggregator) fleet() PropertySetDoc {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.props
	if len(d.Members) == 0 {
		d.Members = a.seed
	}
	return d
}

// The ops switchmon_fleet_admin_errors_total counts failures of: a
// member scrape (every GET), a document PUT.
const (
	opScrape = iota
	opProperties
)

var adminOps = [...]string{opScrape: "scrape", opProperties: "properties"}

// call is every admin call the aggregator makes to a member: AdminCall to
// path on m's admin URL with a JSON body, a failure counted under op.
func (a *Aggregator) call(op int, method string, m AggMember, path, body string) ([]byte, error) {
	b, err := AdminCall(a.timeout, method, strings.TrimRight(m.Admin, "/")+path, "application/json", body)
	if err != nil {
		a.adminErrs[op].Add(1)
	}
	return b, err
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
	return a.collectJSONPer(a.fleet().Members, func(AggMember) string { return path })
}

// collectJSONPer is collectJSON over members with a per-member path, so
// callers can thread member-specific cursors into the fan-out.
func (a *Aggregator) collectJSONPer(members []AggMember, pathFor func(AggMember) string) []memberDoc {
	out := make([]memberDoc, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m AggMember) {
			defer wg.Done()
			out[i].Member = m.Addr
			body, err := a.call(opScrape, http.MethodGet, m, pathFor(m), "")
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
// reachability, the document's epoch, members behind it, failed admin
// calls.
func (a *Aggregator) fleetFamilies(reachable int) []obs.FamilySnapshot {
	d := a.fleet()
	a.mu.Lock()
	n, epoch, behind := len(d.Members), d.Epoch, a.behind
	a.mu.Unlock()
	fam := func(kind, name, help string, v int64) obs.FamilySnapshot {
		return obs.FamilySnapshot{Name: name, Help: help, Kind: kind, Series: []obs.SeriesSnapshot{{Value: v}}}
	}
	errs := obs.FamilySnapshot{Name: "switchmon_fleet_admin_errors_total", Help: "Member admin calls that failed, by op.", Kind: "counter"}
	for op, name := range adminOps {
		errs.Series = append(errs.Series, obs.SeriesSnapshot{Labels: []obs.Label{{Key: "op", Value: name}}, Value: int64(a.adminErrs[op].Load())})
	}
	return []obs.FamilySnapshot{
		fam("gauge", "switchmon_fleet_members", "Collectors in the current fleet config.", int64(n)),
		fam("gauge", "switchmon_fleet_members_reachable", "Members that answered the last fleet scrape.", int64(reachable)),
		fam("gauge", "switchmon_fleet_members_unreachable", "Members that did not answer the last fleet scrape.", int64(n-reachable)),
		fam("gauge", "switchmon_fleet_epoch", "Epoch of the fleet's document.", int64(epoch)),
		fam("gauge", "switchmon_fleet_members_behind", "Members the last reconcile left without the fleet's document.", int64(behind)),
		errs,
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

// Sample is the fleet-history sampler's source: FleetSnapshot, with one
// replication round of the document (reconcile) run beside it, so a
// member that hangs costs the tick one timeout, not two. The sampler's
// tick is the replication cadence; /metrics only scrapes.
func (a *Aggregator) Sample() obs.Snapshot {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = a.reconcile(nil)
	}()
	snap := a.FleetSnapshot()
	<-done
	return snap
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

// ApplyMembership is a membership edit: the fleet's document, settled as
// for a property edit, names members one epoch on, and the round PUTs it
// to old and new members alike, so departing members relay it to their
// exporters too. A list ValidateMembers refuses changes nothing.
func (a *Aggregator) ApplyMembership(members []AggMember) (PropertySetDoc, error) {
	if err := ValidateMembers(members); err != nil {
		return PropertySetDoc{}, err
	}
	return a.reconcile(func(d PropertySetDoc) (PropertySetDoc, error) {
		d.Epoch, d.Members = d.Epoch+1, slices.Clone(members)
		return d, nil
	})
}

// reconcile is one round of document replication and, given a change, an
// edit: read every member's applied document, settle the fleet's onto the
// newest, apply change, and PUT the result, concurrently, to every
// reachable member behind it and to every member the result names that
// was not read (a membership edit's joiners). A member that is down stays
// behind until a later round finds it up, so an edit refuses only what
// settle and change refuse.
func (a *Aggregator) reconcile(change func(PropertySetDoc) (PropertySetDoc, error)) (PropertySetDoc, error) {
	members, _, held := a.holdings()
	a.mu.Lock()
	doc, err := settle(a.props, held)
	if err == nil && change != nil {
		doc, err = change(doc)
	}
	if err == nil {
		a.props = doc
	}
	a.mu.Unlock()
	if err != nil {
		return doc, err
	}
	for _, m := range doc.Members {
		if !slices.ContainsFunc(members, func(o AggMember) bool { return o.Admin == m.Admin }) {
			members = append(members, m)
		}
	}
	body, _ := json.Marshal(doc) // a PropertySetDoc always encodes
	var behind atomic.Int64
	var wg sync.WaitGroup
	for i, m := range members {
		read := i < len(held)
		switch {
		case doc.Epoch == 0 || read && held[i] != nil && held[i].Epoch >= doc.Epoch:
		case read && held[i] == nil:
			behind.Add(1)
		default:
			wg.Add(1)
			go func(m AggMember) {
				defer wg.Done()
				var got PropertySetDoc
				ans, err := a.call(opProperties, http.MethodPut, m, "/fleet/properties", string(body))
				if err != nil || json.Unmarshal(ans, &got) != nil || got.Epoch < doc.Epoch {
					behind.Add(1)
				}
			}(m)
		}
	}
	wg.Wait()
	a.mu.Lock()
	if a.props.Epoch == doc.Epoch {
		a.behind = int(behind.Load())
	}
	a.mu.Unlock()
	return doc, nil
}

// holdings reads every member's applied document: held[i] is nil for a
// member that did not answer one.
func (a *Aggregator) holdings() ([]AggMember, []memberDoc, []*PropertySetDoc) {
	members := a.fleet().Members
	docs := a.collectJSONPer(members, func(AggMember) string { return "/fleet/properties" })
	held := make([]*PropertySetDoc, len(docs))
	for i, d := range docs {
		var h PropertySetDoc
		if d.Error == "" && json.Unmarshal(d.Doc, &h) == nil {
			held[i] = &h
		}
	}
	return members, docs, held
}

// settle is the one rule for which document an edit builds on and a
// round replicates, over own, the aggregator's, and
// held, the members' (nil for no answer): the highest epoch, own first
// among equals. Two different documents at the winning epoch (a member
// edited on its own) are re-issued one above it, since a member refuses
// a document not newer than its own (wire.HighWater). Before the first
// edit own is epoch 0, no document: the members' startup sets are the
// base, and they stand until an edit — which is refused (409) while the
// members that answer hold different startup sets, and (503) while none
// answers, rather than replace what the fleet runs with a set built on
// nothing.
func settle(own PropertySetDoc, held []*PropertySetDoc) (PropertySetDoc, error) {
	top, split, known := own, false, own.Epoch > 0
	for _, h := range held {
		switch {
		case h == nil:
		case !known || h.Epoch > top.Epoch:
			top, split, known = *h, false, true
		case h.Epoch == top.Epoch && !h.same(top):
			split = true
		}
	}
	switch {
	case !known:
		return top, &export.StatusError{Code: http.StatusServiceUnavailable, Msg: "no member answered: the fleet's document is unknown"}
	case split && top.Epoch == 0:
		return top, &export.StatusError{Code: http.StatusConflict, Msg: "the members hold different startup sets: align them, or edit one member on its own to make its set the fleet's"}
	case split:
		top.Epoch++
	}
	return top, nil
}

// health is the fleet's HealthFunc: sound iff every member answers
// "ok", with the member docs as the detail.
func (a *Aggregator) health() (bool, any) {
	docs := a.collectJSON("/healthz")
	for _, d := range docs {
		if d.Error != "" || string(d.Doc) != `"ok"` {
			return false, docs
		}
	}
	return true, docs
}

// propertySets is the fleet's GET /properties: the fleet's document,
// every member's applied one, and whether they all hold one set at one
// epoch — the fleet's, once it has one.
func (a *Aggregator) propertySets() any {
	_, docs, held := a.holdings()
	a.mu.Lock()
	fleet := a.props
	a.mu.Unlock()
	ref := fleet
	if ref.Epoch == 0 && len(held) > 0 && held[0] != nil {
		ref = *held[0]
	}
	converged := len(held) > 0
	for _, h := range held {
		converged = converged && h != nil && h.Epoch == ref.Epoch && h.same(ref)
	}
	return struct {
		Document  PropertySetDoc `json:"document"`
		Converged bool           `json:"converged"`
		Members   []memberDoc    `json:"members"`
	}{fleet, converged, docs}
}

// Mux serves the fleet-wide endpoints:
//
//	/metrics     member registries merged (summed) under the
//	             switchmon_fleet_* namespace, plus fleet gauges
//	/healthz     "ok" iff every member is reachable and sound; else the
//	             export.HealthHandler degradation report, the member
//	             docs as its detail
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
//	/properties  GET: the fleet's document, every
//	             member's applied one, and a converged flag; POST/DELETE:
//	             edit the document, replicate it (reconcile) and answer
//	             it with its new epoch; settle's refusals answer 409/503
//	/fleet       GET: the fleet's document naming the current membership
//	             (fleet); POST: a membership edit (ApplyMembership),
//	             answered with the new document; a list ValidateMembers
//	             refuses answers 400, settle's refusals 409/503
//
// Errors answer the admin surface's uniform {"error": "..."} JSON shape.
func (a *Aggregator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		export.Metrics(w, r, a.FleetSnapshot())
	})
	mux.HandleFunc("/healthz", export.HealthHandler(a.health, a.alerts))
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
			docs := a.collectJSONPer(a.fleet().Members, func(m AggMember) string {
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
	mux.HandleFunc("/properties", export.PropertiesHandler(&export.PropertiesConfig{
		List: a.propertySets,
		Install: func(src, tenant string) (any, error) {
			return a.reconcile(func(d PropertySetDoc) (PropertySetDoc, error) {
				d, err := d.Install(src, tenant)
				if err == nil {
					err = d.fits()
				}
				return d, err
			})
		},
		Remove: func(name string) (any, error) {
			return a.reconcile(func(d PropertySetDoc) (PropertySetDoc, error) { return d.Remove(name) })
		},
	}))
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			export.JSON(w, a.fleet())
		case http.MethodPost:
			var req struct {
				Members []AggMember `json:"members"`
			}
			if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
				export.Error(w, http.StatusBadRequest, err.Error())
				return
			}
			doc, err := a.ApplyMembership(req.Members)
			if err != nil {
				code := http.StatusBadRequest
				if se := (*export.StatusError)(nil); errors.As(err, &se) {
					code = se.Code
				}
				export.Error(w, code, err.Error())
				return
			}
			export.JSON(w, doc)
		default:
			export.Error(w, http.StatusMethodNotAllowed, "GET or POST")
		}
	})
	return mux
}
