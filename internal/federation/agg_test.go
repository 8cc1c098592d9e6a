package federation

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/obs/export"
	"switchmon/internal/wire"
)

const testPropDSL = `
property "syn-gets-egress" {
  description "test: an arriving SYN must egress on the same switch"

  on arrival "syn" {
    match tcp.syn == 1
    bind $SW = switch.id
  }

  on egress "out" within 1s {
    match switch.id == $SW
  }
}
`

// fleetMember is one full collector-side stack as cmd/collector wires
// it: sharded engine, wire collector, the property set pushing through
// it, and the admin mux with the fleet member endpoints registered —
// with no startup set, so nothing is pushed before the first document.
// stop and restart take the admin endpoint down and bring it back on the
// same URL, the engine and its set untouched.
type fleetMember struct {
	sm    *core.ShardedMonitor
	col   *collector.Collector
	set   *PropertySet
	mux   *http.ServeMux
	admin *httptest.Server
}

func (m *fleetMember) aggMember() AggMember {
	return AggMember{Addr: m.col.Addr().String(), Admin: m.admin.URL}
}

func startFleetMember(t *testing.T) *fleetMember {
	t.Helper()
	reg := obs.NewRegistry()
	sm := core.NewShardedMonitor(2, core.Config{Metrics: reg})
	t.Cleanup(sm.Close)
	col, err := collector.New(collector.Config{Addr: "127.0.0.1:0", Metrics: reg}, sm)
	if err != nil {
		t.Fatal(err)
	}
	col.Serve()
	t.Cleanup(col.Close)
	set := NewPropertySet(sm, col.Broadcast)

	mc := export.MuxConfig{
		Registry: reg,
		Health: func() (bool, any) {
			marks := sm.Ledger().Snapshot()
			return len(marks) == 0, marks
		},
		State:      func() any { return sm.StateReport() },
		Properties: set.Edits(),
	}
	mux := export.NewMux(mc)
	RegisterMemberEndpoints(mux, set)
	srv := httptest.NewServer(mux)
	m := &fleetMember{sm: sm, col: col, set: set, mux: mux, admin: srv}
	t.Cleanup(func() { m.admin.Close() })
	return m
}

func (m *fleetMember) stop() { m.admin.Close() }

func (m *fleetMember) restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", m.admin.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(m.mux)
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	m.admin = srv
}

func startAgg(t *testing.T, members ...*fleetMember) (*Aggregator, *httptest.Server) {
	t.Helper()
	ms := make([]AggMember, len(members))
	for i, m := range members {
		ms[i] = m.aggMember()
	}
	a, err := NewAggregator(AggConfig{Members: ms})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(a.Mux())
	t.Cleanup(srv.Close)
	return a, srv
}

func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// propsDo is httpDo for an answer that is a property-set document.
func propsDo(t *testing.T, method, url, body string) (int, PropertySetDoc) {
	t.Helper()
	code, ans := httpDo(t, method, url, body)
	var doc PropertySetDoc
	if code/100 == 2 {
		if err := json.Unmarshal([]byte(ans), &doc); err != nil {
			t.Fatalf("%s %s answered %q: %v", method, url, ans, err)
		}
	}
	return code, doc
}

// TestAggregatorLifecyclePropagation is the fleet-wide property
// lifecycle gate: an install or remove submitted to the aggregation
// tier must reach every collector AND every exporter, with all members
// advancing through the same epoch sequence — one fleet-wide lifecycle
// order — and each epoch applied exactly once at the switch despite
// arriving on every route.
func TestAggregatorLifecyclePropagation(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	_, aggSrv := startAgg(t, m1, m2)

	// A federated switch with a route to each member records every
	// property-set delivery its (deduplicated) callback sees.
	var pmu sync.Mutex
	var gotEpochs []uint64
	var gotProps [][]wire.PropMeta
	newTestRouter(t, []Member{{Addr: m1.col.Addr().String()}, {Addr: m2.col.Addr().String()}}, func(c *Config) {
		c.Exporter.OnConfig[wire.ConfigProperties] = func(u *wire.Config) {
			pmu.Lock()
			gotEpochs = append(gotEpochs, u.Epoch)
			gotProps = append(gotProps, append([]wire.PropMeta(nil), u.Props...))
			pmu.Unlock()
		}
	})
	code, body := httpDo(t, http.MethodPost, aggSrv.URL+"/properties", testPropDSL)
	if code != http.StatusCreated {
		t.Fatalf("fleet install: %d %s", code, body)
	}
	for _, m := range []*fleetMember{m1, m2} {
		props := m.sm.Properties()
		if len(props) != 1 || props[0] != "syn-gets-egress" {
			t.Fatalf("member properties after fleet install: %v", props)
		}
		if m.sm.Epoch() != 1 {
			t.Fatalf("member epoch after install = %d, want 1", m.sm.Epoch())
		}
	}
	// Convergence is visible at the aggregation tier.
	code, body = httpDo(t, http.MethodGet, aggSrv.URL+"/properties", "")
	if code != http.StatusOK {
		t.Fatalf("fleet list: %d %s", code, body)
	}
	var list struct {
		Converged bool `json:"converged"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil || !list.Converged {
		t.Fatalf("fleet property list not converged: %s", body)
	}

	code, body = httpDo(t, http.MethodDelete, aggSrv.URL+"/properties?name=syn-gets-egress", "")
	if code != http.StatusOK {
		t.Fatalf("fleet remove: %d %s", code, body)
	}
	for _, m := range []*fleetMember{m1, m2} {
		if got := m.sm.Properties(); len(got) != 0 {
			t.Fatalf("member properties after fleet remove: %v", got)
		}
		if m.sm.Epoch() != 2 {
			t.Fatalf("member epoch after remove = %d, want 2", m.sm.Epoch())
		}
	}

	// The switch saw one delivery per epoch, in fleet order, even though
	// both members pushed each epoch down both routes.
	waitFor(t, "switch-side property-set convergence", func() bool {
		pmu.Lock()
		defer pmu.Unlock()
		return len(gotEpochs) >= 2
	})
	time.Sleep(50 * time.Millisecond) // any duplicate delivery would land here
	pmu.Lock()
	defer pmu.Unlock()
	if len(gotEpochs) != 2 || gotEpochs[0] != 1 || gotEpochs[1] != 2 {
		t.Fatalf("switch applied epochs %v, want exactly [1 2]", gotEpochs)
	}
	if len(gotProps[0]) != 1 || gotProps[0][0].Name != "syn-gets-egress" || len(gotProps[1]) != 0 {
		t.Fatalf("switch property sets: %+v", gotProps)
	}
}

// TestAggregatorFleetEndpoints covers the merged observability surface:
// summed switchmon_fleet_* metrics, fleet health, per-member state, and
// a membership edit through the /fleet endpoint, one reconcile round that
// reaches a live router through the members' documents.
func TestAggregatorFleetEndpoints(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	addr1, addr2 := m1.col.Addr().String(), m2.col.Addr().String()
	agg, aggSrv := startAgg(t, m1, m2)

	r := newTestRouter(t, []Member{{Addr: addr1}, {Addr: addr2}}, nil)
	const n = 100
	for i := 1; i <= n; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	waitFor(t, "fleet ingested the events", func() bool {
		var total uint64
		for _, m := range []*fleetMember{m1, m2} {
			total += m.col.Stats().Events
		}
		return total == n
	})

	code, body := httpDo(t, http.MethodGet, aggSrv.URL+"/healthz", "")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("fleet healthz: %d %q", code, body)
	}

	code, body = httpDo(t, http.MethodGet, aggSrv.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("fleet metrics: %d", code)
	}
	// Both members contribute a dpid="7" series; the fleet view sums
	// them into one.
	wantSeries := fmt.Sprintf(`switchmon_fleet_collector_events_total{dpid="7"} %d`, n)
	if !strings.Contains(body, wantSeries) {
		t.Fatalf("fleet metrics missing summed series %q in:\n%s", wantSeries, body)
	}
	if !strings.Contains(body, "switchmon_fleet_members 2") ||
		!strings.Contains(body, "switchmon_fleet_members_reachable 2") {
		t.Fatalf("fleet metrics missing membership gauges:\n%s", body)
	}

	code, body = httpDo(t, http.MethodGet, aggSrv.URL+"/state", "")
	if code != http.StatusOK {
		t.Fatalf("fleet state: %d", code)
	}
	var stateDoc struct {
		Members []memberDoc `json:"members"`
	}
	if err := json.Unmarshal([]byte(body), &stateDoc); err != nil || len(stateDoc.Members) != 2 {
		t.Fatalf("fleet state doc: %v %s", err, body)
	}
	for _, d := range stateDoc.Members {
		if d.Error != "" || len(d.Doc) == 0 {
			t.Fatalf("fleet state member entry: %+v", d)
		}
	}

	// Membership edit through the aggregation tier: drop member 2. The
	// document is PUT to both members, each relays its membership to its
	// exporters, and the router re-routes behind the drain fence.
	code, doc := postMembers(t, aggSrv.URL, m1.aggMember())
	if code != http.StatusOK || doc.Epoch != 1 || !reflect.DeepEqual(doc, agg.fleet()) {
		t.Fatalf("fleet config post: %d %+v", code, doc)
	}
	holds(t, m2, 1) // the departing member holds the document too
	waitFor(t, "router applied the pushed membership", func() bool {
		ms := r.Members()
		return r.Epoch() == doc.Epoch && len(ms) == 1 && ms[0].Addr == addr1
	})
	for i := n + 1; i <= 2*n; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	waitFor(t, "post-change traffic lands on the survivor", func() bool {
		return m1.col.Stats().Events >= uint64(n) && m1.col.Stats().Events+m2.col.Stats().Events >= 2*n
	})
	if got := m2.col.Stats().Events; got > n {
		t.Fatalf("removed member kept receiving traffic: %d events", got)
	}
}

// postMembers is a membership edit through the aggregator's POST /fleet.
func postMembers(t *testing.T, url string, members ...AggMember) (int, PropertySetDoc) {
	t.Helper()
	req, _ := json.Marshal(struct {
		Members []AggMember `json:"members"`
	}{members})
	return propsDo(t, http.MethodPost, url+"/fleet", string(req))
}

// TestApplyMembershipWeightMillis: fractional member weights reach the
// wire as fixed-point millis (not truncated integers) when a member relays
// the document's membership, and invalid weights are refused up front,
// the fleet's epoch and members unmoved.
func TestApplyMembershipWeightMillis(t *testing.T) {
	var pushed []*wire.Config
	sm := core.NewShardedMonitor(1, core.Config{})
	t.Cleanup(sm.Close)
	set := NewPropertySet(sm, func(u *wire.Config) error {
		pushed = append(pushed, u)
		return nil
	})
	dead := "http://127.0.0.1:1"
	if _, err := set.Apply(PropertySetDoc{Epoch: 1, Members: []AggMember{
		{Addr: "a", Admin: dead, Weight: 2.7},
		{Addr: "b", Admin: dead, Weight: 0.25},
		{Addr: "c", Admin: dead},
	}}); err != nil {
		t.Fatal(err)
	}
	want := []wire.FleetMember{{Addr: "a", Weight: 2700}, {Addr: "b", Weight: 250}, {Addr: "c"}}
	if len(pushed) != 2 || pushed[1].Kind != wire.ConfigFleet || pushed[1].Epoch != 1 || !reflect.DeepEqual(pushed[1].Members, want) {
		t.Fatalf("pushed %+v, want the set, then the fleet %+v at epoch 1", pushed, want)
	}

	m := startFleetMember(t)
	a, _ := startAgg(t, m)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := a.ApplyMembership([]AggMember{{Addr: "a", Admin: dead, Weight: bad}}); err == nil {
			t.Fatalf("weight %v accepted, want rejection", bad)
		}
		if want := (PropertySetDoc{Members: []AggMember{m.aggMember()}}); !reflect.DeepEqual(a.fleet(), want) {
			t.Fatalf("refused weight %v moved the fleet to %+v", bad, a.props)
		}
	}
}

// TestMemberListOneRule: the aggregator's start, a membership edit, a
// member's apply and fleetagg's -members share ValidateMembers, NewRing's
// rule and what the wire carries, so no list is accepted that every
// router would refuse — and a refused edit leaves the fleet's epoch and
// members where they were.
func TestMemberListOneRule(t *testing.T) {
	m := startFleetMember(t)
	dead := "http://127.0.0.1:1"
	if _, err := NewAggregator(AggConfig{Members: []AggMember{{Addr: "a", Admin: dead, Weight: -3}}}); err == nil {
		t.Fatal("NewAggregator accepted weight -3")
	}
	a, srv := startAgg(t, m)
	tooMany := make([]AggMember, 1<<10+1)
	for i := range tooMany {
		tooMany[i] = AggMember{Addr: fmt.Sprintf("10.0.0.%d:%d", i%256, 9000+i), Admin: dead}
	}
	for _, bad := range [][]AggMember{
		{{Addr: "a", Admin: dead}, {Addr: "a", Admin: "http://127.0.0.1:2"}},
		{{Addr: "", Admin: dead}},
		{{Addr: "a"}},
		tooMany,
		nil,
	} {
		if code, doc := postMembers(t, srv.URL, bad...); code != http.StatusBadRequest {
			t.Fatalf("POST /fleet of %d members answered %d %+v, want 400", len(bad), code, doc)
		}
		if want := (PropertySetDoc{Members: []AggMember{m.aggMember()}}); !reflect.DeepEqual(a.fleet(), want) {
			t.Fatalf("a refused membership edit moved the fleet to %+v", a.props)
		}
		if len(bad) == 0 {
			continue // a document naming no members keeps the fleet's
		}
		body, _ := json.Marshal(PropertySetDoc{Epoch: 1, Props: []wire.PropMeta{}, Members: bad})
		if code, ans := httpDo(t, http.MethodPut, m.admin.URL+"/fleet/properties", string(body)); code != http.StatusBadRequest {
			t.Fatalf("member PUT naming %d bad members answered %d %s", len(bad), code, ans)
		}
		holds(t, m, 0)
	}
}

// A membership edit with no member answering is refused (503), as a
// property edit is, and the fleet's epoch and members stay where they
// were.
func TestMembershipEditWithNoMemberAnswering(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	a, srv := startAgg(t, m1)
	m1.stop()
	if code, doc := postMembers(t, srv.URL, m1.aggMember(), m2.aggMember()); code != http.StatusServiceUnavailable {
		t.Fatalf("membership edit with no member answering: %d %+v", code, doc)
	}
	if _, fleet := propsDo(t, http.MethodGet, srv.URL+"/fleet", ""); fleet.Epoch != 0 || !reflect.DeepEqual(fleet.Members, []AggMember{m1.aggMember()}) {
		t.Fatalf("GET /fleet after a refused edit: %+v", fleet)
	}
	if len(a.props.Members) != 0 {
		t.Fatalf("a refused edit left the document naming %+v", a.props.Members)
	}
	holds(t, m2, 0)
}

// An aggregator restart keeps membership edits working: a fresh aggregator
// built from the original -members adopts the shrunken fleet the members
// hold on its first sampler round, and its edit restoring both members
// outranks every collector and router, so the router routes on both.
func TestRestartedAggregatorKeepsMembership(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	r := newTestRouter(t, []Member{{Addr: m1.col.Addr().String()}, {Addr: m2.col.Addr().String()}}, nil)

	_, srvA := startAgg(t, m1, m2)
	if code, doc := postMembers(t, srvA.URL, m1.aggMember()); code != http.StatusOK || doc.Epoch != 1 {
		t.Fatalf("aggregator A shrinking the fleet: %d %+v", code, doc)
	}
	waitFor(t, "router on one member", func() bool { return r.Epoch() == 1 && len(r.Members()) == 1 })

	b, srvB := startAgg(t, m1, m2) // the restart: built from the original -members
	rounds(b, 1)
	if _, fleet := propsDo(t, http.MethodGet, srvB.URL+"/fleet", ""); fleet.Epoch != 1 || !reflect.DeepEqual(fleet.Members, []AggMember{m1.aggMember()}) {
		t.Fatalf("restarted aggregator's GET /fleet: %+v, want A's one-member fleet at epoch 1", fleet)
	}
	if code, doc := postMembers(t, srvB.URL, m1.aggMember(), m2.aggMember()); code != http.StatusOK || doc.Epoch != 2 {
		t.Fatalf("aggregator B restoring both members: %d %+v", code, doc)
	}
	waitFor(t, "router on both members", func() bool { return r.Epoch() == 2 && len(r.Members()) == 2 })
	for i := 1; i <= 100; i++ {
		r.Publish(ev(i))
	}
	r.Flush()
	waitFor(t, "traffic on both members", func() bool {
		return m1.col.Stats().Events+m2.col.Stats().Events == 100 && m2.col.Stats().Events > 0
	})
}

// TestFleetAnswersLikeAMember: the aggregator answers through the same
// handlers as a member — a degraded /healthz nests the member docs under
// "detail", and a fleet-wide install and remove answer the fleet's
// edited document, as a collector's own /properties does.
func TestFleetAnswersLikeAMember(t *testing.T) {
	m := startFleetMember(t)
	a, err := NewAggregator(AggConfig{Members: []AggMember{m.aggMember()}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(a.Mux())
	t.Cleanup(srv.Close)

	if code, doc := propsDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusCreated ||
		doc.Epoch != 1 || len(doc.Props) != 1 || doc.Props[0].Name != "syn-gets-egress" {
		t.Fatalf("fleet install: %d %+v", code, doc)
	}
	if code, doc := propsDo(t, http.MethodDelete, srv.URL+"/properties?name=syn-gets-egress", ""); code != http.StatusOK ||
		doc.Epoch != 2 || len(doc.Props) != 0 {
		t.Fatalf("fleet remove: %d %+v", code, doc)
	}
	if want := (PropertySetDoc{Epoch: 2, Props: []wire.PropMeta{}}); !reflect.DeepEqual(m.set.Doc(), want) {
		t.Fatalf("member holds %+v, want %+v", m.set.Doc(), want)
	}

	// A member that answers nothing degrades the fleet.
	if _, err := a.ApplyMembership([]AggMember{m.aggMember(), {Addr: "127.0.0.1:1", Admin: "http://127.0.0.1:1"}}); err != nil {
		t.Fatalf("ApplyMembership: %v", err)
	}
	code, body := httpDo(t, http.MethodGet, srv.URL+"/healthz", "")
	var rep struct {
		Status string      `json:"status"`
		Detail []memberDoc `json:"detail"`
	}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &rep) != nil || rep.Status != "degraded" {
		t.Fatalf("fleet /healthz with a dead member: %d %s", code, body)
	}
	if len(rep.Detail) != 2 || string(rep.Detail[0].Doc) != `"ok"` || rep.Detail[1].Error == "" {
		t.Fatalf("fleet /healthz detail: %s", body)
	}
}
