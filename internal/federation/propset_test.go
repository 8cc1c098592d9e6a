package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"switchmon/internal/core"
	"switchmon/internal/dsl"
	"switchmon/internal/obs"
	"switchmon/internal/obs/export"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/wire"
)

const otherPropDSL = `
property "syn-gets-reply" {
  on arrival "syn" {
    match tcp.syn == 1
    bind $SW = switch.id
  }

  on egress "out" within 2s {
    match switch.id == $SW
  }
}
`

// holds fails the test unless m's applied document is at epoch and
// names exactly the given properties, and its engine runs exactly them.
func holds(t *testing.T, m *fleetMember, epoch uint64, names ...string) {
	t.Helper()
	doc := m.set.Doc()
	got := make([]string, len(doc.Props))
	for i, p := range doc.Props {
		got[i] = p.Name
	}
	live := m.sm.Properties()
	if doc.Epoch != epoch || !equalSet(got, names) || !equalSet(live, names) {
		t.Fatalf("member %s holds %v at epoch %d (engine runs %v), want %v at epoch %d",
			m.aggMember().Addr, got, doc.Epoch, live, names, epoch)
	}
}

func equalSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, s := range a {
		seen[s]++
	}
	for _, s := range b {
		if seen[s]--; seen[s] < 0 {
			return false
		}
	}
	return true
}

// rounds runs n ticks of the fleet-history sampler, each one reconcile
// round.
func rounds(a *Aggregator, n int) {
	for i := 0; i < n; i++ {
		a.Sample()
	}
}

// fleetSeries reads one series of the aggregator's own fleet families.
func fleetSeries(t *testing.T, snap obs.Snapshot, name string, labels ...obs.Label) int64 {
	t.Helper()
	for _, f := range snap.Families {
		for _, s := range f.Series {
			if f.Name == name && len(s.Labels) == len(labels) && (len(labels) == 0 || reflect.DeepEqual(s.Labels, labels)) {
				return s.Value
			}
		}
	}
	t.Fatalf("no series %s%v", name, labels)
	return 0
}

// A member that is down across a fleet install receives the set within
// two reconcile rounds of coming back, and the fleet then reads
// converged with no member behind.
func TestMemberStoppedAcrossInstallConverges(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	a, srv := startAgg(t, m1, m2)
	m2.stop()
	if code, doc := propsDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusCreated || doc.Epoch != 1 {
		t.Fatalf("fleet install with a member down: %d %+v", code, doc)
	}
	holds(t, m1, 1, "syn-gets-egress")
	holds(t, m2, 0)
	if got := fleetSeries(t, a.FleetSnapshot(), "switchmon_fleet_members_behind"); got != 1 {
		t.Fatalf("members_behind with one member down = %d, want 1", got)
	}

	m2.restart(t)
	httpDo(t, http.MethodGet, srv.URL+"/metrics", "")
	holds(t, m2, 0) // a scrape does not replicate; the sampler's tick does
	rounds(a, 2)
	holds(t, m2, 1, "syn-gets-egress")
	if got := fleetSeries(t, a.FleetSnapshot(), "switchmon_fleet_members_behind"); got != 0 {
		t.Fatalf("members_behind after convergence = %d, want 0", got)
	}
	_, body := httpDo(t, http.MethodGet, srv.URL+"/properties", "")
	var list struct {
		Document  PropertySetDoc `json:"document"`
		Converged bool           `json:"converged"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil || !list.Converged || list.Document.Epoch != 1 {
		t.Fatalf("fleet property list after the member returned: %s", body)
	}
}

// A member added through /fleet after an install receives the set in the
// membership edit's own reconcile round, and later rounds keep it.
func TestJoinerReceivesPropertySet(t *testing.T) {
	m1 := startFleetMember(t)
	a, srv := startAgg(t, m1)
	if code, _ := propsDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusCreated {
		t.Fatalf("fleet install: %d", code)
	}
	m2 := startFleetMember(t)
	if code, doc := postMembers(t, srv.URL, m1.aggMember(), m2.aggMember()); code != http.StatusOK || doc.Epoch != 2 || len(doc.Props) != 1 {
		t.Fatalf("fleet config post: %d %+v", code, doc)
	}
	holds(t, m1, 2, "syn-gets-egress")
	holds(t, m2, 2, "syn-gets-egress")
	rounds(a, 2)
	holds(t, m2, 2, "syn-gets-egress")
}

// A fleet remove while a member is down edits the document and answers
// 200 with the new epoch; the member catches up when it returns. A name
// the document does not hold still answers 404.
func TestFleetRemoveWithMemberDown(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	a, srv := startAgg(t, m1, m2)
	if code, _ := propsDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusCreated {
		t.Fatalf("fleet install: %d", code)
	}
	m2.stop()
	if code, doc := propsDo(t, http.MethodDelete, srv.URL+"/properties?name=syn-gets-egress", ""); code != http.StatusOK || doc.Epoch != 2 || len(doc.Props) != 0 {
		t.Fatalf("fleet remove with a member down: %d %+v", code, doc)
	}
	if code, body := httpDo(t, http.MethodDelete, srv.URL+"/properties?name=syn-gets-egress", ""); code != http.StatusNotFound {
		t.Fatalf("fleet remove of an unknown name: %d %s", code, body)
	}
	holds(t, m1, 2)
	m2.restart(t)
	rounds(a, 2)
	holds(t, m2, 2)
}

// A restarted aggregator adopts the newest document any member holds, so
// its next edit outranks every member and is checked against that
// document.
func TestRestartedAggregatorOutranksMembers(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	_, srv := startAgg(t, m1, m2)
	for _, src := range []string{testPropDSL, otherPropDSL} {
		if code, _ := propsDo(t, http.MethodPost, srv.URL+"/properties", src); code != http.StatusCreated {
			t.Fatalf("fleet install: %d", code)
		}
	}
	holds(t, m1, 2, "syn-gets-egress", "syn-gets-reply")

	_, srv2 := startAgg(t, m1, m2) // the restart: nothing carried over
	if code, doc := propsDo(t, http.MethodDelete, srv2.URL+"/properties?name=syn-gets-reply", ""); code != http.StatusOK || doc.Epoch != 3 {
		t.Fatalf("restarted aggregator's first edit: %d %+v, want epoch 3", code, doc)
	}
	holds(t, m1, 3, "syn-gets-egress")
	holds(t, m2, 3, "syn-gets-egress")
}

// A member's startup set stands, however many rounds run, until the
// first fleet edit, which builds on it: the members' common startup set
// survives the first install.
func TestStartupSetStandsUntilFirstFleetEdit(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	for _, m := range []*fleetMember{m1, m2} {
		if err := m.set.Add(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
			t.Fatal(err)
		}
	}
	a, srv := startAgg(t, m1, m2)
	rounds(a, 3)
	holds(t, m1, 0, "firewall-basic")
	holds(t, m2, 0, "firewall-basic")
	if got := fleetSeries(t, a.FleetSnapshot(), "switchmon_fleet_admin_errors_total", obs.L("op", "properties")); got != 0 {
		t.Fatalf("%d property-set PUTs failed with no fleet document", got)
	}

	if code, doc := propsDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusCreated || doc.Epoch != 1 || len(doc.Props) != 2 {
		t.Fatalf("fleet install over the startup set: %d %+v", code, doc)
	}
	holds(t, m1, 1, "firewall-basic", "syn-gets-egress")
	holds(t, m2, 1, "firewall-basic", "syn-gets-egress")
}

// While the members hold different startup sets, the first fleet edit is
// refused (409) and nothing changes; with no member answering it is
// refused (503). One member's own edit makes its set the fleet's, and
// the next fleet edit builds on it.
func TestDifferentStartupSetsRefuseFirstEdit(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	if err := m1.set.Add(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	_, srv := startAgg(t, m1, m2)
	if code, body := httpDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusConflict {
		t.Fatalf("install over different startup sets: %d %s", code, body)
	}
	if code, body := httpDo(t, http.MethodDelete, srv.URL+"/properties?name=firewall-basic", ""); code != http.StatusConflict {
		t.Fatalf("remove over different startup sets: %d %s", code, body)
	}
	holds(t, m1, 0, "firewall-basic")
	holds(t, m2, 0)

	m1.stop()
	m2.stop()
	if code, body := httpDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusServiceUnavailable {
		t.Fatalf("install with no member answering: %d %s", code, body)
	}
	m1.restart(t)
	m2.restart(t)

	if _, err := m2.set.Edits().Install(otherPropDSL, ""); err != nil {
		t.Fatal(err)
	}
	if code, doc := propsDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusCreated || doc.Epoch != 2 {
		t.Fatalf("install after a member's own edit: %d %+v", code, doc)
	}
	holds(t, m1, 2, "syn-gets-reply", "syn-gets-egress")
	holds(t, m2, 2, "syn-gets-reply", "syn-gets-egress")
}

// A property no engine takes — more state words than an instance row
// holds — is refused by the fleet (400) before its document changes, so
// the fleet does not stall on it: the next install reaches every member.
// A member refuses such a document too, with its engine untouched.
func TestFleetRefusesWhatNoEngineTakes(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	_, srv := startAgg(t, m1, m2)
	var wide strings.Builder
	wide.WriteString("property \"wide\" {\n  on arrival \"a\" {\n    match tcp.syn == 1\n")
	for i := 0; i < 11; i++ {
		fmt.Fprintf(&wide, "    bind $V%d = ip.src\n", i)
	}
	wide.WriteString("  }\n}\n")
	if _, err := dsl.ParseAll(wide.String()); err != nil {
		t.Fatalf("the wide property does not parse: %v", err)
	}
	if code, body := httpDo(t, http.MethodPost, srv.URL+"/properties", wide.String()); code != http.StatusBadRequest {
		t.Fatalf("fleet install of an 11-variable property: %d %s", code, body)
	}
	if code, doc := propsDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusCreated || doc.Epoch != 1 {
		t.Fatalf("fleet install after a refused one: %d %+v", code, doc)
	}
	holds(t, m1, 1, "syn-gets-egress")
	holds(t, m2, 1, "syn-gets-egress")

	props, err := dsl.ParseAll(testPropDSL + wide.String())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(setDoc(2, props, nil))
	if code, ans := httpDo(t, http.MethodPut, m1.admin.URL+"/fleet/properties", string(body)); code != http.StatusBadRequest {
		t.Fatalf("member PUT of a document holding the wide property: %d %s", code, ans)
	}
	holds(t, m1, 1, "syn-gets-egress")
}

// Two members that disagree at one epoch — each edited on its own,
// without the aggregation tier — are re-issued one document at the
// epoch above, and converge on it.
func TestSplitEpochReissued(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	a, srv := startAgg(t, m1, m2)
	if code, _ := propsDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusCreated {
		t.Fatalf("fleet install: %d", code)
	}
	if _, err := m1.set.Edits().Remove("syn-gets-egress"); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.set.Edits().Install(otherPropDSL, ""); err != nil {
		t.Fatal(err)
	}
	holds(t, m1, 2)
	holds(t, m2, 2, "syn-gets-egress", "syn-gets-reply")

	rounds(a, 2)
	holds(t, m1, 3)
	holds(t, m2, 3)
}

func TestSettle(t *testing.T) {
	x := PropertySetDoc{Props: []wire.PropMeta{{Name: "x"}}, Source: "x"}
	y := PropertySetDoc{Props: []wire.PropMeta{{Name: "x"}}, Source: "y"}
	at := func(d PropertySetDoc, epoch uint64) *PropertySetDoc { d.Epoch = epoch; return &d }
	for _, c := range []struct {
		name string
		own  PropertySetDoc
		held []*PropertySetDoc
		want PropertySetDoc
		code int // of the refusal, 0 for none
	}{
		{"nothing known", PropertySetDoc{}, []*PropertySetDoc{nil, nil}, PropertySetDoc{}, http.StatusServiceUnavailable},
		{"startup sets differ", PropertySetDoc{}, []*PropertySetDoc{at(x, 0), nil, at(y, 0)}, *at(x, 0), http.StatusConflict},
		{"a common startup set", PropertySetDoc{}, []*PropertySetDoc{nil, at(x, 0), at(x, 0)}, *at(x, 0), 0},
		{"a member is past startup", PropertySetDoc{}, []*PropertySetDoc{at(x, 0), at(y, 1)}, *at(y, 1), 0},
		{"own is newest", *at(x, 3), []*PropertySetDoc{at(y, 2), nil}, *at(x, 3), 0},
		{"a member is newer", *at(x, 3), []*PropertySetDoc{at(y, 5), at(x, 3)}, *at(y, 5), 0},
		{"agreement", *at(x, 3), []*PropertySetDoc{at(x, 3), at(x, 3)}, *at(x, 3), 0},
		{"a member split from own", *at(x, 3), []*PropertySetDoc{at(y, 3)}, *at(x, 4), 0},
		{"members split above own", *at(x, 1), []*PropertySetDoc{at(y, 4), at(x, 4)}, *at(y, 5), 0},
		{"a split below the newest", *at(x, 1), []*PropertySetDoc{at(y, 4), at(x, 4), at(x, 6)}, *at(x, 6), 0},
	} {
		got, err := settle(c.own, c.held)
		code := 0
		if se := (*export.StatusError)(nil); errors.As(err, &se) {
			code = se.Code
		} else if err != nil {
			code = -1
		}
		if code != c.code || c.code == 0 && !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: settle = %+v, %v; want %+v, code %d", c.name, got, err, c.want, c.code)
		}
	}
}

// Every failed admin call is counted under its op — a scrape and a
// document PUT, membership edits' included; there is no other — and the
// member left without the document shows in
// switchmon_fleet_members_behind.
func TestAdminErrorsCountEveryCall(t *testing.T) {
	live, refusing := startFleetMember(t), startFleetMember(t)
	refusing.sm.Close() // answers GET, fails every PUT that installs
	dead := AggMember{Addr: "127.0.0.1:1", Admin: "http://127.0.0.1:1"}
	a, srv := startAgg(t, live)

	if code, doc := postMembers(t, srv.URL, live.aggMember(), refusing.aggMember(), dead); code != http.StatusOK {
		t.Fatalf("fleet config post: %d %+v", code, doc)
	}
	if code, _ := propsDo(t, http.MethodPost, srv.URL+"/properties", testPropDSL); code != http.StatusCreated {
		t.Fatalf("fleet install: %d", code)
	}
	holds(t, live, 2, "syn-gets-egress")

	snap := a.FleetSnapshot()
	for _, op := range []string{"scrape", "properties"} {
		if got := fleetSeries(t, snap, "switchmon_fleet_admin_errors_total", obs.L("op", op)); got == 0 {
			t.Errorf("admin_errors_total{op=%q} = 0 after a failing %s call", op, op)
		}
	}
	if got := fleetSeries(t, snap, "switchmon_fleet_members_behind"); got != 2 {
		t.Errorf("members_behind = %d, want 2 (the dead member and the refusing one)", got)
	}
	rec := httptest.NewRecorder()
	a.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "switchmon_fleet_members_behind 2") {
		t.Errorf("fleet /metrics lacks switchmon_fleet_members_behind 2")
	}
	if strings.Contains(rec.Body.String(), `op="fleet"`) {
		t.Errorf(`fleet /metrics still counts op="fleet", an admin call no longer made`)
	}
}

// A document's edits refuse only what the document itself refuses, and
// what it renders is the set a collector pushes: every name, sorted, with
// its tenant, and dsl.FormatAll of their definitions.
func TestPropertySetDocEdits(t *testing.T) {
	d, err := PropertySetDoc{}.Install(otherPropDSL+testPropDSL, "t1")
	if err != nil {
		t.Fatal(err)
	}
	props, err := dsl.ParseAll(otherPropDSL + testPropDSL)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Config()
	if u.Kind != wire.ConfigProperties || u.Epoch != 1 || len(u.Props) != 2 || u.Props[0].Name != "syn-gets-egress" ||
		u.Props[1].Tenant != "t1" || u.Source != dsl.FormatAll([]*property.Property{props[1], props[0]}) {
		t.Fatalf("rendered %+v", u)
	}
	for _, bad := range []func() (PropertySetDoc, error){
		func() (PropertySetDoc, error) { return d.Install(testPropDSL, "") },
		func() (PropertySetDoc, error) { return d.Install(`property "broken" {`, "") },
		func() (PropertySetDoc, error) { return d.Install("# nothing\n", "") },
		func() (PropertySetDoc, error) { return d.Remove("no-such-property") },
	} {
		if got, err := bad(); err == nil || !reflect.DeepEqual(got, d) {
			t.Fatalf("a refused edit answered %+v, %v", got, err)
		}
	}
	if d, err = d.Remove("syn-gets-egress"); err != nil || d.Epoch != 2 || len(d.Props) != 1 || d.Props[0].Name != "syn-gets-reply" {
		t.Fatalf("remove: %+v, %v", d, err)
	}
}

// Fleet edits racing each other and the sampler's reconcile rounds each
// get their own epoch, and the fleet converges on the document holding
// them all.
func TestConcurrentFleetEdits(t *testing.T) {
	m1, m2 := startFleetMember(t), startFleetMember(t)
	a, srv := startAgg(t, m1, m2)
	names := []string{"firewall-basic", "firewall-until-close", "arp-proxy-reply", "knock-intervening"}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
				a.Sample()
			}
		}
	}()
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			src := dsl.Format(property.CatalogByName(property.DefaultParams(), name))
			if code, body := httpDo(t, http.MethodPost, srv.URL+"/properties", src); code != http.StatusCreated {
				t.Errorf("install %s: %d %s", name, code, body)
			}
		}(name)
	}
	wg.Wait()
	close(stop)
	<-sampled
	rounds(a, 2)
	holds(t, m1, uint64(len(names)), names...)
	holds(t, m2, uint64(len(names)), names...)
}

// failingEngine refuses to install one property by name.
type failingEngine struct {
	core.Engine
	fail string
}

func (e failingEngine) ReplaceProperty(p *property.Property) error {
	if p.Name == e.fail {
		return errors.New("refused")
	}
	return e.Engine.ReplaceProperty(p)
}

// An apply the engine refuses part-way still records and pushes the set
// then running, at the document's epoch, so the exporters follow the
// engine; the aggregation tier, finding another set at its epoch,
// re-issues the document one epoch above (settle).
func TestPartialApplyStillPushes(t *testing.T) {
	var pushed []*wire.Config
	set := NewPropertySet(failingEngine{core.NewMonitor(sim.NewScheduler(), core.Config{}), "syn-gets-reply"},
		func(u *wire.Config) error { pushed = append(pushed, u); return nil })
	want, err := PropertySetDoc{}.Install(testPropDSL+otherPropDSL, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Apply(want); err == nil {
		t.Fatal("an apply the engine refused part-way answered no error")
	}
	got := set.Doc()
	if got.Epoch != 1 || len(got.Props) != 1 || got.Props[0].Name != "syn-gets-egress" {
		t.Fatalf("after a partial apply the set holds %+v", got)
	}
	if len(pushed) != 1 || !reflect.DeepEqual(pushed[0], got.Config()) {
		t.Fatalf("pushed %+v, want the running set %+v", pushed, got.Config())
	}
	if next, err := settle(want, []*PropertySetDoc{&got}); err != nil || next.Epoch != 2 || !next.same(want) {
		t.Fatalf("the fleet re-issues %+v, %v; want its document at epoch 2", next, err)
	}
}
