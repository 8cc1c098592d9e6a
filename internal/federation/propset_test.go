package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/obs/export"
	"switchmon/internal/packet"
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
	if _, err := property.ParseAll(wide.String()); err != nil {
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

	props, err := property.ParseAll(testPropDSL + wide.String())
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
// its tenant, and property.FormatAll of their definitions.
func TestPropertySetDocEdits(t *testing.T) {
	d, err := PropertySetDoc{}.Install(otherPropDSL+testPropDSL, "t1")
	if err != nil {
		t.Fatal(err)
	}
	props, err := property.ParseAll(otherPropDSL + testPropDSL)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Config()
	if u.Kind != wire.ConfigProperties || u.Epoch != 1 || len(u.Props) != 2 || u.Props[0].Name != "syn-gets-egress" ||
		u.Props[1].Tenant != "t1" || u.Source != property.FormatAll([]*property.Property{props[1], props[0]}) {
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

// A name holding a tab survives the document's round trip through its
// own source: the edits after installing it, and removing it, still
// parse the document.
func TestPropertySetDocEscapedName(t *testing.T) {
	tabbed := "property \"a\tb\" {\n  on arrival \"x\" {\n    match tcp.syn == 1\n  }\n}\n"
	d, err := PropertySetDoc{}.Install(tabbed, "")
	if err != nil || d.Epoch != 1 {
		t.Fatalf("install: %+v, %v", d, err)
	}
	if d, err = d.Install(testPropDSL, ""); err != nil || d.Epoch != 2 {
		t.Fatalf("second install: %+v, %v", d, err)
	}
	for _, name := range []string{"a\tb", "syn-gets-egress"} {
		if d, err = d.Remove(name); err != nil {
			t.Fatalf("remove %q: %v", name, err)
		}
	}
	if d.Epoch != 4 || len(d.Props) != 0 {
		t.Fatalf("after removing both: %+v", d)
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
			src := property.Format(property.CatalogByName(property.DefaultParams(), name))
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

// An apply the engine refuses — it has closed — changes nothing: the
// set, the engine's running properties and its ledger stay as they were,
// and nothing is pushed, so the exporters keep following the engine. The
// aggregation tier, finding the member behind its document, re-issues
// that document (settle).
func TestRefusedApplyChangesNothing(t *testing.T) {
	var pushed []*wire.Config
	sm := core.NewShardedMonitor(2, core.Config{})
	set := NewPropertySet(sm, func(u *wire.Config) error { pushed = append(pushed, u); return nil })
	if _, err := set.Edits().Install(testPropDSL, ""); err != nil {
		t.Fatal(err)
	}
	before, running, installs := set.Doc(), sm.Properties(), sm.Ledger().InstallSnapshot()
	pushed = nil
	sm.Close()
	want, err := before.Install(otherPropDSL, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Apply(want); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("a closed engine's apply answered %v, want ErrClosed", err)
	}
	got := set.Doc()
	if !reflect.DeepEqual(got, before) || !reflect.DeepEqual(sm.Properties(), running) ||
		!reflect.DeepEqual(sm.Ledger().InstallSnapshot(), installs) || len(pushed) != 0 {
		t.Fatalf("a refused apply changed the set to %+v (engine runs %v, installs %+v), pushing %+v",
			got, sm.Properties(), sm.Ledger().InstallSnapshot(), pushed)
	}
	if next, err := settle(want, []*PropertySetDoc{&got}); err != nil || !reflect.DeepEqual(next, want) {
		t.Fatalf("the fleet re-issues %+v, %v; want its document %+v", next, err, want)
	}
}

// everyEvent is the source of a property named name that fires on every
// arrival at port 1.
func everyEvent(name string) string {
	return fmt.Sprintf("property %q {\n  on arrival \"in\" {\n    match in_port == 1\n  }\n}\n", name)
}

// manyProps is the source of n such properties, p00 onwards.
func manyProps(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(everyEvent(fmt.Sprintf("p%02d", i)))
	}
	return b.String()
}

// Every event an inline engine is fed while documents are applied to it
// from another goroutine is judged by one document's set, the old or the
// new, never by a mix: its four properties fire on every event, the two
// documents' sets differ in two properties each, and each event's
// verdicts must name exactly one of the two sets. A set changed one
// property at a time lets the feeder judge an event between two steps.
func TestApplyNeverMixesSets(t *testing.T) {
	sets := [2][]string{{"a1", "a2"}, {"b1", "b2"}}
	var docs [2]PropertySetDoc
	for i, names := range sets {
		props, err := property.ParseAll(everyEvent(names[0]) + everyEvent(names[1]))
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = setDoc(0, props, nil)
	}
	var mu sync.Mutex
	judged := map[int64][]string{}
	mon := core.NewMonitor(sim.NewScheduler(), core.Config{OnViolation: func(v *core.Violation) {
		mu.Lock()
		judged[v.Time.UnixNano()] = append(judged[v.Time.UnixNano()], v.Property)
		mu.Unlock()
	}})
	set := NewPropertySet(mon, nil)
	apply := func(epoch uint64) {
		d := docs[epoch%2]
		d.Epoch = epoch
		if _, err := set.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	apply(2)

	const events = 20000
	at := func(i int) time.Time { return sim.Epoch.Add(time.Duration(i) * time.Microsecond) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		pk := packet.NewTCP(packet.MustMAC("02:00:00:00:00:0a"), packet.MustMAC("02:00:00:00:00:0b"),
			packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2"), 1000, 80, packet.FlagSYN, nil)
		for i := 0; i < events; i++ {
			mon.Feed(core.Event{Kind: core.KindArrival, Time: at(i), PacketID: core.PacketID(i + 1), InPort: 1, Packet: pk})
		}
	}()
	epoch := uint64(3)
	for running := true; running; epoch++ {
		select {
		case <-done:
			running = false
		default:
			apply(epoch)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	mixed, first := 0, -1
	for i := 0; i < events; i++ {
		got := judged[at(i).UnixNano()]
		sort.Strings(got)
		if !slices.Equal(got, sets[0]) && !slices.Equal(got, sets[1]) {
			if mixed++; first < 0 {
				first = i
			}
		}
	}
	if mixed > 0 {
		t.Fatalf("%d of %d events, fed across %d applies, were judged by neither set: event %d by %v",
			mixed, events, epoch-3, first, judged[at(first).UnixNano()])
	}
}

// A live /properties edit is capped by the engine's own limit: switchmon's
// inline engine takes a 65th property (2xx), while a collector's sharded
// engine, and the fleet, which runs no engine and checks at a collector's
// capacity (core.CheckSet), answer 400 for it.
func TestLivePropertyCapIsTheEngines(t *testing.T) {
	post := func(h http.Handler, src string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/properties", strings.NewReader(src)))
		return rec.Code
	}
	for _, c := range []struct {
		name  string
		eng   core.Engine
		code  int
		holds int
	}{
		{"switchmon", core.NewMonitor(sim.NewScheduler(), core.Config{}), http.StatusCreated, 65},
		{"collector", core.NewShardedMonitor(2, core.Config{}), http.StatusBadRequest, 64},
	} {
		h := export.PropertiesHandler(NewPropertySet(c.eng, nil).Edits())
		if code := post(h, manyProps(64)); code != http.StatusCreated {
			t.Fatalf("%s: installing 64 properties answered %d", c.name, code)
		}
		if code := post(h, everyEvent("p64")); code != c.code || len(c.eng.Properties()) != c.holds {
			t.Fatalf("%s: a 65th property answered %d, engine runs %d; want %d and %d",
				c.name, code, len(c.eng.Properties()), c.code, c.holds)
		}
	}

	m := startFleetMember(t)
	_, srv := startAgg(t, m)
	if code, doc := propsDo(t, http.MethodPost, srv.URL+"/properties", manyProps(64)); code != http.StatusCreated || len(doc.Props) != 64 {
		t.Fatalf("fleet install of 64 properties: %d %+v", code, doc)
	}
	if code, body := httpDo(t, http.MethodPost, srv.URL+"/properties", everyEvent("p64")); code != http.StatusBadRequest {
		t.Fatalf("fleet install of a 65th property: %d %s", code, body)
	}
	if n := len(m.sm.Properties()); n != 64 {
		t.Fatalf("the member runs %d properties after the fleet refused the 65th", n)
	}
}

// The ledger records an install at the epoch GET /properties answers, the
// document's, on switchmon's inline engine and on a collector's sharded
// one: before any traffic, and live for a document adding two at once.
func TestLedgerInstallEpochIsTheDocuments(t *testing.T) {
	m := startFleetMember(t)
	mon := core.NewMonitor(sim.NewScheduler(), core.Config{})
	inline := httptest.NewServer(export.PropertiesHandler(NewPropertySet(mon, nil).Edits()))
	t.Cleanup(inline.Close)
	for _, c := range []struct {
		name string
		eng  core.Engine
		url  string
	}{
		{"switchmon", mon, inline.URL},
		{"collector", m.sm, m.admin.URL + "/properties"},
	} {
		for i, src := range []string{testPropDSL, otherPropDSL + everyEvent("every")} {
			if i == 1 {
				c.eng.Feed(core.Event{Kind: core.KindArrival, Time: sim.Epoch, PacketID: 1, InPort: 1})
				c.eng.AdvanceTo(sim.Epoch)
			}
			if code, _ := httpDo(t, http.MethodPost, c.url, src); code != http.StatusCreated {
				t.Fatalf("%s: install %d answered %d", c.name, i, code)
			}
			code, doc := propsDo(t, http.MethodGet, c.url, "")
			if code != http.StatusOK || doc.Epoch != uint64(i+1) || c.eng.Epoch() != doc.Epoch {
				t.Fatalf("%s: GET /properties answered %d at epoch %d, engine at %d; want epoch %d",
					c.name, code, doc.Epoch, c.eng.Epoch(), i+1)
			}
			props, err := property.ParseAll(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range props {
				if epoch, ok := c.eng.Ledger().InstallEpoch(p.Name); !ok || epoch != doc.Epoch {
					t.Fatalf("%s: the ledger installed %s at epoch %d (%v), GET /properties answers %d",
						c.name, p.Name, epoch, ok, doc.Epoch)
				}
			}
		}
	}
}
