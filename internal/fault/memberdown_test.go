package fault

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/federation"
	"switchmon/internal/property"
	"switchmon/internal/wire"
)

// downMember is one fleet collector as cmd/collector wires it — engine,
// wire listener, property set, admin endpoints — on fixed addresses, so
// it can be stopped and started again as a fresh process would be: same
// addresses, nothing of its old state.
type downMember struct {
	addr, admin string
	sm          *core.ShardedMonitor
	col         *collector.Collector
	set         *federation.PropertySet
	srv         *http.Server
}

func startDownMember(t *testing.T, addr, adminAddr string, startup []string) *downMember {
	t.Helper()
	sm := core.NewShardedMonitor(1, core.Config{})
	col, err := collector.New(collector.Config{Addr: addr}, sm)
	if err != nil {
		t.Fatal(err)
	}
	set := federation.NewPropertySet(sm, col.Broadcast)
	for _, name := range startup {
		if err := set.Add(property.CatalogByName(property.DefaultParams(), name)); err != nil {
			t.Fatal(err)
		}
	}
	col.Serve()
	if err := set.Publish(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", adminAddr)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	federation.RegisterMemberEndpoints(mux, set)
	m := &downMember{addr: col.Addr().String(), admin: ln.Addr().String(), sm: sm, col: col, set: set, srv: &http.Server{Handler: mux}}
	go func() { _ = m.srv.Serve(ln) }()
	return m
}

func (m *downMember) stop() {
	_ = m.srv.Close()
	m.col.Close()
	m.sm.Close()
}

// matrixMemberDown stops one of two fleet members across three fleet
// installs and a remove, each answered 2xx with the next epoch, then
// starts it again as a fresh process carrying a seed-chosen startup set.
// Within two reconcile rounds the returned member must hold exactly the
// fleet's document — its engine running that set, its collector
// retaining it for exporters, an exporter connected to it applying it —
// and the aggregation tier must read converged with no member behind.
func matrixMemberDown(t *testing.T, seed int64) {
	catalog := []string{"firewall-basic", "firewall-until-close", "arp-proxy-reply",
		"arp-known-not-forwarded", "knock-intervening", "knock-valid-sequence"}
	pick := func(i int64) string { return catalog[int((seed*7+i*5)%int64(len(catalog)))] }
	installs := []string{pick(0), pick(1), pick(2)}
	removed := installs[seed%3]

	stay := startDownMember(t, "127.0.0.1:0", "127.0.0.1:0", nil)
	defer stay.stop()
	gone := startDownMember(t, "127.0.0.1:0", "127.0.0.1:0", nil)
	agg, err := federation.NewAggregator(federation.AggConfig{
		Members: []federation.AggMember{
			{Addr: stay.addr, Admin: "http://" + stay.admin},
			{Addr: gone.addr, Admin: "http://" + gone.admin},
		},
		Timeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet := agg.Mux()
	edit := func(method, target, body string) federation.PropertySetDoc {
		t.Helper()
		rec := httptest.NewRecorder()
		fleet.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		var doc federation.PropertySetDoc
		if rec.Code/100 != 2 || json.Unmarshal(rec.Body.Bytes(), &doc) != nil {
			t.Fatalf("%s %s with a member down: %d %s", method, target, rec.Code, rec.Body)
		}
		return doc
	}

	gone.stop()
	var doc federation.PropertySetDoc
	for i, name := range installs {
		p := property.CatalogByName(property.DefaultParams(), name)
		if doc = edit(http.MethodPost, "/properties", property.Format(p)); doc.Epoch != uint64(i+1) {
			t.Fatalf("install %d answered epoch %d", i+1, doc.Epoch)
		}
	}
	if doc = edit(http.MethodDelete, "/properties?name="+removed, ""); doc.Epoch != 4 || len(doc.Props) != 2 {
		t.Fatalf("remove answered %+v, want epoch 4 with two properties", doc)
	}
	if !sameDoc(stay.set.Doc(), doc) {
		t.Fatalf("the member that stayed holds %+v, want %+v", stay.set.Doc(), doc)
	}

	back := startDownMember(t, gone.addr, gone.admin, []string{pick(3)})
	defer back.stop()
	var pmu sync.Mutex
	var seen []*wire.Config
	xcfg := exporter.Config{Addr: back.addr, DPID: uint64(seed)}
	xcfg.OnConfig[wire.ConfigProperties] = func(u *wire.Config) {
		pmu.Lock()
		seen = append(seen, u)
		pmu.Unlock()
	}
	x, err := exporter.New(xcfg)
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	defer x.Close(0)

	for i := 0; i < 2; i++ {
		agg.Sample()
	}
	if !sameDoc(back.set.Doc(), doc) {
		t.Fatalf("the returned member holds %+v after two rounds, want %+v", back.set.Doc(), doc)
	}
	if live := back.sm.Properties(); len(live) != len(doc.Props) {
		t.Fatalf("the returned member's engine runs %v, want %+v", live, doc.Props)
	}
	if got := back.col.Stats().Configs[wire.ConfigProperties]; got.Epoch != doc.Epoch {
		t.Fatalf("the returned collector retains epoch %d, want %d", got.Epoch, doc.Epoch)
	}
	lastSeen := func() *wire.Config {
		pmu.Lock()
		defer pmu.Unlock()
		if len(seen) == 0 {
			return nil
		}
		return seen[len(seen)-1]
	}
	deadline := time.Now().Add(5 * time.Second)
	for last := lastSeen(); last == nil || last.Epoch != doc.Epoch; last = lastSeen() {
		if time.Now().After(deadline) {
			t.Fatalf("the returned member's exporter handed over %+v, want epoch %d", last, doc.Epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if last, want := lastSeen(), doc.Config(); last.Source != want.Source || len(last.Props) != len(want.Props) {
		t.Fatalf("the exporter applied %+v, want %+v", last, want)
	}

	rec := httptest.NewRecorder()
	fleet.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/properties", nil))
	var list struct {
		Converged bool `json:"converged"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &list) != nil || !list.Converged {
		t.Fatalf("fleet not converged after the member returned: %s", rec.Body)
	}
	rec = httptest.NewRecorder()
	fleet.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "switchmon_fleet_members_behind 0\n") {
		t.Fatalf("fleet /metrics does not read members_behind 0:\n%s", rec.Body)
	}
}

func sameDoc(a, b federation.PropertySetDoc) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}
