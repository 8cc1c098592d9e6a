package federation

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"switchmon/internal/core"
	"switchmon/internal/property"
	"switchmon/internal/sim"
	"switchmon/internal/wire"
)

// FuzzPropertySetDoc is the contract of a member's PUT /fleet/properties
// body: no body panics the handler; only a document whose source defines
// exactly the properties it names, and whose members, if any, pass
// ValidateMembers, answers 2xx, and a refused one changes nothing and
// pushes nothing; the document then applied — what the member reports,
// the engine's running set, the config pushed to exporters — is that
// document, sorted and formatted; a document naming members pushes
// exactly one fleet-kind config after it, which survives AppendConfig →
// Reader.Next unchanged; and a second PUT at an epoch not newer changes
// nothing.
func FuzzPropertySetDoc(f *testing.F) {
	doc := func(epoch uint64, src string, names ...string) string {
		d := PropertySetDoc{Epoch: epoch, Source: src}
		for _, n := range names {
			d.Props = append(d.Props, wire.PropMeta{Name: n, Tenant: "t"})
		}
		b, _ := json.Marshal(d)
		return string(b)
	}
	src, other := strings.TrimSpace(testPropDSL), strings.TrimSpace(otherPropDSL)
	f.Add(doc(1, src, "syn-gets-egress"))
	f.Add(doc(1<<64-1, testPropDSL, "syn-gets-egress"))
	f.Add(doc(2, other+"\n"+src, "syn-gets-reply", "syn-gets-egress"))
	f.Add(doc(3, src, "other"))
	f.Add(doc(4, src+"\n"+src, "syn-gets-egress", "syn-gets-egress"))
	f.Add(doc(5, src+"\n"+src, "syn-gets-egress"))
	f.Add(doc(6, `property "broken" {`, "broken"))
	f.Add(doc(7, `property "wide" { on arrival "a" { match tcp.syn == 1
bind $A = ip.src bind $B = ip.src bind $C = ip.src bind $D = ip.src bind $E = ip.src bind $F = ip.src
bind $G = ip.src bind $H = ip.src bind $I = ip.src bind $J = ip.src bind $K = ip.src } }`, "wide"))
	f.Add(doc(0, ""))
	f.Add(`{"epoch":1,"props":[]} trailing`)
	f.Add(`{"epoch":-1}`)
	f.Add(`null`)
	f.Add(`not json`)
	f.Add(`{"epoch":1,"props":[],"members":[{"addr":"127.0.0.1:9190","admin":"http://127.0.0.1:9191","weight":2.5},{"addr":"b","admin":"http://b","weight":0.0004},{"addr":"c","admin":"http://c"}]}`)
	f.Add(`{"epoch":2,"props":[],"members":[]}`)
	f.Add(`{"epoch":3,"props":[],"members":[{"addr":"a","admin":"http://a"},{"addr":"a","admin":"http://b"}]}`)
	f.Add(`{"epoch":4,"props":[],"members":[{"addr":"a","weight":1}]}`)
	f.Add(`{"epoch":5,"props":[],"members":[{"addr":"a","admin":"http://a","weight":-1}]}`)

	f.Fuzz(func(t *testing.T, body string) {
		mon := core.NewMonitor(sim.NewScheduler(), core.Config{})
		var pushed []*wire.Config
		set := newSet(t, mon, func(u *wire.Config) error {
			pushed = append(pushed, u)
			return nil
		})
		mux := http.NewServeMux()
		RegisterMemberEndpoints(mux, set)
		put := func(body string) int {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/fleet/properties", strings.NewReader(body)))
			return rec.Code
		}

		code := put(body)
		var d PropertySetDoc
		props, err := []*property.Property(nil), json.Unmarshal([]byte(body), &d)
		if err == nil {
			props, err = d.parse()
		}
		if code/100 != 2 {
			if len(pushed) != 0 || len(mon.Properties()) != 0 {
				t.Fatalf("a refused PUT (%d) changed the engine to %v, pushing %+v", code, mon.Properties(), pushed)
			}
			return
		}
		if err != nil {
			t.Fatalf("PUT answered %d for a body that is no document (%v): %q", code, err, body)
		}
		want := setDoc(d.Epoch, props, d.Members)
		applied := set.Doc()
		if !reflect.DeepEqual(applied, want) {
			t.Fatalf("PUT %q applied %+v, want %+v", body, applied, want)
		}
		running := mon.Properties()
		sort.Strings(running)
		if len(running) != len(want.Props) {
			t.Fatalf("engine runs %v, document holds %+v", running, want.Props)
		}
		for i, p := range want.Props {
			if running[i] != p.Name {
				t.Fatalf("engine runs %v, document holds %+v", running, want.Props)
			}
		}
		if len(pushed) == 0 || !reflect.DeepEqual(pushed[0], want.Config()) {
			t.Fatalf("pushed %+v, want %+v first", pushed, want.Config())
		}
		if fleet := pushed[1:]; len(want.Members) == 0 && len(fleet) != 0 || len(want.Members) > 0 && len(fleet) != 1 {
			t.Fatalf("a document naming %d members pushed %d fleet configs", len(want.Members), len(fleet))
		}
		for _, cfg := range pushed[1:] {
			if cfg.Kind != wire.ConfigFleet || cfg.Epoch != d.Epoch || len(cfg.Members) != len(want.Members) {
				t.Fatalf("pushed %+v for members %+v", cfg, want.Members)
			}
			enc, err := wire.AppendConfig(nil, cfg)
			if err != nil {
				t.Fatalf("the fleet config does not encode: %v", err)
			}
			fr, err := wire.NewPooledReader(bytes.NewReader(enc)).Next()
			if got, ok := fr.(*wire.Config); err != nil || !ok || got.Kind != cfg.Kind || got.Epoch != cfg.Epoch ||
				len(got.Props) != 0 || got.Source != "" || !reflect.DeepEqual(got.Members, cfg.Members) {
				t.Fatalf("the fleet config changed on the wire: sent %+v, got %+v, %v", cfg, fr, err)
			}
		}
		n := len(pushed)

		if code := put(doc(d.Epoch, "")); code != http.StatusOK {
			t.Fatalf("a stale PUT answered %d", code)
		}
		if !reflect.DeepEqual(set.Doc(), applied) || len(pushed) != n {
			t.Fatalf("a stale PUT changed the set to %+v", set.Doc())
		}
	})
}
