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

// FuzzFleetBody is the grammar contract of a member's POST /fleet body:
// no body panics the handler, the answer is 200 only for a body naming
// at least one member, and what the member relays is a fleet-kind
// config that survives AppendConfig → Reader.Next unchanged.
func FuzzFleetBody(f *testing.F) {
	f.Add(`{"Epoch":1,"Members":[{"Addr":"127.0.0.1:9190","Weight":1000}]}`)
	f.Add(`{"Epoch":18446744073709551615,"Members":[{"Addr":"a"},{"Addr":"b","Weight":250}]}`)
	f.Add(`{"Epoch":0,"Members":[{}]}`)
	f.Add(`{"Epoch":2,"Members":[]}`)
	f.Add(`{"Epoch":-1,"Members":[{"Addr":"a"}]}`)
	f.Add(`{"Members":[{"Addr":"a","Weight":1.5}]}`)
	f.Add(`{}`)
	f.Add(`not json`)

	f.Fuzz(func(t *testing.T, body string) {
		var relayed []*wire.Config
		mux := http.NewServeMux()
		// Records what it relays and, like collector.Broadcast, refuses a
		// config that does not encode.
		RegisterMemberEndpoints(mux, MemberEndpoints{Broadcast: func(cfg *wire.Config) error {
			if _, err := wire.AppendConfig(nil, cfg); err != nil {
				return err
			}
			relayed = append(relayed, cfg)
			return nil
		}, Set: NewPropertySet(core.NewMonitor(sim.NewScheduler(), core.Config{}), nil)})
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet", strings.NewReader(body)))

		var doc FleetDoc
		decoded := json.NewDecoder(strings.NewReader(body)).Decode(&doc) == nil
		if rec.Code == http.StatusOK && (!decoded || len(doc.Members) == 0) {
			t.Fatalf("status 200 for a body naming no member: %q", body)
		}
		if (rec.Code == http.StatusOK) != (len(relayed) == 1) || len(relayed) > 1 {
			t.Fatalf("status %d with %d configs relayed", rec.Code, len(relayed))
		}
		for _, cfg := range relayed {
			if cfg.Kind != wire.ConfigFleet {
				t.Fatalf("relayed a %s config", cfg.Kind)
			}
			enc, err := wire.AppendConfig(nil, cfg)
			if err != nil {
				t.Fatalf("relayed config does not encode: %v", err)
			}
			fr, err := wire.NewPooledReader(bytes.NewReader(enc)).Next()
			if err != nil {
				t.Fatalf("relayed config does not decode: %v", err)
			}
			got, ok := fr.(*wire.Config)
			if !ok || got.Kind != cfg.Kind || got.Epoch != cfg.Epoch || len(got.Props) != 0 || got.Source != "" ||
				len(got.Members) != len(cfg.Members) {
				t.Fatalf("relayed config changed on the wire: sent %+v, got %+v", cfg, fr)
			}
			for i := range got.Members {
				if got.Members[i] != cfg.Members[i] {
					t.Fatalf("member %d changed on the wire: sent %+v, got %+v", i, cfg.Members[i], got.Members[i])
				}
			}
		}
	})
}

// FuzzPropertySetDoc is the contract of a member's PUT /fleet/properties
// body: no body panics the handler; only a property-set document whose
// source defines exactly the properties it names answers 2xx, and a
// refused one changes nothing; the set then applied — the document the
// member reports, the engine's running set, the config pushed to
// exporters — is that document, sorted and formatted; and a second PUT
// at an epoch not newer changes nothing.
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

	f.Fuzz(func(t *testing.T, body string) {
		mon := core.NewMonitor(sim.NewScheduler(), core.Config{})
		var pushed []*wire.Config
		set := NewPropertySet(mon, func(u *wire.Config) error {
			pushed = append(pushed, u)
			return nil
		})
		mux := http.NewServeMux()
		RegisterMemberEndpoints(mux, MemberEndpoints{Broadcast: func(*wire.Config) error { return nil }, Set: set})
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
		want := setDoc(d.Epoch, props)
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
		if len(pushed) != 1 || !reflect.DeepEqual(pushed[0], want.Config()) {
			t.Fatalf("pushed %+v, want one %+v", pushed, want.Config())
		}

		if code := put(doc(d.Epoch, "")); code != http.StatusOK {
			t.Fatalf("a stale PUT answered %d", code)
		}
		if !reflect.DeepEqual(set.Doc(), applied) || len(pushed) != 1 {
			t.Fatalf("a stale PUT changed the set to %+v", set.Doc())
		}
	})
}
