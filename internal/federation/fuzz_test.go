package federation

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
		}})
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
