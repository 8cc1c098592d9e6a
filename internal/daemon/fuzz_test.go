package daemon

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"switchmon/internal/core"
	"switchmon/internal/dsl"
	"switchmon/internal/federation"
	"switchmon/internal/obs/export"
	"switchmon/internal/sim"
)

// FuzzPropertiesBody is the contract of a POST /properties body, run
// through the one lifecycle handler (export.PropertiesHandler) over a
// daemon's property set (federation.PropertySet.Edits) into a live
// core.Monitor: no body panics the handler, and the answer is 201
// exactly when the body parses to at least one property and every one
// of them is installed, 400 otherwise. The set installs in name order,
// so the engine's list is compared as a set. scripts/check.sh runs it as
// a smoke.
func FuzzPropertiesBody(f *testing.F) {
	for _, s := range []string{
		`property "p" { on arrival "a" { match tcp.syn == 1 } }`,
		`property "p" {
  on arrival "syn" {
    match tcp.syn == 1
    bind $SW = switch.id
  }
  on egress "out" within 1s {
    match switch.id == $SW
  }
}`,
		// Two definitions of one name: the second install fails.
		`property "p" { on arrival "a" { match tcp.syn == 1 } }
property "p" { on arrival "a" { match tcp.syn == 1 } }`,
		`property "broken" {`,
		"# only a comment\n",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		mon := core.NewMonitor(sim.NewScheduler(), core.Config{})
		h := export.PropertiesHandler(federation.NewPropertySet(mon, nil).Edits())
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, "/properties?tenant=t", strings.NewReader(body)))

		props, err := dsl.ParseAll(body)
		installed := mon.Properties()
		every := err == nil && len(props) > 0 && len(installed) == len(props)
		for i := 0; every && i < len(props); i++ {
			every = slices.Contains(installed, props[i].Name)
		}
		want := http.StatusBadRequest
		if every {
			want = http.StatusCreated
		}
		if rec.Code != want {
			t.Fatalf("POST %q answered %d, want %d (parse error %v, %d parsed, installed %v): %s",
				body, rec.Code, want, err, len(props), installed, rec.Body)
		}
	})
}
