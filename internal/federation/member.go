package federation

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"switchmon/internal/obs/export"
	"switchmon/internal/wire"
)

// MemberEndpoints wires a collector's fleet-facing admin surface: the
// hooks the aggregation tier drives on each member. Local means "apply
// here, do not forward" — the aggregator already owns the fleet-wide
// fan-out and ordering, so these handlers must never loop an operation
// back through it.
type MemberEndpoints struct {
	// Broadcast relays a fleet-kind config to this member's connected
	// exporters (collector.Broadcast).
	Broadcast func(*wire.Config) error
	// InstallLocal installs DSL source on this member only.
	InstallLocal func(src, tenant string) error
	// RemoveLocal removes the named property on this member only.
	RemoveLocal func(name string) error
}

// FleetDoc is the fleet membership as the /fleet admin endpoints speak
// it in JSON, {"Epoch":…,"Members":[{"Addr":…,"Weight":…}]}: the body a
// member's POST /fleet takes and the aggregator's POST /fleet answers.
// The member relays it to its exporters as a fleet-kind wire.Config.
type FleetDoc struct {
	Epoch   uint64
	Members []wire.FleetMember
}

// RegisterMemberEndpoints adds the fleet-member admin endpoints to a
// collector's introspection mux:
//
//	/fleet             POST a FleetDoc; the member relays it as a
//	                   fleet-kind wire.Config to every connected
//	                   fleet-capable exporter
//	/fleet/properties  POST/DELETE like /properties, but always applied
//	                   locally — the aggregator's fan-out target
func RegisterMemberEndpoints(mux *http.ServeMux, m MemberEndpoints) {
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			export.Error(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if m.Broadcast == nil {
			export.Error(w, http.StatusMethodNotAllowed, "fleet relay not supported")
			return
		}
		var doc FleetDoc
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&doc); err != nil {
			export.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		if len(doc.Members) == 0 {
			export.Error(w, http.StatusBadRequest, "fleet config needs at least one member")
			return
		}
		// Broadcast fails only when the config does not encode (e.g. more
		// members than the wire carries): the body's fault.
		if err := m.Broadcast(&wire.Config{Kind: wire.ConfigFleet, Epoch: doc.Epoch, Members: doc.Members}); err != nil {
			export.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		fmt.Fprintln(w, "relayed")
	})
	mux.HandleFunc("/fleet/properties", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			if m.InstallLocal == nil {
				export.Error(w, http.StatusMethodNotAllowed, "install not supported")
				return
			}
			src, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				export.Error(w, http.StatusBadRequest, err.Error())
				return
			}
			if err := m.InstallLocal(string(src), r.URL.Query().Get("tenant")); err != nil {
				export.Error(w, http.StatusBadRequest, err.Error())
				return
			}
			w.WriteHeader(http.StatusCreated)
			fmt.Fprintln(w, "installed")
		case http.MethodDelete:
			if m.RemoveLocal == nil {
				export.Error(w, http.StatusMethodNotAllowed, "remove not supported")
				return
			}
			name := r.URL.Query().Get("name")
			if name == "" {
				export.Error(w, http.StatusBadRequest, "missing ?name=")
				return
			}
			if err := m.RemoveLocal(name); err != nil {
				export.Error(w, http.StatusNotFound, err.Error())
				return
			}
			fmt.Fprintln(w, "removed")
		default:
			export.Error(w, http.StatusMethodNotAllowed, "POST or DELETE")
		}
	})
}
