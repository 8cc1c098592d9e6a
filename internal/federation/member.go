package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"switchmon/internal/obs/export"
	"switchmon/internal/wire"
)

// AdminTimeout bounds one admin call unless configured otherwise: the
// aggregator's default -timeout and a collector's -aggregate forward.
const AdminTimeout = 3 * time.Second

// AdminCall is the one admin HTTP call a fleet makes — an aggregator's
// member scrape, fleet push or property-set PUT, a collector's
// -aggregate forward — abandoned after timeout. A non-empty body goes as
// contentType. Any answer but 2xx is an error carrying the answer's
// text and status (export.StatusError); a 2xx answer returns its body.
func AdminCall(timeout time.Duration, method, target, contentType, body string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, target, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err == nil && resp.StatusCode/100 != 2 {
		return nil, &export.StatusError{Code: resp.StatusCode, Msg: fmt.Sprintf("%s %s: %s: %s", method, target, resp.Status, bytes.TrimSpace(b))}
	}
	return b, err
}

// MemberEndpoints wires a collector's fleet-facing admin surface: the
// hooks the aggregation tier drives on each member.
type MemberEndpoints struct {
	// Broadcast relays a fleet-kind config to this member's connected
	// exporters (collector.Broadcast).
	Broadcast func(*wire.Config) error
	// Set is the member's property set, which the aggregation tier reads
	// and replaces as one document.
	Set *PropertySet
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
//	/fleet/properties  GET the applied PropertySetDoc; PUT a document,
//	                   applied unless stale (PropertySet.Apply) and
//	                   answered with the document then applied; a body
//	                   that is not a document, or one that does not
//	                   parse, answers 400
func RegisterMemberEndpoints(mux *http.ServeMux, m MemberEndpoints) {
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			export.Error(w, http.StatusMethodNotAllowed, "POST only")
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
		case http.MethodGet:
			export.JSON(w, m.Set.Doc())
		case http.MethodPut:
			var d PropertySetDoc
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err == nil {
				err = json.Unmarshal(body, &d)
			}
			if err == nil {
				d, err = m.Set.Apply(d)
			}
			if err != nil {
				export.Error(w, http.StatusBadRequest, err.Error())
				return
			}
			export.JSON(w, d)
		default:
			export.Error(w, http.StatusMethodNotAllowed, "GET or PUT")
		}
	})
}
