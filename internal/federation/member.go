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
)

// AdminTimeout bounds one admin call unless configured otherwise: the
// aggregator's default -timeout.
const AdminTimeout = 3 * time.Second

// EditTimeout bounds a collector's -aggregate forward: the worst case of
// the aggregator's edit at the default -timeout, a read round and a PUT
// round of AdminTimeout each, plus the hop.
const EditTimeout = 2*AdminTimeout + time.Second

// AdminCall is the one admin HTTP call a fleet makes — an aggregator's
// member scrape or document PUT, a collector's -aggregate forward —
// abandoned after timeout. A non-empty body goes as contentType. Any
// answer but 2xx is an error carrying the answer's text and status
// (export.StatusError); a 2xx answer returns its body.
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

// RegisterMemberEndpoints adds the fleet-member admin endpoint over a
// collector's property set to its introspection mux:
//
//	/fleet/properties  GET the applied PropertySetDoc; PUT a document,
//	                   applied unless stale (PropertySet.Apply) and
//	                   answered with the document then applied; a body
//	                   that is not a document, one that does not parse,
//	                   or one naming members no router takes, answers 400
//
// The document carries the fleet's membership too: a member relays a
// membership change to its exporters as a fleet-kind wire.Config.
func RegisterMemberEndpoints(mux *http.ServeMux, set *PropertySet) {
	mux.HandleFunc("/fleet/properties", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			export.JSON(w, set.Doc())
		case http.MethodPut:
			var d PropertySetDoc
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err == nil {
				err = json.Unmarshal(body, &d)
			}
			if err == nil {
				d, err = set.Apply(d)
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
