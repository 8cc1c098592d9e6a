// Package export turns obs registry snapshots into wire formats and
// serves them over HTTP: Prometheus text exposition and JSON renderings
// of the metrics, a violation-ring dump with provenance, a health probe,
// and the standard pprof handlers — the switch-scope introspection
// endpoint behind switchmon's -metrics-addr flag.
//
// The exporters work on obs.Snapshot values, never on live instruments,
// so a scrape costs one snapshot (atomic loads under the registry lock)
// and zero coordination with the hot path.
package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/obs/histdb"
	"switchmon/internal/obs/slo"
	"switchmon/internal/obs/tracer"
)

// Error writes a 4xx/5xx response as the admin surface's uniform JSON
// error shape: {"error": "..."} with Content-Type application/json.
// Every endpoint (here, and the federation member/aggregator muxes)
// rejects through this helper, so clients never have to sniff between
// bare text and JSON bodies.
func Error(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: msg})
}

// Errorf is Error with fmt formatting.
func Errorf(w http.ResponseWriter, status int, format string, args ...any) {
	Error(w, status, fmt.Sprintf(format, args...))
}

// PromText writes the snapshot in Prometheus text exposition format
// (version 0.0.4). Histograms are rendered as cumulative le-buckets at
// the power-of-two bounds obs.BucketBound defines, plus _sum and _count.
func PromText(w io.Writer, s obs.Snapshot) error {
	for _, f := range s.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, ser := range f.Series {
			if err := writeSeries(w, f, ser); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one labeled series of family f.
func writeSeries(w io.Writer, f obs.FamilySnapshot, ser obs.SeriesSnapshot) error {
	if f.Kind != "histogram" {
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.Name, labelBlock(ser.Labels, "", ""), ser.Value)
		return err
	}
	cum := uint64(0)
	for i, n := range ser.Buckets {
		cum += n
		if n == 0 {
			continue // elide empty buckets; cumulative counts stay exact
		}
		le := strconv.FormatUint(obs.BucketBound(i), 10)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, labelBlock(ser.Labels, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, labelBlock(ser.Labels, "le", "+Inf"), ser.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.Name, labelBlock(ser.Labels, "", ""), ser.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, labelBlock(ser.Labels, "", ""), ser.Count)
	return err
}

// labelBlock renders {k="v",...}, appending the extra pair when set, or
// "" for an unlabeled series.
func labelBlock(labels []obs.Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// JSON writes v as the admin surface's one JSON answer: Content-Type
// application/json and a two-space-indented document. Every JSON
// endpoint here and on the federation aggregator answers through it. A
// value that does not encode (a NaN, say) answers 500 through Error,
// never 200 with an empty body.
func JSON(w http.ResponseWriter, v any) { answer(w, http.StatusOK, v, "") }

// answer writes v through JSON's encoding with status, or, when v is nil,
// text as a plain-text body.
func answer(w http.ResponseWriter, status int, v any, text string) {
	if v == nil && text != "" {
		w.WriteHeader(status)
		fmt.Fprintln(w, text)
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		Errorf(w, http.StatusInternalServerError, "encoding the answer: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// Metrics answers a /metrics scrape with snap: Prometheus text, or the
// JSON snapshot with ?format=json.
func Metrics(w http.ResponseWriter, r *http.Request, snap obs.Snapshot) {
	if r.URL.Query().Get("format") == "json" {
		JSON(w, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = PromText(w, snap)
}

// HealthFunc lets the engine report degradation through /healthz. It
// returns whether the engine is fully sound and, when it is not, a
// JSON-serializable detail (typically the soundness ledger's marks).
type HealthFunc func() (healthy bool, detail any)

// StateFunc lets the engine expose its state-cost accounting through
// /state. It returns a JSON-serializable report (typically a
// statesize.Report, which both engines produce via StateReport); it is
// called per request, so the report is always live.
type StateFunc func() any

// PropertiesConfig wires a PropertiesHandler to lifecycle operations.
// Install receives the property's DSL source plus the tenant to attach;
// errors map to 400 (bad DSL or duplicate). Remove errors map to 404
// (unknown property). A StatusError maps to its own code. Either may
// return an answer — the property-set document the operation produced —
// which is served as JSON; a nil answer is served as plain "installed"
// or "removed". List backs GET. A nil operation answers 405. Handlers serialize nothing themselves: the
// engine's router lock, or the lock of the property-set document being
// edited, is the serialization point.
type PropertiesConfig struct {
	List    func() any
	Install func(src, tenant string) (any, error)
	Remove  func(name string) (any, error)
}

// StatusError is an error that names its own HTTP status: an operation
// refused for the state it would change rather than for its request (the
// fleet's members disagree, none answers), or a remote admin call's
// non-2xx answer. PropertiesHandler answers it with Code.
type StatusError struct {
	Code int
	Msg  string
}

// Error is the refusal's message.
func (e *StatusError) Error() string { return e.Msg }

// status is err's own code when it is a StatusError, else code.
func status(err error, code int) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return code
}

// MuxConfig wires the introspection endpoint's data sources. Every
// field may be nil: the corresponding handlers then serve empty
// documents (and /healthz degrades to a plain liveness probe). The three
// record streams — Ring, Tracer and Alerts — are each one obs.Log, paged
// by ReadPage.
type MuxConfig struct {
	// Registry backs /metrics; when non-nil the mux also registers the
	// switchmon_build_info series and Go runtime health series (the GC
	// pause histogram is refreshed before every /metrics snapshot).
	Registry *obs.Registry
	// Ring backs /violations (seqs from 0).
	Ring *obs.Ring
	// Health backs /healthz.
	Health HealthFunc
	// Tracer backs /trace (seqs from 0).
	Tracer *tracer.Tracer
	// State backs /state.
	State StateFunc
	// Properties, when non-nil, enables the /properties admin endpoint
	// (live install/remove).
	Properties *PropertiesConfig
	// History, when non-nil, backs /query (the histdb ring TSDB).
	History *histdb.DB
	// Alerts, when non-nil, backs /alerts (transition seqs from 1) and
	// folds firing rules into the /healthz degradation report.
	Alerts *slo.Engine
}

// ReadPage parses the ?since=<seq>&limit=N page every record stream
// shares (/violations, /trace, /alerts, and the aggregator's forwarded
// /violations) into an obs.Page. A malformed value answers 400 with the
// uniform JSON error shape, and ReadPage reports false.
func ReadPage(w http.ResponseWriter, r *http.Request) (obs.Page, bool) {
	q, p := r.URL.Query(), obs.All
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			Errorf(w, http.StatusBadRequest, "bad since %q: want an unsigned sequence number", v)
			return p, false
		}
		p.Since, p.HasSince = n, true
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			Errorf(w, http.StatusBadRequest, "bad limit %q: want a non-negative integer", v)
			return p, false
		}
		p.Limit = n
	}
	return p, true
}

// HistoryHandler serves /query over a histdb ring:
//
//	/query?series=<glob>[|<glob>...]&since=<unix>&step=<dur>
//
// series is required ('*' and '?' wildcards, '|' separates
// alternatives); since restricts to samples strictly newer than the
// given unix time in seconds (fractions allowed; a time whose
// nanosecond value overflows int64 is malformed); step downsamples to
// one point per step. Malformed parameters answer 400 with the uniform
// JSON error shape. The federation aggregator reuses this handler for
// its fleet-level ring.
func HistoryHandler(db *histdb.DB) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		pattern := q.Get("series")
		if pattern == "" {
			Error(w, http.StatusBadRequest, "missing ?series=<glob> (try series=*)")
			return
		}
		var sinceNS int64
		if v := q.Get("since"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			ns := f * float64(time.Second)
			// The negated range test also refuses NaN; 2^63 is the first
			// float64 past math.MaxInt64.
			if err != nil || !(ns >= 0 && ns < 1<<63) {
				Errorf(w, http.StatusBadRequest, "bad since %q: want unix seconds", v)
				return
			}
			sinceNS = int64(ns)
		}
		var step time.Duration
		if v := q.Get("step"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				Errorf(w, http.StatusBadRequest, "bad step %q: want a duration like 5s", v)
				return
			}
			step = d
		}
		res, err := db.Query(pattern, sinceNS, step)
		if err != nil {
			Errorf(w, http.StatusBadRequest, "bad series glob: %v", err)
			return
		}
		JSON(w, res)
	}
}

// alertsDoc is the /alerts response shape.
type alertsDoc struct {
	// Alerts is every rule's current status, in rule order.
	Alerts []slo.ActiveAlert `json:"alerts"`
	// TransitionsTotal counts transitions ever recorded; with the
	// retained ring's contiguous seqs, a gap proves eviction.
	TransitionsTotal uint64 `json:"transitions_total"`
	// Transitions is the retained transitions ReadPage selects, oldest
	// first.
	Transitions []slo.Transition `json:"transitions"`
}

// AlertsHandler serves /alerts over an SLO engine: the current status
// of every rule plus the page of recorded transitions ReadPage selects.
// Transition seqs count from 1, so ?since=0 keeps them all.
func AlertsHandler(e *slo.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, ok := ReadPage(w, r)
		if !ok {
			return
		}
		trs, total := e.Page(p)
		JSON(w, alertsDoc{Alerts: e.Alerts(), TransitionsTotal: total, Transitions: trs})
	}
}

// HealthHandler serves /healthz: "ok" while health reports sound (a nil
// health is a plain liveness probe) and no rule of alerts (nil for none)
// is firing; otherwise, still with 200, the degradation report
// {"status":"degraded","detail":…,"alerts":[…]}. A daemon's mux and the
// fleet aggregator both answer through it.
func HealthHandler(health HealthFunc, alerts *slo.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		healthy, detail := true, any(nil)
		if health != nil {
			healthy, detail = health()
		}
		var firing []slo.ActiveAlert
		if alerts != nil {
			firing = alerts.Degraded()
		}
		if healthy && len(firing) == 0 {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
			return
		}
		JSON(w, struct {
			Status string            `json:"status"`
			Detail any               `json:"detail,omitempty"`
			Alerts []slo.ActiveAlert `json:"alerts,omitempty"`
		}{Status: "degraded", Detail: detail, Alerts: firing})
	}
}

// PropertiesHandler serves the live property lifecycle over pc: GET
// lists, POST installs the body's DSL source (?tenant= attaches a
// tenant) and answers 201, DELETE ?name= removes and answers 200 — each
// with the operation's answer, or "installed" and "removed" when it has
// none. An operation pc leaves nil, or any with a nil pc, answers 405.
// A daemon's /properties and the aggregator's fleet-wide /properties
// both answer through it.
func PropertiesHandler(pc *PropertiesConfig) http.HandlerFunc {
	if pc == nil {
		pc = &PropertiesConfig{}
	}
	return func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && pc.List != nil:
			JSON(w, pc.List())
		case r.Method == http.MethodPost && pc.Install != nil:
			src, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			var v any
			if err == nil {
				v, err = pc.Install(string(src), r.URL.Query().Get("tenant"))
			}
			if err != nil {
				Error(w, status(err, http.StatusBadRequest), err.Error())
				return
			}
			answer(w, http.StatusCreated, v, "installed")
		case r.Method == http.MethodDelete && pc.Remove != nil:
			name := r.URL.Query().Get("name")
			if name == "" {
				Error(w, http.StatusBadRequest, "missing ?name=")
				return
			}
			v, err := pc.Remove(name)
			if err != nil {
				Error(w, status(err, http.StatusNotFound), err.Error())
				return
			}
			answer(w, http.StatusOK, v, "removed")
		default:
			Errorf(w, http.StatusMethodNotAllowed, "%s not supported here", r.Method)
		}
	}
}

// NewMux builds the introspection endpoint:
//
//	/metrics          Prometheus text (or JSON with ?format=json),
//	                  including Go runtime health series
//	/healthz          liveness + soundness probe ("ok", or a JSON
//	                  degradation report when health says unsound)
//	/violations       JSON dump of the violation ring, oldest first
//	/trace            completed tracing spans as NDJSON, oldest first
//	/state            live state-cost accounting report as JSON
//	/query            windowed reads over the metrics history ring
//	                  (when configured; see HistoryHandler)
//	/alerts           SLO rule status + transition ring (when
//	                  configured; see AlertsHandler)
//	/properties       live property lifecycle admin (when configured;
//	                  see PropertiesHandler)
//	/buildinfo        module, VCS, and toolchain identity as JSON
//	/debug/pprof/...  standard runtime profiles
//
// /violations, /trace and /alerts are one contract over one obs.Log
// each: ReadPage parses ?since=<seq> (records with a strictly greater
// sequence number only) and ?limit=N (the newest N after the since
// filter), answering 400 when either is malformed, so pollers can read
// incrementally. Records carry contiguous sequence numbers (from 0, or
// from 1 for alert transitions), so a page whose first record's seq
// exceeds since+1 proves records were missed (evicted or truncated);
// each page and its total come from one read of the log.
//
// /healthz answers 200 even when degraded: the process is alive and
// still monitoring, just with a documented soundness gap (a non-empty
// ledger, or SLO rules firing when an alert engine is configured).
// Probes that want to alarm on degradation should parse the status
// field.
//
// When a registry is configured the mux also meters itself: every
// endpoint records switchmon_scrapes_total and a
// switchmon_scrape_duration_ns histogram labeled by endpoint, so the
// cost of being scraped shows up in /metrics — and therefore in the
// history ring and the SLO engine watching it.
func NewMux(cfg MuxConfig) *http.ServeMux {
	reg, ring, tr := cfg.Registry, cfg.Ring, cfg.Tracer
	var rc *runtimeCollector
	if reg != nil {
		rc = newRuntimeCollector(reg)
		registerBuildInfo(reg)
	}
	mux := http.NewServeMux()
	handle := instrumented(mux, reg)
	handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		rc.collect()
		Metrics(w, r, reg.Snapshot())
	})
	handle("/healthz", HealthHandler(cfg.Health, cfg.Alerts))
	handle("/violations", func(w http.ResponseWriter, r *http.Request) {
		p, ok := ReadPage(w, r)
		if !ok {
			return
		}
		recs, total := ring.Page(p)
		JSON(w, struct {
			Total      uint64            `json:"total"`
			Retained   int               `json:"retained"`
			Violations []obs.TraceRecord `json:"violations"`
		}{Total: total, Retained: len(recs), Violations: recs})
	})
	handle("/trace", func(w http.ResponseWriter, r *http.Request) {
		p, ok := ReadPage(w, r)
		if !ok {
			return
		}
		recs, total := tr.Page(p)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Trace-Total", strconv.FormatUint(total, 10))
		_ = tracer.WriteNDJSON(w, recs)
	})
	handle("/state", func(w http.ResponseWriter, _ *http.Request) {
		var rep any = struct{}{}
		if cfg.State != nil {
			rep = cfg.State()
		}
		JSON(w, rep)
	})
	if cfg.History != nil {
		handle("/query", HistoryHandler(cfg.History))
	}
	if cfg.Alerts != nil {
		handle("/alerts", AlertsHandler(cfg.Alerts))
	}
	if cfg.Properties != nil {
		handle("/properties", PropertiesHandler(cfg.Properties))
	}
	handle("/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		JSON(w, buildInfo())
	})
	handle("/debug/pprof/", pprof.Index)
	handle("/debug/pprof/cmdline", pprof.Cmdline)
	handle("/debug/pprof/profile", pprof.Profile)
	handle("/debug/pprof/symbol", pprof.Symbol)
	handle("/debug/pprof/trace", pprof.Trace)
	return mux
}

// instrumented returns a HandleFunc-shaped registrar that wraps every
// handler with per-endpoint self-metering: switchmon_scrapes_total and
// a switchmon_scrape_duration_ns histogram, both labeled by endpoint
// pattern. With a nil registry it degrades to plain registration.
func instrumented(mux *http.ServeMux, reg *obs.Registry) func(pattern string, h http.HandlerFunc) {
	return func(pattern string, h http.HandlerFunc) {
		if reg != nil {
			dur := reg.Histogram("switchmon_scrape_duration_ns",
				"Time serving one introspection request.", obs.L("endpoint", pattern))
			total := reg.Counter("switchmon_scrapes_total",
				"Introspection requests served.", obs.L("endpoint", pattern))
			inner := h
			h = func(w http.ResponseWriter, r *http.Request) {
				start := time.Now()
				inner(w, r)
				dur.Observe(uint64(time.Since(start)))
				total.Inc()
			}
		}
		mux.HandleFunc(pattern, h)
	}
}
