package export

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

func testRegistry() (*obs.Registry, *obs.Ring) {
	reg := obs.NewRegistry()
	reg.Counter("t_events_total", "Events.", obs.L("property", "fw")).Add(7)
	reg.Gauge("t_instances", "Live instances.").Set(-3)
	h := reg.Histogram("t_latency_ns", "Latency.")
	h.Observe(0) // bucket 0
	h.Observe(1) // bucket 1
	h.Observe(1)
	h.Observe(9) // bucket 4 (bits.Len64(9)=4)
	ring := obs.NewRing(4)
	ring.Record(obs.TraceRecord{
		Time:     time.Unix(100, 0).UTC(),
		Property: "fw",
		Trigger:  "timeout",
		Values:   []obs.Binding{{Var: "src", Value: packet.Num(167772161)}},
		History:  []obs.TraceStep{{Stage: 0, Label: "open"}},
	})
	return reg, ring
}

func TestPromTextFormat(t *testing.T) {
	reg, _ := testRegistry()
	var b strings.Builder
	if err := PromText(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP t_events_total Events.",
		"# TYPE t_events_total counter",
		`t_events_total{property="fw"} 7`,
		"# TYPE t_instances gauge",
		"t_instances -3",
		"# TYPE t_latency_ns histogram",
		`t_latency_ns_bucket{le="0"} 1`,  // 1 obs of value 0
		`t_latency_ns_bucket{le="1"} 3`,  // cumulative: +2 obs of value 1
		`t_latency_ns_bucket{le="15"} 4`, // cumulative: +1 obs of value 9
		`t_latency_ns_bucket{le="+Inf"} 4`,
		"t_latency_ns_sum 11",
		"t_latency_ns_count 4",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out)
		}
	}
}

// A weighted observation (Histogram.ObserveN, the engine's sampled apply
// latency) renders as that many observations: cumulative buckets, _sum and
// _count all carry the weight.
func TestPromTextWeightedHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("t_event_ns", "Latency.")
	h.ObserveN(9, 60)   // bucket 4
	h.ObserveN(300, 40) // bucket 9
	h.Observe(300)
	var b strings.Builder
	if err := PromText(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`t_event_ns_bucket{le="15"} 60`,
		`t_event_ns_bucket{le="511"} 101`,
		`t_event_ns_bucket{le="+Inf"} 101`,
		"t_event_ns_sum 12840",
		"t_event_ns_count 101",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("t_total", "h", obs.L("k", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := PromText(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `t_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

func TestMuxEndpoints(t *testing.T) {
	reg, ring := testRegistry()
	tr := tracer.New(tracer.Config{SampleN: 1})
	sp := tr.Sample(7, 42, 0)
	sp.StampAt(tracer.StageIngress, 100)
	sp.StampAt(tracer.StageVerdict, 350)
	tr.Finish(sp)
	srv := httptest.NewServer(NewMux(MuxConfig{Registry: reg, Ring: ring, Tracer: tr}))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %q", body)
	}
	if body := get("/metrics"); !strings.Contains(body, `t_events_total{property="fw"} 7`) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(get("/metrics?format=json")), &snap); err != nil {
		t.Fatal(err)
	}
	// The three test families plus the mux's own contributions: the
	// build-info series and the Go runtime health series.
	have := map[string]bool{}
	for _, f := range snap.Families {
		have[f.Name] = true
	}
	for _, want := range []string{
		"t_events_total", "t_instances", "t_latency_ns",
		"switchmon_build_info", "switchmon_go_goroutines",
		"switchmon_go_heap_alloc_bytes", "switchmon_go_gc_pause_ns",
	} {
		if !have[want] {
			t.Fatalf("json families missing %s: %v", want, have)
		}
	}

	var dump struct {
		Total      uint64            `json:"total"`
		Retained   int               `json:"retained"`
		Violations []obs.TraceRecord `json:"violations"`
	}
	if err := json.Unmarshal([]byte(get("/violations")), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Total != 1 || dump.Retained != 1 || len(dump.Violations) != 1 {
		t.Fatalf("violations dump = %+v", dump)
	}
	v := dump.Violations[0]
	if v.Property != "fw" || v.Trigger != "timeout" || v.Bindings["src"] != "167772161" || len(v.History) != 1 {
		t.Fatalf("trace record lost fields: %+v", v)
	}

	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("pprof cmdline empty")
	}

	var rec tracer.SpanRecord
	if err := json.Unmarshal([]byte(get("/trace")), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.DPID != 7 || rec.PacketID != 42 || rec.E2ENs != 250 {
		t.Fatalf("/trace record = %+v", rec)
	}
}

// /healthz with a HealthFunc: healthy stays the plain "ok" liveness
// answer; unsound flips to a JSON degradation report carrying the
// detail (the soundness ledger), still with status 200 — the process is
// alive, just degraded.
func TestMuxHealthzDegraded(t *testing.T) {
	healthy := true
	detail := []map[string]any{{"property": "firewall-basic", "reason": "quarantine"}}
	srv := httptest.NewServer(NewMux(MuxConfig{Health: func() (bool, any) {
		return healthy, detail
	}}))
	defer srv.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get(); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthy /healthz = %d %q, want 200 ok", code, body)
	}

	healthy = false
	code, body := get()
	if code != 200 {
		t.Fatalf("degraded /healthz status = %d, want 200 (alive but degraded)", code)
	}
	var rep struct {
		Status string           `json:"status"`
		Detail []map[string]any `json:"detail"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("degraded /healthz is not JSON: %v\n%s", err, body)
	}
	if rep.Status != "degraded" {
		t.Fatalf("status = %q, want degraded", rep.Status)
	}
	if len(rep.Detail) != 1 || rep.Detail[0]["property"] != "firewall-basic" || rep.Detail[0]["reason"] != "quarantine" {
		t.Fatalf("detail lost the ledger: %+v", rep.Detail)
	}
}

func TestMuxNilSources(t *testing.T) {
	srv := httptest.NewServer(NewMux(MuxConfig{}))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/violations", "/healthz", "/trace", "/state", "/buildinfo"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s with nil sources: status %d", path, resp.StatusCode)
		}
	}
}

// TestViolationsWraparoundGapDetectable is the incremental-read
// contract: a ring that wrapped has evicted records, and a poller
// resuming from ?since can prove it missed some because the retained
// sequence numbers are contiguous — the first returned seq exceeding
// since+1 is the gap signal.
func TestViolationsWraparoundGapDetectable(t *testing.T) {
	ring := obs.NewRing(4)
	for i := 0; i < 10; i++ {
		ring.Record(obs.TraceRecord{Property: "fw", Trigger: "t"})
	}
	srv := httptest.NewServer(NewMux(MuxConfig{Ring: ring}))
	defer srv.Close()

	var dump struct {
		Total      uint64            `json:"total"`
		Retained   int               `json:"retained"`
		Violations []obs.TraceRecord `json:"violations"`
	}
	get := func(path string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		dump = struct {
			Total      uint64            `json:"total"`
			Retained   int               `json:"retained"`
			Violations []obs.TraceRecord `json:"violations"`
		}{}
		if err := json.Unmarshal(body, &dump); err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, body)
		}
	}

	// The ring retains seqs 6..9 of 10 recorded (0..9).
	get("/violations")
	if dump.Total != 10 || dump.Retained != 4 || dump.Violations[0].Seq != 6 {
		t.Fatalf("full dump = total %d retained %d first seq %d, want 10/4/6",
			dump.Total, dump.Retained, dump.Violations[0].Seq)
	}

	// A poller that last saw seq 2 asks for everything after it. Seqs
	// 3..5 are gone; the response must make that detectable.
	get("/violations?since=2")
	if dump.Retained != 4 {
		t.Fatalf("since=2 returned %d records, want the 4 retained", dump.Retained)
	}
	if first := dump.Violations[0].Seq; first <= 2+1 {
		t.Fatalf("first seq = %d; a wrapped ring must expose the gap (want > 3)", first)
	} else if first != 6 {
		t.Fatalf("first seq = %d, want 6", first)
	}

	// A poller that kept up sees a gapless continuation.
	get("/violations?since=7")
	if dump.Retained != 2 || dump.Violations[0].Seq != 8 || dump.Violations[1].Seq != 9 {
		t.Fatalf("since=7 = %+v, want seqs 8,9", dump.Violations)
	}

	// limit keeps the newest N; order stays oldest-first.
	get("/violations?limit=2")
	if dump.Retained != 2 || dump.Violations[0].Seq != 8 || dump.Violations[1].Seq != 9 {
		t.Fatalf("limit=2 = %+v, want seqs 8,9", dump.Violations)
	}
	get("/violations?since=6&limit=1")
	if dump.Retained != 1 || dump.Violations[0].Seq != 9 {
		t.Fatalf("since=6&limit=1 = %+v, want seq 9 only", dump.Violations)
	}
	get("/violations?limit=0")
	if dump.Retained != 0 || dump.Total != 10 {
		t.Fatalf("limit=0 = retained %d total %d, want 0 records but the true total", dump.Retained, dump.Total)
	}
}

// mapTraceRecord is the conversion the engine ran per report before
// bindings were rendered on read: a map of rendered values and a copied
// history, built when the record was appended. It is kept as the
// reference /violations must match byte for byte.
func mapTraceRecord(v *core.Violation) obs.TraceRecord {
	rec := obs.TraceRecord{Time: v.Time, Property: v.Property, Trigger: v.Trigger}
	if len(v.Bindings) > 0 {
		rec.Bindings = make(map[string]string, len(v.Bindings))
		for _, b := range v.Bindings {
			rec.Bindings[b.Var] = b.Value.String()
		}
	}
	for _, h := range v.History {
		rec.History = append(rec.History, obs.TraceStep{Stage: h.Stage, Label: h.Label, Time: h.Time, Event: h.Event})
	}
	return rec
}

// A /violations page is the bytes it was when every record rendered its
// bindings on append: numeric bindings, a DNS query name JSON must
// escape, and full histories, paged whole and by since/limit.
func TestViolationsPageMatchesMapRendering(t *testing.T) {
	ring := obs.NewRing(8)
	// The reference ring stamps only the seq, as the ring did when records
	// arrived rendered.
	ref := obs.NewLog(8, func(r *obs.TraceRecord, seq uint64) { r.Seq = seq })
	sched := sim.NewScheduler()
	mon := core.NewMonitor(sched, core.Config{
		Provenance:  core.ProvFull,
		Violations:  ring,
		OnViolation: func(v *core.Violation) { ref.Record(mapTraceRecord(v)) },
	})
	for _, name := range []string{"firewall-basic", "dns-response-match"} {
		if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), name)); err != nil {
			t.Fatal(err)
		}
	}
	macA, macB := packet.MustMAC("02:00:00:00:00:0a"), packet.MustMAC("02:00:00:00:00:0b")
	ipA, ipB := packet.MustIPv4("10.0.0.1"), packet.MustIPv4("203.0.113.9")
	var pid core.PacketID
	forward := func(p *packet.Packet, in, out uint64, dropped bool) {
		pid++
		mon.HandleEvent(core.Event{Kind: core.KindArrival, Time: sched.Now(), PacketID: pid, Packet: p, InPort: in})
		mon.HandleEvent(core.Event{Kind: core.KindEgress, Time: sched.Now(), PacketID: pid, Packet: p, InPort: in, OutPort: out, Dropped: dropped})
	}
	forward(packet.NewTCP(macA, macB, ipA, ipB, 40000, 80, packet.FlagSYN, nil), 1, 2, false)
	forward(packet.NewTCP(macB, macA, ipB, ipA, 80, 40000, packet.FlagACK, nil), 2, 0, true)
	forward(packet.NewDNSQuery(macA, macB, ipA, ipB, 5353, 42, "bank \"x\"\n<a>&b"), 1, 2, false)
	forward(packet.NewDNSResponse(macB, macA, ipB, ipA, 5353, 42, "evil.example", packet.MustIPv4("6.6.6.6")), 2, 1, false)
	if ring.Total() != 2 {
		t.Fatalf("ring holds %d violations, want 2", ring.Total())
	}
	page := func(r *obs.Ring, path string) string {
		w := httptest.NewRecorder()
		NewMux(MuxConfig{Ring: r}).ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Body.String()
	}
	for _, path := range []string{"/violations", "/violations?since=0", "/violations?limit=1"} {
		if got, want := page(ring, path), page(ref, path); got != want {
			t.Errorf("GET %s:\n%s\nwant the map-rendered page:\n%s", path, got, want)
		}
	}
	if body := page(ring, "/violations"); !strings.Contains(body, `"Q": "\"bank \\\"x\\\"\\n\u003ca\u003e\u0026b\""`) {
		t.Errorf("the query name binding is not escaped as a JSON string:\n%s", body)
	}
}

// TestTraceWraparoundGapDetectable proves the same contract for /trace:
// span seqs survive ring eviction contiguously, so ?since reveals
// missed spans, and ?limit pages from the newest.
func TestTraceWraparoundGapDetectable(t *testing.T) {
	tr := tracer.New(tracer.Config{SampleN: 1, Ring: 4})
	for i := 0; i < 10; i++ {
		sp := tr.Sample(7, uint64(100+i), 0)
		sp.StampAt(tracer.StageIngress, int64(100+i))
		sp.StampAt(tracer.StageVerdict, int64(200+i))
		tr.Finish(sp)
	}
	srv := httptest.NewServer(NewMux(MuxConfig{Tracer: tr}))
	defer srv.Close()

	get := func(path string) []tracer.SpanRecord {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if got := resp.Header.Get("X-Trace-Total"); got != "10" {
			t.Fatalf("X-Trace-Total = %q, want 10", got)
		}
		var recs []tracer.SpanRecord
		dec := json.NewDecoder(resp.Body)
		for dec.More() {
			var r tracer.SpanRecord
			if err := dec.Decode(&r); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		return recs
	}

	full := get("/trace")
	if len(full) != 4 || full[0].Seq != 6 || full[3].Seq != 9 {
		t.Fatalf("full /trace = %+v, want seqs 6..9", full)
	}
	if full[0].PacketID != 106 {
		t.Fatalf("seq 6 carries packet %d, want 106 (seq assigned in finish order)", full[0].PacketID)
	}
	after := get("/trace?since=2")
	if len(after) != 4 || after[0].Seq != 6 {
		t.Fatalf("since=2 = %+v; first seq 6 > 3 is the detectable gap", after)
	}
	page := get("/trace?since=6&limit=2")
	if len(page) != 2 || page[0].Seq != 8 || page[1].Seq != 9 {
		t.Fatalf("since=6&limit=2 = %+v, want seqs 8,9", page)
	}
}

// TestStateEndpoint serves a StateFunc's report verbatim as JSON.
func TestStateEndpoint(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(NewMux(MuxConfig{State: func() any {
		calls++
		return map[string]any{"shards": 4, "poll": calls}
	}}))
	defer srv.Close()
	for want := 1; want <= 2; want++ {
		resp, err := srv.Client().Get(srv.URL + "/state")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type = %q", ct)
		}
		var rep struct {
			Shards int `json:"shards"`
			Poll   int `json:"poll"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shards != 4 || rep.Poll != want {
			t.Fatalf("poll %d: got %+v; the report must be produced per request", want, rep)
		}
	}
}

// TestBuildInfoEndpointAndMetric checks both build-identity surfaces:
// /buildinfo always knows the toolchain (even under `go test`, which
// embeds no VCS stamp), and a registry-backed mux carries the
// constant-1 switchmon_build_info series.
func TestBuildInfoEndpointAndMetric(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewMux(MuxConfig{Registry: reg}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	var bi BuildInfo
	err = json.NewDecoder(resp.Body).Decode(&bi)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(bi.GoVersion, "go") {
		t.Fatalf("go_version = %q", bi.GoVersion)
	}
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "switchmon_build_info{") {
		t.Fatalf("/metrics missing build info series:\n%s", body)
	}
}

// TestRuntimeMetricsRefreshed checks the runtime series read the
// runtime: the goroutine and heap gauges are positive, the GC cycle
// counter has seen a forced collection, and a /metrics collect observes
// its pause once.
func TestRuntimeMetricsRefreshed(t *testing.T) {
	reg := obs.NewRegistry()
	rc := newRuntimeCollector(reg)
	runtime.GC()
	rc.collect()
	if v := reg.Gauge("switchmon_go_goroutines", "").Value(); v < 1 {
		t.Fatalf("goroutines = %d, want >= 1", v)
	}
	if v := reg.Gauge("switchmon_go_heap_alloc_bytes", "").Value(); v <= 0 {
		t.Fatalf("heap alloc = %d, want positive", v)
	}
	if v, alloc := reg.Gauge("switchmon_go_heap_sys_bytes", "").Value(), reg.Gauge("switchmon_go_heap_alloc_bytes", "").Value(); v < alloc {
		t.Fatalf("heap sys = %d, below heap alloc %d", v, alloc)
	}
	cycles := reg.Counter("switchmon_go_gc_cycles_total", "")
	if cycles.Value() == 0 {
		t.Fatal("gc cycles = 0 after a forced GC")
	}
	if rc.gcPauseNs.Count() == 0 {
		t.Fatal("no GC pauses observed after a forced GC")
	}
	// A second collect must not double-count old cycles.
	before := cycles.Value()
	pauses := rc.gcPauseNs.Count()
	rc.collect()
	if cycles.Value() != before || rc.gcPauseNs.Count() != pauses {
		t.Fatal("idle collect re-observed old GC cycles")
	}
	var nilRC *runtimeCollector
	nilRC.collect() // nil-safe: a mux without a registry has no collector
}
