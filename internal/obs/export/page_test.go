package export

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/obs/histdb"
	"switchmon/internal/obs/slo"
	"switchmon/internal/obs/tracer"
)

// alertRig is an SLO engine over one gauge with a fake clock; each tick
// samples once with the gauge burning on three ticks out of six, so
// ticking keeps recording transitions.
type alertRig struct {
	db   *histdb.DB
	eng  *slo.Engine
	g    *obs.Gauge
	now  time.Time
	step int
}

func newAlertRig() *alertRig {
	reg := obs.NewRegistry()
	a := &alertRig{g: reg.Gauge("g", ""), now: time.Unix(1_700_000_000, 0)}
	a.db = histdb.New(histdb.Config{Registry: reg, SampleEvery: time.Second, Retention: time.Minute,
		Now: func() time.Time { return a.now }})
	a.eng = slo.New(slo.Config{DB: a.db, TransitionRing: 8, Hysteresis: -1, Rules: []slo.Rule{
		{Name: "r", Series: "g", Threshold: 100, Fast: time.Second, Slow: 2 * time.Second},
	}})
	return a
}

func (a *alertRig) tick() {
	a.g.Set(0)
	if a.step%6 < 3 {
		a.g.Set(1000)
	}
	a.step++
	a.now = a.now.Add(time.Second)
	a.db.Tick()
}

func serve(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestPageParamsRejected: the three record streams share one rule for
// ?since and ?limit — a malformed value answers 400 with the uniform
// {"error": ...} shape instead of silently serving everything — and
// /query refuses a since whose nanoseconds overflow int64 (a unix-
// nanosecond value where unix seconds belong) instead of serving every
// point.
func TestPageParamsRejected(t *testing.T) {
	a := newAlertRig()
	a.db.Tick()
	mux := NewMux(MuxConfig{Ring: obs.NewRing(4), Tracer: tracer.New(tracer.Config{SampleN: 1}), Alerts: a.eng, History: a.db})
	for _, path := range []string{
		"/violations?since=notanumber", "/violations?since=-1", "/violations?since=1.5", "/violations?limit=-1", "/violations?limit=x",
		"/trace?since=notanumber", "/trace?since=-1", "/trace?limit=-1", "/trace?limit=2.5",
		"/alerts?since=notanumber", "/alerts?limit=-1",
		"/query?series=*&since=1700000000000000000", "/query?series=*&since=1e300",
		"/query?series=*&since=NaN", "/query?series=*&since=-1",
	} {
		rec := serve(mux, path)
		var e struct {
			Error string `json:"error"`
		}
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("GET %s = %d %q, want 400 with the {\"error\": ...} shape", path, rec.Code, rec.Body.String())
		}
	}
	for _, path := range []string{
		"/violations?since=0&limit=0", "/trace?since=18446744073709551615", "/alerts?since=0&limit=4",
		"/query?series=*&since=1700000000.5", "/query?series=*&since=9223372036",
	} {
		if rec := serve(mux, path); rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d %q, want 200", path, rec.Code, rec.Body.String())
		}
	}
}

// TestPageAgreesWithTotal: a page and the total it reports are read
// together, so while a writer appends, every non-empty unfiltered page
// of /violations and /trace ends at seq total-1, and of /alerts (whose
// seqs count from 1) at seq total.
func TestPageAgreesWithTotal(t *testing.T) {
	ring := obs.NewRing(8)
	tr := tracer.New(tracer.Config{SampleN: 1, Ring: 8})
	a := newAlertRig()
	mux := NewMux(MuxConfig{Ring: ring, Tracer: tr, Alerts: a.eng})
	pid := uint64(0)
	streams := []struct {
		path  string
		write func()
		// newest reads a page's newest seq and its total, ok false for
		// an empty page.
		newest func(rec *httptest.ResponseRecorder) (seq, total uint64, ok bool)
		base   uint64
	}{
		{"/violations", func() { ring.Record(obs.TraceRecord{Property: "p"}) },
			func(rec *httptest.ResponseRecorder) (uint64, uint64, bool) {
				var doc struct {
					Total      uint64            `json:"total"`
					Violations []obs.TraceRecord `json:"violations"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || len(doc.Violations) == 0 {
					return 0, 0, false
				}
				return doc.Violations[len(doc.Violations)-1].Seq, doc.Total, true
			}, 0},
		{"/trace", func() {
			pid++
			sp := tr.Sample(1, pid, 0)
			sp.StampAt(tracer.StageIngress, 1)
			tr.Finish(sp)
		}, func(rec *httptest.ResponseRecorder) (uint64, uint64, bool) {
			total, err := strconv.ParseUint(rec.Header().Get("X-Trace-Total"), 10, 64)
			if err != nil {
				return 0, 0, false
			}
			dec := json.NewDecoder(rec.Body)
			var last tracer.SpanRecord
			n := 0
			for ; dec.More(); n++ {
				if dec.Decode(&last) != nil {
					return 0, 0, false
				}
			}
			return last.Seq, total, n > 0
		}, 0},
		{"/alerts", a.tick, func(rec *httptest.ResponseRecorder) (uint64, uint64, bool) {
			var doc struct {
				Total       uint64           `json:"transitions_total"`
				Transitions []slo.Transition `json:"transitions"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || len(doc.Transitions) == 0 {
				return 0, 0, false
			}
			return doc.Transitions[len(doc.Transitions)-1].Seq, doc.Total, true
		}, 1},
	}
	const pages = 500
	for _, s := range streams {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.write()
				}
			}
		}()
		bad := 0
		var first string
		for read := 0; read < pages; {
			seq, total, ok := s.newest(serve(mux, s.path))
			if !ok {
				continue
			}
			read++
			if seq+1-s.base != total {
				if bad++; bad == 1 {
					first = "newest seq " + strconv.FormatUint(seq, 10) + " with total " + strconv.FormatUint(total, 10)
				}
			}
		}
		close(stop)
		wg.Wait()
		if bad > 0 {
			t.Errorf("%s: %d of %d pages disagree with their total (first: %s)", s.path, bad, pages, first)
		}
	}
}
