package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/federation"
	"switchmon/internal/obs/export"
)

// silent listens on a loopback address that accepts connections and
// never answers, and returns it.
func silent(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // read nothing, answer nothing
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestAggregateForwardIsBounded: an aggregation tier that accepts the
// connection and never answers fails a forwarded install or remove
// within federation.EditTimeout, instead of hanging the collector's
// POST or DELETE /properties for good.
func TestAggregateForwardIsBounded(t *testing.T) {
	up := forward("http://" + silent(t) + "/")
	ops := map[string]func() error{
		"install": func() error {
			_, err := up.Install(`property "p" { on arrival "a" { match tcp.syn == 1 } }`, "t")
			return err
		},
		"remove": func() error {
			_, err := up.Remove("p")
			return err
		},
	}
	type result struct {
		name string
		err  error
	}
	done := make(chan result, len(ops))
	start := time.Now()
	for name, op := range ops {
		go func() { done <- result{name, op()} }()
	}
	timeout := time.After(federation.EditTimeout + time.Second)
	for range ops {
		select {
		case r := <-done:
			if r.err == nil {
				t.Fatalf("%s forwarded to a silent aggregator succeeded", r.name)
			}
			t.Logf("%s: %v after %v", r.name, r.err, time.Since(start).Round(time.Millisecond))
		case <-timeout:
			t.Fatalf("a forward to a silent aggregator is still waiting after %v", time.Since(start))
		}
	}
}

// TestAggregateForwardKeepsTheFleetsAnswer: a forwarded install or
// remove the aggregation tier refuses answers the tier's own status on
// the collector's /properties — a 409 or 503 stays one, not a 400 or 404.
func TestAggregateForwardKeepsTheFleetsAnswer(t *testing.T) {
	fleet := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			export.Error(w, http.StatusConflict, "the members hold different startup sets")
			return
		}
		export.Error(w, http.StatusServiceUnavailable, "no member answered")
	}))
	defer fleet.Close()
	h := export.PropertiesHandler(forward(fleet.URL))
	for method, want := range map[string]int{http.MethodPost: http.StatusConflict, http.MethodDelete: http.StatusServiceUnavailable} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(method, "/properties?name=p", strings.NewReader("src")))
		if rec.Code != want {
			t.Errorf("forwarded %s answered %d %s, want the fleet's %d", method, rec.Code, rec.Body, want)
		}
	}
}

// TestAggregateForwardOutlastsAHungMember: with one member that accepts
// and never answers, the aggregation tier's edit spends a whole member
// timeout on its read round before it installs on the member that does
// answer. The forward waits out the edit's worst case, so it answers the
// fleet's edited document instead of failing while the edit lands.
func TestAggregateForwardOutlastsAHungMember(t *testing.T) {
	sm := core.NewShardedMonitor(1, core.Config{})
	t.Cleanup(sm.Close)
	set := federation.NewPropertySet(sm, nil)
	mux := http.NewServeMux()
	federation.RegisterMemberEndpoints(mux, set)
	live := httptest.NewServer(mux)
	t.Cleanup(live.Close)
	agg, err := federation.NewAggregator(federation.AggConfig{Members: []federation.AggMember{
		{Addr: "127.0.0.1:1", Admin: live.URL},
		{Addr: "127.0.0.1:2", Admin: "http://" + silent(t)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	fleet := httptest.NewServer(agg.Mux())
	t.Cleanup(fleet.Close)

	start := time.Now()
	ans, err := forward(fleet.URL).Install(`property "p" { on arrival "a" { match tcp.syn == 1 } }`, "t")
	if err != nil {
		t.Fatalf("forwarded install with a hung member failed after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
	var doc federation.PropertySetDoc
	if raw, ok := ans.(json.RawMessage); !ok || json.Unmarshal(raw, &doc) != nil || doc.Epoch != 1 || len(doc.Props) != 1 {
		t.Fatalf("forwarded install answered %s, want the fleet's document at epoch 1", ans)
	}
	if got := set.Doc(); got.Epoch != 1 || len(got.Props) != 1 {
		t.Fatalf("the answering member holds %+v", got)
	}
}
