package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"switchmon/internal/federation"
	"switchmon/internal/obs/export"
)

// TestAggregateForwardIsBounded: an aggregation tier that accepts the
// connection and never answers fails a forwarded install or remove
// within federation.AdminTimeout, instead of hanging the collector's
// POST or DELETE /properties for good.
func TestAggregateForwardIsBounded(t *testing.T) {
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

	up := forward("http://" + ln.Addr().String() + "/")
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
	timeout := time.After(federation.AdminTimeout + 5*time.Second)
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
