package daemon

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/obs/export"
	"switchmon/internal/obs/histdb"
	"switchmon/internal/obs/slo"
)

// Server is a daemon's HTTP endpoint together with the self-monitoring
// tier every endpoint carries: the metrics-history ring behind /query
// and the SLO engine, riding the ring's tick, behind /alerts.
type Server struct {
	History *histdb.DB
	Alerts  *slo.Engine
	ln      net.Listener
	srv     http.Server
}

// NewServer opens addr and builds the history ring and SLO engine the
// RegisterHistory flags select (the built-in rules plus every -slo).
// Exactly one of reg and source feeds the ring: a live registry sampled
// in place, or a snapshot function called once per tick — the
// aggregation tier's merged fleet scrape. Nothing samples or serves
// until Start.
func (f *Flags) NewServer(addr string, reg *obs.Registry, source func() obs.Snapshot) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hist := histdb.New(histdb.Config{Registry: reg, Source: source, SampleEvery: f.SampleEvery, Retention: f.History})
	alerts := slo.New(slo.Config{DB: hist, Rules: append(slo.BuiltinRules(), f.SLO...), Registry: reg})
	return &Server{History: hist, Alerts: alerts, ln: ln}, nil
}

// Start begins sampling and serves h until Close.
func (s *Server) Start(h http.Handler) {
	s.History.Start()
	s.srv.Handler = h
	go func() { _ = s.srv.Serve(s.ln) }() // returns ErrServerClosed at Close
}

// Addr is the address the server listens on (the resolved port when the
// flag asked for :0).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops serving and sampling. A nil Server — a daemon run without
// -metrics-addr — closes as a no-op.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	s.History.Close()
	return err
}

// Serve opens the -metrics-addr introspection endpoint over mc (see
// MuxConfig), which it completes with the history ring and SLO engine.
// mount, when non-nil, adds the daemon's own endpoints to the mux before
// it serves. Without -metrics-addr it returns a nil Server.
func (f *Flags) Serve(mc export.MuxConfig, mount func(*http.ServeMux)) (*Server, error) {
	if f.MetricsAddr == "" {
		return nil, nil
	}
	s, err := f.NewServer(f.MetricsAddr, mc.Registry, nil)
	if err != nil {
		return nil, err
	}
	mc.History, mc.Alerts = s.History, s.Alerts
	mux := export.NewMux(mc)
	if mount != nil {
		mount(mux)
	}
	s.Start(mux)
	fmt.Fprintf(os.Stderr, "metrics: serving on http://%s/metrics\n", s.Addr())
	return s, nil
}

// Main runs a daemon's body and turns its error into the process's exit:
// "name: err" on stderr, status 1.
func Main(name string, run func() error) {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// Wait blocks until SIGINT or SIGTERM arrives or, when hold is positive,
// hold elapses. It returns the signal, nil for an elapsed hold.
func Wait(hold time.Duration) os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var expired <-chan time.Time // nil without a hold: never ready
	if hold > 0 {
		expired = time.After(hold)
	}
	select {
	case s := <-sig:
		return s
	case <-expired:
		return nil
	}
}
