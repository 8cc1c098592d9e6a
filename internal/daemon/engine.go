package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/obs"
	"switchmon/internal/obs/export"
	"switchmon/internal/obs/tracer"
	"switchmon/internal/property"
)

var provLevels = map[string]core.ProvLevel{
	"none": core.ProvNone, "limited": core.ProvLimited, "full": core.ProvFull,
}

// EngineConfig builds the core.Config the RegisterEngine flags select.
// The telemetry registry and violation ring exist only with
// -metrics-addr, the tracer only with -trace-sample; everywhere
// downstream a nil one is the documented off switch, and callers reach
// them as cfg.Metrics, cfg.Violations and cfg.Tracer. OnViolation prints
// each violation to out: rendered for people, or with -json as one
// TraceRecord object per line — the shape /violations serves.
func (f *Flags) EngineConfig(out io.Writer) (core.Config, error) {
	prov, ok := provLevels[f.Provenance]
	if !ok {
		return core.Config{}, fmt.Errorf("unknown provenance level %q", f.Provenance)
	}
	quotas, err := core.ParseTenantQuotas(f.TenantQuotas)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Provenance:     prov,
		StateTopK:      f.StateTopK,
		StateSample:    f.StateSample,
		StateWatermark: f.StateWatermark,
		TenantQuotas:   quotas,
	}
	if f.MetricsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		cfg.Violations = obs.NewRing(f.ViolationRing)
	}
	if f.TraceSample > 0 {
		cfg.Tracer = tracer.New(tracer.Config{SampleN: f.TraceSample, Ring: f.TraceRing, Metrics: cfg.Metrics})
	}
	enc := json.NewEncoder(out)
	var mu sync.Mutex // shard goroutines and timer callbacks report concurrently
	cfg.OnViolation = func(v *core.Violation) {
		mu.Lock()
		defer mu.Unlock()
		if f.JSON {
			rec := v.TraceRecord()
			rec.Bindings = obs.RenderBindings(rec.Values)
			_ = enc.Encode(rec) // a failing stdout has nowhere to be reported
			return
		}
		fmt.Fprintln(out, v)
	}
	return cfg, nil
}

// LoadProperties parses the startup set: the -catalog names, then the
// -props file's definitions, in that order. The daemon applies it whole
// (federation.NewPropertySet).
func (f *Flags) LoadProperties() ([]*property.Property, error) {
	var props []*property.Property
	if f.Catalog != "" {
		for _, name := range strings.Split(f.Catalog, ",") {
			name = strings.TrimSpace(name)
			p := property.CatalogByName(property.DefaultParams(), name)
			if p == nil {
				return nil, fmt.Errorf("unknown catalogue property %q (use switchmon -list)", name)
			}
			props = append(props, p)
		}
	}
	if f.Props != "" {
		src, err := os.ReadFile(f.Props)
		if err != nil {
			return nil, err
		}
		parsed, err := property.ParseAll(string(src))
		if err != nil {
			return nil, err
		}
		props = append(props, parsed...)
	}
	return props, nil
}

// MuxConfig wires export.NewMux's data sources to an engine built from
// cfg: /metrics, /violations and /trace read cfg's telemetry; /healthz
// degrades whenever the soundness ledger is non-empty, serving the
// per-property unsound-since marks as the detail; /state is the engine's
// live accounting. /properties is the daemon's property set
// (federation.PropertySet.Edits), which the daemon adds itself.
func MuxConfig(cfg core.Config, eng core.Engine) export.MuxConfig {
	return export.MuxConfig{
		Registry: cfg.Metrics, Ring: cfg.Violations, Tracer: cfg.Tracer,
		Health: func() (bool, any) {
			marks := eng.Ledger().Snapshot()
			return len(marks) == 0, marks
		},
		State: func() any { return eng.StateReport() },
	}
}

// ReportSummary prints the exit report's engine line.
func ReportSummary(w io.Writer, st core.Stats) {
	fmt.Fprintf(w, "\nevents=%d instances_created=%d advanced=%d discharged=%d expired=%d violations=%d\n",
		st.Events, st.Created, st.Advanced, st.Discharged, st.Expired, st.Violations)
}

// ReportLedger prints the exit report's degradation ledger, nothing when
// every verdict is still complete. streamSeq adds what is exact only
// when the engine saw one stream in its own order — the shed and
// quarantine totals and each mark's engine sequence number; a collector
// merging many datapaths' sequence spaces leaves them out.
func ReportLedger(w io.Writer, eng core.Engine, st core.Stats, streamSeq bool) {
	marks := eng.Ledger().Snapshot()
	if len(marks) == 0 {
		return
	}
	if streamSeq {
		ies := "ies"
		if len(marks) == 1 {
			ies = "y"
		}
		fmt.Fprintf(w, "degradation ledger: %d propert%s unsound (shed=%d quarantined=%d)\n",
			len(marks), ies, st.ShedEvents, st.QuarantinedProperties)
	} else {
		fmt.Fprintf(w, "degradation ledger: %d unsound\n", len(marks))
	}
	for _, m := range marks {
		since := m.SinceTime.Format(time.RFC3339)
		if streamSeq {
			since = fmt.Sprintf("seq=%d (%s)", m.SinceSeq, since)
		}
		fmt.Fprintf(w, "  %-26s %-14s since %s lost=%d %s\n", m.Property, m.Reason, since, m.Events, m.Detail)
	}
}
