// Package slo is the monitor's judgment: a declarative rule engine
// that watches histdb series through multi-window burn rates and
// drives an ok → warning → critical → resolved alert state machine
// with hysteresis — the SRE-workbook shape (a fast window catches the
// page-worthy spike, a slow window proves it is sustained) applied to
// the monitor's own health series.
//
// Each rule names a '|'-separated glob over histdb keys, a threshold,
// and a fast window (the slow window defaults to 10x). Every sample
// tick the engine judges each matching series against both of its own
// windows and takes the worst single-series verdict — two different
// series each hot in only one window never combine into a critical no
// single series earned:
//
//   - both windows at or over threshold  -> critical
//   - exactly one window over            -> warning
//   - every series under threshold*(1-hysteresis) in both windows
//     -> resolved (ok)
//
// Critical is sticky: it clears only through the hysteresis band, so
// an alert cannot flap across the threshold line. Evaluation runs on
// histdb's tick hook — alert cadence follows sample cadence — and a
// steady-state evaluation (no transitions, no new series) performs no
// allocations, so the sampler's zero-alloc budget survives with the
// engine attached.
//
// Built-in rules cover the monitor's product metrics: detection-
// latency p99, unsound property count, shard/tenant shed rate,
// exporter wire-loss rate, and fleet reachability (the aggregation
// tier's members_unreachable gauge, so a member going dark is itself
// an alert). Custom rules arrive via the repeatable -slo flag
// (RuleList) as name:series:threshold:window.
package slo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"switchmon/internal/obs"
	"switchmon/internal/obs/histdb"
)

// State is one alert state.
type State uint8

// The alert states. Resolved is a transition edge, not a resting
// state: a rule that clears records a transition to "resolved" and
// rests at ok.
const (
	OK State = iota
	Warning
	Critical
)

// String names the state for JSON and dashboards.
func (s State) String() string {
	switch s {
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	default:
		return "ok"
	}
}

// Rule is one SLO: a glob over histdb series keys, a threshold the
// windowed averages are compared against ("at or above is burning"),
// and the two burn windows.
type Rule struct {
	// Name identifies the rule in /alerts and metrics labels.
	Name string
	// Series is a '|'-separated glob list over histdb keys (see
	// histdb.MatchGlob). The worst matching series drives the rule.
	Series string
	// Threshold is the burn line, in the series' native unit
	// (events/sec for counter rates, the raw level for gauges,
	// nanoseconds for histogram quantile series).
	Threshold float64
	// Fast is the fast burn window (default 1m).
	Fast time.Duration
	// Slow is the slow burn window (default 10x Fast).
	Slow time.Duration
}

// normalize fills a rule's defaulted fields.
func (r Rule) normalize() Rule {
	if r.Fast <= 0 {
		r.Fast = time.Minute
	}
	if r.Slow <= 0 {
		r.Slow = 10 * r.Fast
	}
	return r
}

// ParseRule parses the -slo grammar: name:series:threshold:window.
// The series glob may itself contain ':' — the threshold and window
// are taken from the right. Window is the fast window; the slow
// window is 10x.
func ParseRule(s string) (Rule, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 4 {
		return Rule{}, fmt.Errorf("slo rule %q: want name:series:threshold:window", s)
	}
	name := parts[0]
	window := parts[len(parts)-1]
	threshold := parts[len(parts)-2]
	series := strings.Join(parts[1:len(parts)-2], ":")
	if name == "" || series == "" {
		return Rule{}, fmt.Errorf("slo rule %q: empty name or series", s)
	}
	th, err := strconv.ParseFloat(threshold, 64)
	if err != nil {
		return Rule{}, fmt.Errorf("slo rule %q: bad threshold %q: %v", s, threshold, err)
	}
	if math.IsNaN(th) || math.IsInf(th, 0) {
		// NaN and +Inf never fire, -Inf always does.
		return Rule{}, fmt.Errorf("slo rule %q: threshold %q is not finite", s, threshold)
	}
	w, err := time.ParseDuration(window)
	if err != nil || w <= 0 {
		return Rule{}, fmt.Errorf("slo rule %q: bad window %q", s, window)
	}
	return Rule{Name: name, Series: series, Threshold: th, Fast: w}, nil
}

// RuleList is a repeatable -slo flag value: each occurrence parses one
// name:series:threshold:window rule.
type RuleList []Rule

// String renders the accumulated rules (flag.Value).
func (rl *RuleList) String() string {
	var b strings.Builder
	for i, r := range *rl {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%s:%g:%s", r.Name, r.Series, r.Threshold, r.Fast)
	}
	return b.String()
}

// Set parses one rule and appends it (flag.Value).
func (rl *RuleList) Set(s string) error {
	r, err := ParseRule(s)
	if err != nil {
		return err
	}
	*rl = append(*rl, r)
	return nil
}

// BuiltinRules returns the default rule set covering the monitor's
// product metrics. The globs deliberately match both member-scope and
// fleet-scope (switchmon_fleet_*) names, so the same set serves the
// daemons and the aggregation tier; a rule whose glob matches nothing
// simply rests at ok.
func BuiltinRules() []Rule {
	return []Rule{
		// Detection latency: the paper's product metric. p99 of the
		// windowed end-to-end detection latency above 50ms is burning.
		{Name: "detection-latency-p99", Series: "switchmon_*trace_detection_latency_ns_p99*", Threshold: 50e6, Fast: time.Minute},
		// Soundness: any property unsound for a sustained window.
		{Name: "unsound-properties", Series: "switchmon_*monitor_unsound_properties*", Threshold: 1, Fast: time.Minute},
		// Shard-queue and tenant shedding: events dropped into the
		// ledger instead of evaluated.
		{Name: "shed-rate", Series: "switchmon_*shed_events_total*|switchmon_*tenant_shed_total*", Threshold: 100, Fast: time.Minute},
		// Exporter replay/loss: sequence gaps the collector had to
		// write off as wire loss.
		{Name: "wire-loss-rate", Series: "switchmon_*wire_loss_events_total*|switchmon_*collector_gap_events_total*", Threshold: 1, Fast: time.Minute},
		// Fleet reachability (aggregation tier): a member going dark is
		// itself an alert.
		{Name: "fleet-unreachable", Series: "switchmon_fleet_members_unreachable*", Threshold: 1, Fast: time.Minute},
	}
}

// Transition is one recorded state-machine edge, sequence-numbered
// contiguously like /violations records.
type Transition struct {
	// Seq is the contiguous transition sequence number, from 1.
	Seq uint64 `json:"seq"`
	// UnixNS stamps the evaluating tick.
	UnixNS int64 `json:"unix_ns"`
	// Rule names the rule that moved.
	Rule string `json:"rule"`
	// From and To are the edge ("resolved" is the To of a clear).
	From string `json:"from"`
	To   string `json:"to"`
	// Value is the fast-window average at the transition.
	Value float64 `json:"value"`
	// Threshold is the rule's burn line.
	Threshold float64 `json:"threshold"`
	// Series is the worst-offender key that drove the evaluation.
	Series string `json:"series,omitempty"`
}

// ActiveAlert is one rule's current status in /alerts.
type ActiveAlert struct {
	// Rule names the rule.
	Rule string `json:"rule"`
	// State is "ok", "warning", or "critical".
	State string `json:"state"`
	// SinceUnixNS stamps the last transition into the current state
	// (0 = never transitioned).
	SinceUnixNS int64 `json:"since_unix_ns,omitempty"`
	// Series is the worst-offender key at the last evaluation.
	Series string `json:"series,omitempty"`
	// Value and SlowValue are the fast/slow-window averages at the
	// last evaluation (0 when the window held no data).
	Value     float64 `json:"value"`
	SlowValue float64 `json:"slow_value"`
	// Samples counts fast-window samples behind Value.
	Samples int `json:"samples"`
	// Threshold is the rule's burn line.
	Threshold float64 `json:"threshold"`
	// FastNS and SlowNS are the burn windows in nanoseconds.
	FastNS int64 `json:"fast_window_ns"`
	SlowNS int64 `json:"slow_window_ns"`
}

// ruleState is one rule's live evaluation state.
type ruleState struct {
	rule    Rule
	handles []histdb.Handle
	state   State
	sinceNS int64
	// last evaluation, cached for Alerts():
	fastAvg  float64
	slowAvg  float64
	samples  int
	worst    histdb.Handle
	hasWorst bool

	stateGauge *obs.Gauge
}

// Config parameterizes an Engine.
type Config struct {
	// DB is the histdb the rules read; the engine registers itself on
	// its tick hook.
	DB *histdb.DB
	// Rules is the full rule set (typically BuiltinRules plus the
	// parsed -slo RuleList).
	Rules []Rule
	// Registry, when set, receives the switchmon_alerts_active and
	// switchmon_alert_state gauges and the transition counter.
	Registry *obs.Registry
	// TransitionRing bounds the retained transitions (default 256).
	TransitionRing int
	// Hysteresis widens the clear band: an alert resolves only when
	// both windows fall below threshold*(1-Hysteresis). 0 means the
	// default 0.1; negative disables hysteresis entirely (an exact-
	// threshold clear band).
	Hysteresis float64
}

// Engine evaluates the rule set on every histdb tick. All exported
// methods are safe for concurrent use.
type Engine struct {
	mu    sync.Mutex
	db    *histdb.DB
	rules []*ruleState
	hyst  float64

	tGen     uint64 // db track generation at last glob resolution
	resolved bool   // globs resolved at least once

	log *obs.Log[Transition]

	warnGauge  *obs.Gauge
	critGauge  *obs.Gauge
	transTotal *obs.Counter
}

// New builds the engine and attaches it to the DB's tick hook, so
// evaluation runs after every sample with no second timer.
func New(cfg Config) *Engine {
	if cfg.TransitionRing <= 0 {
		cfg.TransitionRing = 256
	}
	switch {
	case cfg.Hysteresis < 0:
		cfg.Hysteresis = 0 // exact-threshold clear band
	case cfg.Hysteresis == 0 || cfg.Hysteresis >= 1:
		cfg.Hysteresis = 0.1
	}
	e := &Engine{
		db:   cfg.DB,
		hyst: cfg.Hysteresis,
		// The log numbers from 0; Transition.Seq is documented from 1.
		log: obs.NewLog(cfg.TransitionRing, func(t *Transition, seq uint64) { t.Seq = seq + 1 }),
	}
	if reg := cfg.Registry; reg != nil {
		e.warnGauge = reg.Gauge("switchmon_alerts_active", "SLO rules currently firing, by severity.", obs.L("severity", "warning"))
		e.critGauge = reg.Gauge("switchmon_alerts_active", "SLO rules currently firing, by severity.", obs.L("severity", "critical"))
		e.transTotal = reg.Counter("switchmon_alert_transitions_total", "Alert state-machine transitions recorded.")
	}
	for _, r := range cfg.Rules {
		rs := &ruleState{rule: r.normalize()}
		if reg := cfg.Registry; reg != nil {
			rs.stateGauge = reg.Gauge("switchmon_alert_state", "Rule state: 0 ok, 1 warning, 2 critical.", obs.L("rule", r.Name))
		}
		e.rules = append(e.rules, rs)
	}
	if e.db != nil {
		e.db.OnTick(e.Evaluate)
	}
	return e
}

// Evaluate runs one evaluation pass against the DB at the given time.
// It is normally driven by the DB's tick hook; tests may call it
// directly. A pass with no transitions and no new series allocates
// nothing.
func (e *Engine) Evaluate(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g := e.db.TrackGen(); g != e.tGen || !e.resolved {
		for _, rs := range e.rules {
			rs.handles = e.db.ResolveGlob(rs.rule.Series)
		}
		e.tGen, e.resolved = g, true
	}
	nowNS := now.UnixNano()
	warn, crit := int64(0), int64(0)
	for _, rs := range e.rules {
		r := rs.rule
		clearLine := r.Threshold * (1 - e.hyst)
		// Judge each series against both of its own windows; the worst
		// single-series verdict drives the rule. Mixing the worst fast
		// average from one series with the worst slow average from
		// another would manufacture a critical no single series earned.
		worstSev := -1 // -1: no series had data in either window
		var worst histdb.Handle
		fastAvg, slowAvg := 0.0, 0.0
		fastN := 0
		allClear := true
		for _, h := range rs.handles {
			fa, fn := e.db.WindowAvg(h, r.Fast)
			sa, sn := e.db.WindowAvg(h, r.Slow)
			if fn == 0 && sn == 0 {
				continue
			}
			fastHot := fn > 0 && fa >= r.Threshold
			slowHot := sn > 0 && sa >= r.Threshold
			sev := 0
			if fastHot && slowHot {
				sev = 2
			} else if fastHot || slowHot {
				sev = 1
			}
			if (fn > 0 && fa >= clearLine) || (sn > 0 && sa >= clearLine) {
				allClear = false
			}
			if sev > worstSev || (sev == worstSev && fa > fastAvg) {
				worstSev = sev
				fastAvg, slowAvg, fastN = fa, sa, fn
				worst = h
			}
		}
		hasWorst := worstSev >= 0
		rs.fastAvg, rs.slowAvg, rs.samples = fastAvg, slowAvg, fastN
		rs.worst, rs.hasWorst = worst, hasWorst

		if !hasWorst {
			// No evidence either way: hold the current state.
			rs.apply(&warn, &crit)
			continue
		}
		next := rs.state
		to := ""
		switch rs.state {
		case OK:
			if worstSev == 2 {
				next, to = Critical, "critical"
			} else if worstSev == 1 {
				next, to = Warning, "warning"
			}
		case Warning:
			if worstSev == 2 {
				next, to = Critical, "critical"
			} else if allClear {
				next, to = OK, "resolved"
			}
		case Critical:
			// Sticky: clears only when every series with data is
			// through the hysteresis band in both windows.
			if allClear {
				next, to = OK, "resolved"
			}
		}
		if to != "" {
			e.log.Record(Transition{
				UnixNS: nowNS, Rule: r.Name,
				From: rs.state.String(), To: to,
				Value: fastAvg, Threshold: r.Threshold, Series: worst.Key(),
			})
			e.transTotal.Inc()
			rs.state = next
			rs.sinceNS = nowNS
		}
		rs.apply(&warn, &crit)
	}
	e.warnGauge.Set(warn)
	e.critGauge.Set(crit)
}

// apply folds the rule's state into the severity tallies and its
// state gauge. Called with e.mu held.
func (rs *ruleState) apply(warn, crit *int64) {
	switch rs.state {
	case Warning:
		*warn++
	case Critical:
		*crit++
	}
	rs.stateGauge.Set(int64(rs.state))
}

// Alerts reports every rule's current status, in rule order.
func (e *Engine) Alerts() []ActiveAlert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ActiveAlert, 0, len(e.rules))
	for _, rs := range e.rules {
		a := ActiveAlert{
			Rule:        rs.rule.Name,
			State:       rs.state.String(),
			SinceUnixNS: rs.sinceNS,
			Value:       rs.fastAvg,
			SlowValue:   rs.slowAvg,
			Samples:     rs.samples,
			Threshold:   rs.rule.Threshold,
			FastNS:      int64(rs.rule.Fast),
			SlowNS:      int64(rs.rule.Slow),
		}
		if rs.hasWorst {
			a.Series = rs.worst.Key()
		}
		out = append(out, a)
	}
	return out
}

// Degraded reports the rules currently in warning or critical — the
// /healthz detail contribution. Empty means fully clear.
func (e *Engine) Degraded() []ActiveAlert {
	all := e.Alerts()
	out := all[:0]
	for _, a := range all {
		if a.State != "ok" {
			out = append(out, a)
		}
	}
	return out
}

// Total reports the number of transitions ever recorded.
func (e *Engine) Total() uint64 { return e.log.Total() }

// Transitions returns the retained transitions, oldest first.
func (e *Engine) Transitions() []Transition { return e.log.Snapshot() }

// Page returns the transitions p selects, oldest first, with the
// all-time total read in the same critical section. p.Since is a
// Transition.Seq, so it counts from 1 like the transitions do.
func (e *Engine) Page(p obs.Page) ([]Transition, uint64) {
	if p.HasSince {
		// Seq s is log seq s-1, so Seq > s is log seq > s-1, and since=0
		// keeps every transition.
		p.HasSince = p.Since > 0
		p.Since--
	}
	return e.log.Page(p)
}
