// Command bench is the repository's one repeatable benchmark: four
// seeded workloads, the end-to-end metrics a user of the system sees,
// and — in a second, traced pass — per-layer metrics measured from the
// benchmark's side of every call into a layer. See README.md here for
// the workloads, the metrics and what each layer metric should move.
//
//	go run ./bench -seed 7                     all workloads, end-to-end metrics
//	go run ./bench -trace 1                    all workloads, per-layer metrics
//	go run ./bench -workload fabric-steady -seed 7 -seconds 20 -trace 0
//	go run ./bench -agree 5                    two interleaved sets of 5 runs
//
// The last line of standard output is one JSON object (correct,
// attempted, failed, metrics) for the last workload run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric. BENCHMARK.json at the repository root
// carries the same tables; smoke_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(options) outcome
}

var workloads = []workloadDef{
	{"inline-steady", "single-threaded baseline: core match/advance and obs telemetry do all the work on 8192 open flows; packet, wire, exporter, collector and dataplane do none", runInline},
	{"fabric-steady", "frames through exporter, loopback TCP, collector and a 2-shard engine, half background traffic, open loop at 300k events/s then saturation: the only workload the fabric layers dominate", runFabric},
	{"churn-timeouts", "every request a new identity with replies 500 ms later on a 1-shard engine: instance create, discharge, expiry and timers instead of lookups on a fixed population", runChurn},
	{"onswitch-trio", "the paper's shape, the switch is the monitor: dataplane plus firewall app feeding an inline monitor that carries the three firewall properties with windows and obligations", runOnSwitch},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runSeconds is the timed length of one workload run when -seconds is
// not given; BENCHMARK.json's run_seconds says the same.
const runSeconds = 20

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// detectSamples is how many violations the latency percentiles rest
	// on; printed, not part of the driver's line.
	detectSamples int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toResult(out outcome, defs []metricDef, vals map[string]float64) result {
	res := result{Correct: out.verdictErrors == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}, detectSamples: out.detectSamples}
	// Exactly what was measured goes out: a value no table names has no
	// unit, and a named metric nobody measured is absent — the smoke
	// test fails on either.
	units := map[string]string{}
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	for name, v := range vals {
		res.Metrics[name] = metricValue{v, units[name]}
	}
	return res
}

func printMetrics(title string, res result) {
	fmt.Printf("%s  correct=%v attempted=%d failed=%d detect_samples=%d\n", title, res.Correct, res.Attempted, res.Failed, res.detectSamples)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		// A ratio of a few failed events in millions must not print as 0.
		format := "  %-44s %16.4f %s\n"
		if v := res.Metrics[n].Value; v != 0 && v > -1e-3 && v < 1e-3 {
			format = "  %-44s %16.3e %s\n"
		}
		fmt.Printf(format, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// runOne runs one workload once — untraced for the end-to-end metrics,
// traced for the per-layer ones — and returns the driver's line.
func runOne(w *workloadDef, o options, traced bool) result {
	if !traced {
		out := w.run(o)
		return toResult(out, endToEnd, out.e2e)
	}
	out := runTraced(w, o)
	return toResult(out, perLayer, out.layer)
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "timed length of one workload run")
		trace    = flag.Int("trace", 0, "1: the traced pass, printing per-layer metrics; 0: end-to-end metrics")
		agree    = flag.Int("agree", 0, "run two interleaved sets of N runs and report whether their medians agree within each metric's bound")
		smoke    = flag.Bool("smoke", false, "tiny populations and set-up, for a quick functional check")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-agree n] [-smoke]")
		os.Exit(2)
	}
	run := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		run = []workloadDef{*w}
	}
	o := options{seed: *seed, seconds: *seconds, smoke: *smoke, traceDir: filepath.Join("bench", "out")}
	env := stampEnv()
	stamp, _ := json.Marshal(env)
	fmt.Printf("env %s seed=%d seconds=%g\n", stamp, o.seed, o.seconds)
	if *agree > 0 {
		runAgree(run, o, *agree, env)
		return
	}
	for i := range run {
		res := runOne(&run[i], o, *trace == 1)
		printMetrics(run[i].Name, res)
		line, err := json.Marshal(res)
		must(err)
		fmt.Println(string(line))
	}
}
