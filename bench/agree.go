package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// agreeRow is one end-to-end metric on one workload, measured by two
// interleaved sets of runs of the same binary. If the two sets do not
// agree within the metric's bound, the benchmark could not tell a
// regression of that size from noise, and the bound means nothing.
type agreeRow struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Unit     string   `json:"unit"`
	Bound    float64  `json:"bound"`
	A        setStats `json:"a"`
	B        setStats `json:"b"`
	// Worse is by how much of A's median B's median is worse (negative:
	// better); Agree is Worse ≤ Bound in both directions.
	Worse float64 `json:"worse_frac"`
	Agree bool    `json:"agree"`
	// Steady says both sets' interquartile spread is within the bound.
	Steady  bool     `json:"steady"`
	Runs    int      `json:"runs_per_set"`
	Seed    int64    `json:"first_seed"`
	Seconds float64  `json:"seconds"`
	Env     envStamp `json:"env"`
}

type setStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median.
	Spread float64 `json:"spread"`
}

func statsOf(xs []float64) setStats {
	q1, q2, q3 := quartiles(xs)
	return setStats{Median: q2, Q1: q1, Q3: q3, Spread: (q3 - q1) / q2}
}

// runAgree runs 2n full runs of each workload, alternating between set
// A and set B, each run in a fresh process of this same binary (run i
// of either set uses seed+i), and prints one JSON row per end-to-end
// metric and workload.
func runAgree(ws []workloadDef, o options, n int, env envStamp) {
	self, err := os.Executable()
	must(err)
	ok := true
	for _, w := range ws {
		vals := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed + int64(i)),
					"-seconds", fmt.Sprint(o.seconds), "-trace", "0"}
				if o.smoke {
					args = append(args, "-smoke")
				}
				outBytes, err := exec.Command(self, args...).Output()
				must(err)
				lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
				var res result
				must(json.Unmarshal([]byte(lines[len(lines)-1]), &res))
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: verdicts differ from the reference\n", w.Name, o.seed+int64(i))
					ok = false
				}
				for name, m := range res.Metrics {
					vals[set][name] = append(vals[set][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			row := agreeRow{Workload: w.Name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
				A: statsOf(vals[0][d.Name]), B: statsOf(vals[1][d.Name]),
				Runs: n, Seed: o.seed, Seconds: o.seconds, Env: env}
			row.Worse = (row.B.Median - row.A.Median) / row.A.Median
			if d.Better == "higher" {
				row.Worse = -row.Worse
			}
			row.Agree = row.Worse <= d.Bound && row.Worse >= -d.Bound
			row.Steady = row.A.Spread <= d.Bound && row.B.Spread <= d.Bound
			ok = ok && row.Agree
			line, err := json.Marshal(row)
			must(err)
			fmt.Println(string(line))
		}
	}
	if !ok {
		os.Exit(1)
	}
}
