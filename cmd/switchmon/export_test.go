package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"switchmon/internal/collector"
	"switchmon/internal/core"
)

// A demo's -export run pins its partition key against the demo's own
// catalog, which is installed before the router is built: -partition
// identity derives its key from that set, and every event the switch
// published reaches the collector under either key.
func TestExportDemoPartitionKey(t *testing.T) {
	for _, partition := range []string{"dpid", "identity"} {
		t.Run(partition, func(t *testing.T) {
			sm := core.NewShardedMonitor(1, core.Config{})
			t.Cleanup(sm.Close)
			col, err := collector.New(collector.Config{Addr: "127.0.0.1:0"}, sm)
			if err != nil {
				t.Fatal(err)
			}
			col.Serve()
			t.Cleanup(col.Close)

			out := runSwitchmon(t, "-demo", "firewall", "-export", col.Addr().String(), "-partition", partition)
			m := regexp.MustCompile(`(?m)^federation: collectors=1 .*\bevents=(\d+) `).FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no federation report for one collector:\n%s", out)
			}
			published, _ := strconv.ParseUint(m[1], 10, 64)
			if st := col.Stats(); published == 0 || st.Events != published {
				t.Fatalf("switch published %d events, collector applied %d", published, st.Events)
			}
		})
	}
}

// -partition is checked with the other flags, -export or not.
func TestUnknownPartitionRefused(t *testing.T) {
	_, err := switchmon(t, "-demo", "firewall", "-partition", "bogus")
	if err == nil || !strings.Contains(err.Error(), "-partition") {
		t.Fatalf("-partition bogus: got error %v, want the flag refused", err)
	}
}
