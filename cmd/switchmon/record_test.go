package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSwitchmon runs the command in-process with args on a fresh flag
// set and returns what it printed.
func runSwitchmon(t *testing.T, args ...string) string {
	t.Helper()
	out, err := switchmon(t, args...)
	if err != nil {
		t.Fatalf("switchmon %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// switchmon runs the command in-process with args on a fresh flag set
// and returns what it printed and the error it exits with.
func switchmon(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, argv, cl := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, argv, cl }()
	os.Stdout, os.Args = out, append([]string{"switchmon"}, args...)
	flag.CommandLine = flag.NewFlagSet("switchmon", flag.ContinueOnError)
	runErr := run()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// TestRecordThenReplay: for every demo, replaying what -record wrote
// under the demo's catalogue prints exactly what the live run printed —
// every violation and the final stats line — less the recording notice.
func TestRecordThenReplay(t *testing.T) {
	for demo, catalog := range demoCatalog {
		t.Run(demo, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), demo+".trace")
			live := runSwitchmon(t, "-demo", demo, "-record", file)
			if !strings.Contains(live, "VIOLATION") {
				t.Fatalf("live %s demo reported no violation:\n%s", demo, live)
			}
			var want strings.Builder
			recorded := false
			for _, line := range strings.SplitAfter(live, "\n") {
				if strings.HasPrefix(line, "recorded ") && strings.HasSuffix(line, " events to "+file+"\n") {
					recorded = true
					continue
				}
				want.WriteString(line)
			}
			if !recorded {
				t.Fatalf("live %s demo did not report its recording:\n%s", demo, live)
			}
			if got := runSwitchmon(t, "-trace", file, "-catalog", catalog); got != want.String() {
				t.Errorf("replay differs from the live run\n--- live ---\n%s--- replay ---\n%s", live, got)
			}
		})
	}
}
