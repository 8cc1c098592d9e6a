package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// TestFlagSurfaceGolden pins collector's flag surface — every name, default
// and usage string — to testdata/flags.golden: the -h output of the last
// commit before the flags moved into internal/daemon, minus its "Usage
// of" line. A flag added on purpose updates the golden in the same
// change.
func TestFlagSurfaceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("collector", flag.ContinueOnError)
	var got bytes.Buffer
	fs.SetOutput(&got)
	new(options).register(fs)
	fs.PrintDefaults()
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("flag surface differs from testdata/flags.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
