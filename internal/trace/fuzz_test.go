package trace

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/sim"
)

// FuzzTraceRoundTrip is the trace reader's fuzz: no input may panic
// ReadAll, and any input it accepts — the recording Hello, then
// untraced batches contiguous from seq 1 — must survive WriteAll then
// ReadAll with the events unchanged. Every batch goes through the wire
// codec's event walk and the packet codec behind it, so this fuzzes the
// file framing over the link's one event grammar. scripts/check.sh runs
// it as a smoke.
func FuzzTraceRoundTrip(f *testing.F) {
	seed := func(events []core.Event) {
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(FirewallWorkload{Flows: 1, ReturnsPerFlow: 2, ViolationEvery: 2, CloseEvery: 1, Gap: time.Millisecond}.Events(sim.Epoch))
	seed(NATWorkload{Flows: 1, MistranslateEvery: 1, Gap: time.Millisecond}.Events(sim.Epoch))
	seed(sampleEvents(&testing.T{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panicking on it is not
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			t.Fatalf("accepted trace failed to write: %v", err)
		}
		back, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("rewritten trace rejected: %v\n%s", err, buf.Bytes())
		}
		if len(back) == 0 && len(events) == 0 {
			return // nil vs empty slice
		}
		if !reflect.DeepEqual(events, back) {
			t.Fatalf("events changed by WriteAll then ReadAll\nin:  %q\nout: %s", data, buf.Bytes())
		}
	})
}
