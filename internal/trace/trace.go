// Package trace provides (a) the record/replay file format for monitor
// event streams and (b) deterministic workload generators for the
// benchmark experiments — the stand-in for the production traffic the
// paper's authors observed (repro substitution documented in DESIGN.md).
//
// A trace file is the link's own bytes: what an exporter writes on a
// connection to a collector (internal/wire). It opens with a Hello whose
// DPID, features and timestamp are all zero and whose NextSeq is 1, so a
// recording is deterministic and a foreign or stale file fails on the
// Hello's magic or version. Untraced Batch frames follow, their
// sequence numbers contiguous from 1: the wire codec is the one event
// grammar.
package trace

import (
	"fmt"
	"io"

	"switchmon/internal/core"
	"switchmon/internal/sim"
	"switchmon/internal/wire"
)

// fileHello opens every trace file.
var fileHello = wire.Hello{NextSeq: 1}

// batchEvents caps WriteAll's Batch frames, as the exporter's default does.
const batchEvents = 256

// WriteAll writes events as a trace file.
func WriteAll(w io.Writer, events []core.Event) error {
	buf := wire.AppendHello(nil, fileHello)
	for seq := 0; seq < len(events); seq += batchEvents {
		b := wire.Batch{FirstSeq: uint64(seq) + 1, Events: events[seq:min(seq+batchEvents, len(events))]}
		var err error
		if buf, err = wire.AppendBatch(buf, &b); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadAll reads a trace file: the recording Hello, then untraced
// batches contiguous from seq 1; anything else is an error. Event times
// come back in UTC. The batches are never Released: their events, and
// the packets in their arenas, are what ReadAll returns.
func ReadAll(r io.Reader) ([]core.Event, error) {
	wr := wire.NewPooledReader(r)
	f, err := wr.Next()
	if err == nil && f != any(fileHello) {
		err = fmt.Errorf("opens with %T %+v", f, f)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: not a trace file (want the recording hello): %w", err)
	}
	var events []core.Event
	for {
		if f, err = wr.Next(); err == io.EOF {
			return events, nil
		}
		next := uint64(len(events)) + 1
		if err != nil {
			return nil, fmt.Errorf("trace: at seq %d: %w", next, err)
		}
		b, ok := f.(*wire.Batch)
		if !ok || b.Traced || b.FirstSeq != next {
			return nil, fmt.Errorf("trace: at seq %d: read %T, want an untraced batch from there", next, f)
		}
		for _, e := range b.Events {
			e.Time = e.Time.UTC()
			events = append(events, e)
		}
	}
}

// Recorder subscribes to a switch's event stream and collects it.
type Recorder struct{ Events []core.Event }

// Observe is the subscription callback.
func (r *Recorder) Observe(e core.Event) { r.Events = append(r.Events, e) }

// Replay feeds a recorded stream into a handler, advancing the scheduler
// to each event's timestamp so timeout semantics replay faithfully.
func Replay(sched *sim.Scheduler, events []core.Event, handle func(core.Event)) {
	for _, e := range events {
		if e.Time.After(sched.Now()) {
			sched.RunUntil(e.Time)
		}
		handle(e)
	}
}
