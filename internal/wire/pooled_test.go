package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
)

// Batches decoded into arenas that earlier batches released must equal
// the batches that were encoded: a recycled event slab or packet arena
// leaks nothing from the batch it served before. The batches differ in
// length and packet shape so each reuse lands on dirty slabs.
func TestReleasedArenaDecodesMatchEncoded(t *testing.T) {
	evs := testEvents(t)
	batches := []*Batch{
		{FirstSeq: 1, Events: evs},
		{FirstSeq: 6, Events: []core.Event{evs[4], evs[2]}},
		{FirstSeq: 8},
		{FirstSeq: 8, Events: []core.Event{evs[2], evs[0], evs[3], evs[1], evs[4]}},
		{FirstSeq: 13, Events: evs[:1]},
	}
	var stream []byte
	for _, b := range batches {
		stream = append(stream, frameBytes(t, b)...)
	}

	r := NewPooledReader(bytes.NewReader(stream))
	for i := 0; ; i++ {
		f, err := r.Next()
		if err == io.EOF {
			if i != len(batches) {
				t.Fatalf("stream ended after %d of %d batches", i, len(batches))
			}
			break
		}
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		got, want := f.(*Batch), batches[i]
		if got.FirstSeq != want.FirstSeq || len(got.Events) != len(want.Events) {
			t.Fatalf("batch %d: seq %d n %d, want seq %d n %d",
				i, got.FirstSeq, len(got.Events), want.FirstSeq, len(want.Events))
		}
		for k := range want.Events {
			w := want.Events[k]
			w.Time = time.Unix(0, w.Time.UnixNano())
			if w.Packet != nil {
				w.Packet = reDecode(t, w.Packet)
			}
			if !reflect.DeepEqual(got.Events[k], w) {
				t.Fatalf("batch %d event %d:\n got %+v\nwant %+v", i, k, got.Events[k], w)
			}
		}
		// Release AFTER the comparison: the contract is that the events
		// are valid until then, and invalid after.
		got.Release()
	}
}

// reDecode is p as it arrives off the wire: encoded, then decoded.
func reDecode(t *testing.T, p *packet.Packet) *packet.Packet {
	t.Helper()
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := packet.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// Release must be a no-op for batches that own their storage, and
// idempotent for decoded ones.
func TestBatchReleaseSafety(t *testing.T) {
	owned := &Batch{FirstSeq: 1, Events: testEvents(t)}
	owned.Release()
	if owned.Events == nil {
		t.Fatal("Release cleared an owned batch's events")
	}

	enc := frameBytes(t, &Batch{FirstSeq: 1, Events: testEvents(t)})
	r := NewPooledReader(bytes.NewReader(enc))
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	b := f.(*Batch)
	b.Release()
	if b.Events != nil {
		t.Fatal("Release left a pooled batch's events visible")
	}
	b.Release() // second call must not double-Put
}
