package collector

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"switchmon/internal/core"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/raceon"
	"switchmon/internal/sim"
	"switchmon/internal/wire"
)

// TestCollectorIngestZeroAlloc is the zero-copy pipeline's regression
// gate: in steady state, moving one event from wire bytes into the
// sharded engine — pooled frame decode, sequence accounting, borrowed
// SubmitBatch, shard dispatch, property evaluation — performs zero heap
// allocations. It drives applyBatch directly (no TCP) so the
// measurement is deterministic, but the code under test is exactly the
// serveConn ingest path. Two rows, one per execution model: four shards
// (router, queues, borrowed references released by the last worker) and
// one (run to completion on the reader's goroutine, where the verdict
// exists and the arena is back in the pool when SubmitBatch returns).
func TestCollectorIngestZeroAlloc(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { ingestZeroAlloc(t, shards) })
	}
}

func ingestZeroAlloc(t *testing.T, shards int) {
	macA := packet.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB := packet.MAC{0x02, 0, 0, 0, 0, 0x0b}

	sm := core.NewShardedMonitor(shards, core.Config{})
	defer sm.Close()
	fw := property.CatalogByName(property.DefaultParams(), "firewall-basic")
	if err := sm.AddProperty(fw); err != nil {
		t.Fatal(err)
	}

	// Establish a flow population, then build non-violating return
	// traffic: the steady state is stage-1 index probes on established
	// instances, the engine's allocation-free hot path.
	const flows = 256
	const perBatch = 128
	now := sim.Epoch
	var pid core.PacketID
	var returns []core.Event
	for f := 0; f < flows; f++ {
		src := packet.IPv4FromUint32(0x0a000000 | uint32(f))
		dst := packet.IPv4FromUint32(0xcb007100 | uint32(f))
		open := packet.NewTCP(macA, macB, src, dst, uint16(10000+f), 80, packet.FlagSYN, nil)
		pid++
		sm.Submit(core.Event{Kind: core.KindArrival, Time: now, PacketID: pid, Packet: open, InPort: 1, SwitchID: 1})
		sm.Submit(core.Event{Kind: core.KindEgress, Time: now, PacketID: pid, Packet: open, InPort: 1, OutPort: 2, SwitchID: 1})
		ret := packet.NewTCP(macB, macA, dst, src, 80, uint16(10000+f), packet.FlagACK, nil)
		pid++
		returns = append(returns, core.Event{Kind: core.KindEgress, Time: now, PacketID: pid,
			Packet: ret, InPort: 2, OutPort: 1, SwitchID: 1})
	}
	sm.Drain()

	// Pre-encode the replay stream: contiguous batches starting at seq 1.
	var stream []byte
	seq := uint64(1)
	for at := 0; at < len(returns); at += perBatch {
		end := at + perBatch
		if end > len(returns) {
			end = len(returns)
		}
		enc, err := wire.AppendBatch(nil, &wire.Batch{FirstSeq: seq, Events: returns[at:end]})
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, enc...)
		seq += uint64(end - at)
	}

	c, err := New(Config{Addr: "127.0.0.1:0"}, sm)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.mu.Lock()
	dp := c.dpStateFor(1)
	c.mu.Unlock()

	br := bytes.NewReader(stream)
	r := wire.NewPooledReader(br)
	recvNs := time.Now().UnixNano()
	runOnce := func() {
		if _, err := br.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		// Rewind the sequence space so the replayed batches aren't
		// deduplicated away (white-box: this is what a fresh stream from
		// the same encoded bytes would look like).
		c.mu.Lock()
		dp.nextSeq = 1
		c.mu.Unlock()
		for {
			f, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			b := f.(*wire.Batch)
			if _, ok := c.applyBatch(1, dp, b, 0, recvNs); !ok {
				t.Fatal("applyBatch refused the batch")
			}
			if shards == 1 && b.Events != nil {
				// Release clears the header: the borrow must be over.
				t.Fatal("one shard: the batch's arena was not released by the time SubmitBatch returned")
			}
		}
		// Let the shards drain, as they would between bursts on a real
		// link: that is what returns the borrowed arenas and batch
		// buffers to their pools, making the next burst recycle instead
		// of allocate. (One shard has nothing left to drain.)
		sm.Barrier()
	}

	// Warm every pool: reader buffer, batch arenas (enough for the max
	// number in flight), shard batch buffers, engine scratch.
	for i := 0; i < 5; i++ {
		runOnce()
	}
	sm.Drain()

	applied := sm.Stats().Events
	avg := testing.AllocsPerRun(10, runOnce)
	perEvent := avg / float64(len(returns))
	t.Logf("ingest: %.2f allocs/run over %d events (%.4f/event)", avg, len(returns), perEvent)
	if avg != 0 {
		t.Fatalf("collector ingest allocates %.2f/run (%.4f/event) in steady state, want 0", avg, perEvent)
	}
	// AllocsPerRun(10, …) is one warm-up run plus ten measured.
	if got := sm.Stats().Events - applied; got != 11*uint64(len(returns)) {
		t.Fatalf("engine took in %d events over the measured runs, want %d", got, 11*len(returns))
	}
	if err := sm.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}
