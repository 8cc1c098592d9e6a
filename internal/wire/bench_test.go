package wire

import (
	"bytes"
	"testing"
	"time"

	"switchmon/internal/core"
)

// BenchmarkBatchCodec times the batch codec on a 256-event batch, the
// exporter's default batch cap: AppendBatch into a warm buffer, and a
// pooled Reader over in-memory frames. Both report ns/event, the figure
// bench's wire.encode_ns_per_event and wire.decode_ns_per_event probes
// measure on the fabric stream.
func BenchmarkBatchCodec(b *testing.B) {
	const n = 256
	evs := testEvents(b)
	batch := &Batch{FirstSeq: 1}
	for i := 0; i < n; i++ {
		e := evs[i%len(evs)]
		e.PacketID += core.PacketID(i)
		e.Time = e.Time.Add(time.Duration(i) * time.Microsecond)
		batch.Events = append(batch.Events, e)
	}
	enc, err := AppendBatch(nil, batch)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 2*len(enc))
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendBatch(buf[:0], batch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
	})
	b.Run("decode", func(b *testing.B) {
		stream := bytes.Repeat(enc, 64)
		rd := bytes.NewReader(stream)
		r := NewPooledReader(rd)
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rd.Len() == 0 {
				rd.Reset(stream)
			}
			f, err := r.Next()
			if err != nil {
				b.Fatal(err)
			}
			f.(*Batch).Release()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
	})
}
