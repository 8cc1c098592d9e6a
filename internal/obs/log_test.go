package obs

import (
	"sync"
	"testing"
)

// seqRec is a record that stores the seq it was appended as; the stamp
// writes the seq the log assigns on read beside it, so a test sees both
// and can check they agree.
type seqRec struct{ appended, stamped uint64 }

func newSeqLog(capacity int) *Log[seqRec] {
	return NewLog(capacity, func(r *seqRec, seq uint64) { r.stamped = seq })
}

func fill(l *Log[seqRec], n int) {
	for i := 0; i < n; i++ {
		l.Record(seqRec{appended: uint64(i)})
	}
}

// seqs checks each record's stamp against its stored append position
// and returns the stamped seqs.
func seqs(t *testing.T, recs []seqRec) []uint64 {
	t.Helper()
	out := make([]uint64, len(recs))
	for i, r := range recs {
		if r.stamped != r.appended {
			t.Fatalf("record %d: stamped seq %d, appended as %d", i, r.stamped, r.appended)
		}
		out[i] = r.stamped
	}
	return out
}

func TestLogPage(t *testing.T) {
	l := newSeqLog(4)
	fill(l, 10) // wraps twice: retains seqs 6..9
	cases := []struct {
		name  string
		p     Page
		want  []uint64
		total uint64
	}{
		{"all retained, oldest first", All, []uint64{6, 7, 8, 9}, 10},
		{"since before the oldest: contiguous from the oldest, the gap shows", Page{Since: 2, HasSince: true, Limit: -1}, []uint64{6, 7, 8, 9}, 10},
		{"since inside", Page{Since: 7, HasSince: true, Limit: -1}, []uint64{8, 9}, 10},
		{"since the newest", Page{Since: 9, HasSince: true, Limit: -1}, []uint64{}, 10},
		{"since beyond the newest", Page{Since: 1 << 40, HasSince: true, Limit: -1}, []uint64{}, 10},
		{"since the largest seq", Page{Since: ^uint64(0), HasSince: true, Limit: -1}, []uint64{}, 10},
		{"limit keeps the newest", Page{Limit: 2}, []uint64{8, 9}, 10},
		{"limit 0", Page{Limit: 0}, []uint64{}, 10},
		{"limit beyond retained", Page{Limit: 99}, []uint64{6, 7, 8, 9}, 10},
		{"since then limit", Page{Since: 6, HasSince: true, Limit: 1}, []uint64{9}, 10},
	}
	for _, c := range cases {
		recs, total := l.Page(c.p)
		got := seqs(t, recs)
		if total != c.total || len(got) != len(c.want) || recs == nil {
			t.Fatalf("%s: seqs %v total %d, want %v total %d", c.name, got, total, c.want, c.total)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: seqs %v, want %v", c.name, got, c.want)
			}
		}
	}
}

// Since 0 is a real cursor — "I have seen seq 0" — not the absence of
// one.
func TestLogSinceZeroSkipsSeqZeroOnly(t *testing.T) {
	l := newSeqLog(8)
	fill(l, 3)
	if got := seqs(t, l.Snapshot()); len(got) != 3 || got[0] != 0 {
		t.Fatalf("unfiltered = %v, want 0,1,2", got)
	}
	recs, _ := l.Page(Page{Since: 0, HasSince: true, Limit: -1})
	if got := seqs(t, recs); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("since=0 = %v, want 1,2", got)
	}
}

// Every retained window stays contiguous as eviction moves it: after
// each append the page is exactly the newest min(n, cap) seqs.
func TestLogContiguousAcrossEviction(t *testing.T) {
	const capacity = 5
	l := newSeqLog(capacity)
	for n := 1; n <= 3*capacity+2; n++ {
		l.Record(seqRec{appended: uint64(n - 1)})
		got := seqs(t, l.Snapshot())
		if len(got) != min(n, capacity) || got[len(got)-1] != uint64(n-1) {
			t.Fatalf("after %d appends: %v", n, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[i-1]+1 {
				t.Fatalf("after %d appends: seqs not contiguous: %v", n, got)
			}
		}
	}
}

func TestLogEmptyAndNil(t *testing.T) {
	l := newSeqLog(0) // minimum capacity 1
	if recs, total := l.Page(Page{Since: 3, HasSince: true, Limit: -1}); len(recs) != 0 || recs == nil || total != 0 {
		t.Fatalf("empty log page = %v/%d, want an empty non-nil page", recs, total)
	}
	fill(l, 2)
	if got := seqs(t, l.Snapshot()); len(got) != 1 || got[0] != 1 {
		t.Fatalf("capacity-1 log = %v, want seq 1", got)
	}
	var nl *Log[seqRec]
	nl.Record(seqRec{})
	if recs, total := nl.Page(All); recs != nil || total != 0 || nl.Total() != 0 || nl.Snapshot() != nil {
		t.Fatal("nil log retained something")
	}
}

// A page and its total come from one critical section: with a writer
// appending concurrently, the newest record of an unfiltered page is
// always seq total-1.
func TestLogPageAgreesWithTotal(t *testing.T) {
	l := newSeqLog(16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fill(l, 20000)
	}()
	for l.Total() < 20000 {
		recs, total := l.Page(All)
		if n := len(recs); n > 0 && recs[n-1].stamped+1 != total {
			t.Errorf("newest seq %d with total %d", recs[n-1].stamped, total)
			break
		}
	}
	wg.Wait()
}
