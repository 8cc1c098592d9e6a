package dataplane

import (
	"fmt"
	"testing"

	"switchmon/internal/sim"
)

// BenchmarkStateMechanism times one state transition on each of the
// switch's two state atoms with the store held at a fixed size: the flow
// table pays a sorted Table.Add at an arbitrary priority plus a
// Table.Remove of the oldest rule, whose memmoves grow with the table
// (the flow-mod path Sec. 3.3 says cannot run at line rate); the register
// file one constant-time RegisterFile.Write. This is E4's raw-mechanism
// table; BenchmarkE4StateUpdate in the repository root times the same
// atoms end to end through internal/backend's chassis.
func BenchmarkStateMechanism(b *testing.B) {
	prio := func(seq int) int { return int(uint64(seq) * 2654435761 % 65536) }
	for _, size := range []int{128, 1024, 8192, 65536} {
		b.Run(fmt.Sprintf("size=%d/rule-table", size), func(b *testing.B) {
			t := New("s1", sim.NewScheduler(), 1).Table(0)
			fifo := make([]*Rule, size) // installed rules, oldest at next
			for i := range fifo {
				fifo[i] = t.Add(&Rule{Priority: prio(i)})
			}
			next := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Remove(fifo[next])
				fifo[next] = t.Add(&Rule{Priority: prio(size + i)})
				next = (next + 1) % size
			}
		})
		b.Run(fmt.Sprintf("size=%d/registers", size), func(b *testing.B) {
			rf := NewRegisterFile()
			rf.Define("state", size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rf.Write("state", rf.IndexOf("state", uint64(i)*2654435761), uint64(i))
			}
		})
	}
}
