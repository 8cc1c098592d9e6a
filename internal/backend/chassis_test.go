package backend

import (
	"fmt"
	"testing"
)

// BenchmarkStateMechanism times one state transition on each of the
// chassis's state-cost models with the store held at a fixed size: the
// rule table pays a sorted insert and a delete whose memmove grows with
// the table (the flow-mod path Sec. 3.3 says cannot run at line rate),
// the register file one constant-time write. This is E4's raw-mechanism
// table; BenchmarkE4StateUpdate in the repository root times the same
// models end to end through the monitor.
func BenchmarkStateMechanism(b *testing.B) {
	mechanisms := []struct {
		name string
		mk   func() stateCost
	}{
		{"rule-table", func() stateCost { return &ruleState{} }},
		{"registers", func() stateCost { return &registerState{} }},
	}
	for _, size := range []int{128, 1024, 8192, 65536} {
		for _, m := range mechanisms {
			b.Run(fmt.Sprintf("size=%d/%s", size, m.name), func(b *testing.B) {
				cost := m.mk()
				cost.transitions(size, size) // fill to the target size
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cost.transitions(1, size)
				}
			})
		}
	}
}
