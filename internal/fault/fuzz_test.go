package fault

import "testing"

// FuzzParseSpec is the -fault grammar's fixed point: any spec ParseSpec
// accepts prints, through String, to a spec that parses back to the
// same value — what an exit report or an error message echoes is the
// fault that ran. scripts/check.sh runs it as a smoke.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"drop=0.01,dup=0.001,seed=7",
		"reorder=0.1,delay=5ms,seed=42",
		"panic-shard=2@100",
		"stall-shard=1@50,stall=20ms",
		"none",
		"",
		// A NaN probability once passed the [0,1] check and printed as
		// nothing; a zero stall printed as nothing and re-parsed to the
		// default.
		"drop=NaN",
		"dup=nan",
		"reorder=NaN",
		"stall=0",
		"stall-shard=0@1,stall=0s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		back, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) prints as %q, which does not parse: %v", s, sp.String(), err)
		}
		if back != sp {
			t.Fatalf("ParseSpec(%q) = %#v prints as %q, which parses to %#v", s, sp, sp.String(), back)
		}
	})
}
