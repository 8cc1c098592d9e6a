package property

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"switchmon/internal/packet"
	"switchmon/internal/sim"
)

// genProperty builds a random valid property: random stages with random
// predicates, bindings, windows, guards, disjunctions, counts. Together
// with TestRandomPropertyRoundTrip this gives the grammar property-based
// coverage far beyond the hand-written cases.
func genProperty(rng *rand.Rand, idx int) *Property {
	numericFields := []packet.Field{
		packet.FieldInPort, packet.FieldEthSrc, packet.FieldEthDst,
		packet.FieldIPSrc, packet.FieldIPDst, packet.FieldSrcPort,
		packet.FieldDstPort, packet.FieldIPProto, packet.FieldDHCPXid,
		packet.FieldARPSenderIP, packet.FieldOOBPort,
	}
	strFields := []packet.Field{packet.FieldDNSQName, packet.FieldFTPCommand}
	classes := []EventClass{
		Arrival, Egress, AnyPacket,
	}
	ops := []CmpOp{
		OpEq, OpNe, OpLt,
		OpLe, OpGt, OpGe,
	}

	var bound []Var
	genOperand := func() Operand {
		switch {
		case len(bound) > 0 && rng.Intn(3) == 0:
			return Ref(sim.Choice(rng, bound))
		case rng.Intn(6) == 0:
			n := 1 + rng.Intn(3)
			fs := make([]packet.Field, n)
			for i := range fs {
				fs[i] = sim.Choice(rng, numericFields)
			}
			return HashOf(uint64(1+rng.Intn(16)), uint64(rng.Intn(100)), fs...)
		case rng.Intn(8) == 0:
			return LitStr(fmt.Sprintf("s%d", rng.Intn(100)))
		default:
			return LitNum(uint64(rng.Intn(1 << 16)))
		}
	}
	genPred := func() Pred {
		f := sim.Choice(rng, numericFields)
		if rng.Intn(10) == 0 {
			f = sim.Choice(rng, strFields)
		}
		arg := genOperand()
		op := sim.Choice(rng, ops)
		if arg.Kind == OperandVar && rng.Intn(2) == 0 {
			op = OpEq // keep plenty of index-friendly predicates
		}
		return Pred{Field: f, Op: op, Arg: arg}
	}
	genPreds := func(max int) []Pred {
		n := 1 + rng.Intn(max)
		out := make([]Pred, n)
		for i := range out {
			out[i] = genPred()
		}
		return out
	}

	nStages := 1 + rng.Intn(4)
	stages := make([]Stage, 0, nStages)
	for si := 0; si < nStages; si++ {
		st := Stage{Label: fmt.Sprintf("stage-%d", si), Class: sim.Choice(rng, classes), SamePacketAs: -1}
		st.Preds = genPreds(3)
		// Negative observations: only after stage 0, sometimes.
		if si > 0 && rng.Intn(4) == 0 {
			st.Negative = true
			st.Window = time.Duration(1+rng.Intn(60)) * time.Second
		} else {
			if rng.Intn(3) == 0 {
				st.Window = time.Duration(1+rng.Intn(300)) * time.Second
			}
			counting := rng.Intn(5) == 0
			if counting {
				st.MinCount = 2 + rng.Intn(50)
				if rng.Intn(2) == 0 {
					st.CountDistinct = sim.Choice(rng, numericFields)
				}
			} else {
				// Bindings (not allowed on counting stages).
				for b := 0; b < rng.Intn(3); b++ {
					v := Var(fmt.Sprintf("V%d_%d", si, b))
					st.Binds = append(st.Binds, Binding{
						Var: v, Field: sim.Choice(rng, numericFields),
					})
					bound = append(bound, v)
				}
			}
			// Same-packet identity between packet stages.
			if si > 0 && rng.Intn(5) == 0 && !stages[si-1].Negative &&
				stages[si-1].Class != OutOfBand {
				st.SamePacketAs = si - 1
			}
		}
		if rng.Intn(4) == 0 {
			st.AnyOf = append(st.AnyOf, PredGroup(genPreds(2)))
			if rng.Intn(2) == 0 {
				st.AnyOf = append(st.AnyOf, PredGroup(genPreds(2)))
			}
		}
		if !st.Negative || rng.Intn(2) == 0 {
			for g := 0; g < rng.Intn(2); g++ {
				st.Until = append(st.Until, Guard{
					Class: sim.Choice(rng, classes),
					Preds: genPreds(2),
				})
			}
		}
		stages = append(stages, st)
	}
	return &Property{
		Name:        fmt.Sprintf("fuzz-%d", idx),
		Description: fmt.Sprintf("random property %d", idx),
		Stages:      stages,
	}
}

func TestRandomPropertyRoundTrip(t *testing.T) {
	rng := sim.NewRand(20161109)
	valid := 0
	for i := 0; i < 500; i++ {
		p := genProperty(rng, i)
		if err := p.Validate(); err != nil {
			// The generator can produce forward variable references or
			// other structurally invalid shapes; skip those — the round
			// trip is only defined on valid properties.
			continue
		}
		valid++
		text := Format(p)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("property %d: reparse failed: %v\n%s", i, err, text)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("property %d: round trip changed AST\n%s\norig: %#v\nback: %#v",
				i, text, p, back)
		}
		// Analysis must never panic on valid properties.
		_ = Analyze(p)
	}
	if valid < 200 {
		t.Fatalf("only %d/500 generated properties were valid; generator too weak", valid)
	}
}

func TestRandomPropertyFormatIsStable(t *testing.T) {
	rng := sim.NewRand(7)
	for i := 0; i < 100; i++ {
		p := genProperty(rng, i)
		if p.Validate() != nil {
			continue
		}
		a := Format(p)
		back, err := Parse(a)
		if err != nil {
			t.Fatal(err)
		}
		b := Format(back)
		if a != b {
			t.Fatalf("Format not idempotent:\n%s\nvs\n%s", a, b)
		}
	}
}

// FuzzParse: no input panics the parser, and whatever ParseAll accepts
// formats to text that parses to an equal AST and formats identically.
func FuzzParse(f *testing.F) {
	f.Add(catalogSource)
	for _, s := range []string{"a\tb", "nul\x00", `q\"uote`, `back\\slash`, "bad\xffutf8"} {
		f.Add("property \"" + s + "\" {\n  on arrival \"x\" {\n    match ip.src == 1\n  }\n}\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		props, err := ParseAll(src)
		if err != nil {
			return
		}
		text := FormatAll(props)
		back, err := ParseAll(text)
		if err != nil {
			t.Fatalf("formatted text does not parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(props, back) {
			t.Fatalf("formatted text parses to a different AST\n%s", text)
		}
		if again := FormatAll(back); again != text {
			t.Fatalf("formatting is not a fixed point:\n%s\nvs\n%s", text, again)
		}
	})
}
