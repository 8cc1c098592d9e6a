package property

import (
	"strings"
	"testing"
	"time"

	"switchmon/internal/packet"
)

func TestCmpOpCompare(t *testing.T) {
	n1, n2 := packet.Num(1), packet.Num(2)
	s := packet.Str("a")
	cases := []struct {
		op   CmpOp
		a, b packet.Value
		want bool
	}{
		{OpEq, n1, n1, true},
		{OpEq, n1, n2, false},
		{OpEq, n1, s, false},
		{OpNe, n1, n2, true},
		{OpNe, n1, n1, false},
		{OpLt, n1, n2, true},
		{OpLt, n2, n1, false},
		{OpLe, n1, n1, true},
		{OpGt, n2, n1, true},
		{OpGe, n1, n1, true},
		{OpGe, n1, n2, false},
	}
	for _, c := range cases {
		if got := c.op.Compare(c.a, c.b); got != c.want {
			t.Errorf("%v.Compare(%v, %v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestOperandString(t *testing.T) {
	if got := Ref("A").String(); got != "$A" {
		t.Errorf("Ref String = %q", got)
	}
	if got := LitNum(7).String(); got != "7" {
		t.Errorf("LitNum String = %q", got)
	}
	if got := LitStr("x").String(); got != `"x"` {
		t.Errorf("LitStr String = %q", got)
	}
	h := HashOf(4, 10, packet.FieldIPSrc, packet.FieldIPDst)
	if got := h.String(); !strings.Contains(got, "hash(ip.src, ip.dst") {
		t.Errorf("HashOf String = %q", got)
	}
	if !Ref("A").IsVar() || LitNum(1).IsVar() {
		t.Error("IsVar misreports")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		prop *Property
		want string
	}{
		{
			"empty name",
			&Property{},
			"empty name",
		},
		{
			"no stages",
			&Property{Name: "x"},
			"no observation stages",
		},
		{
			"unbound variable",
			&Property{Name: "x", Stages: []Stage{{
				Label: "s", SamePacketAs: -1,
				Preds: []Pred{{Field: packet.FieldIPSrc, Op: OpEq, Arg: Ref("A")}},
			}}},
			"before binding",
		},
		{
			"negative first",
			&Property{Name: "x", Stages: []Stage{{
				Label: "s", Negative: true, Window: time.Second, SamePacketAs: -1,
			}}},
			"begin with a negative",
		},
		{
			"negative without window",
			&Property{Name: "x", Stages: []Stage{
				{Label: "a", SamePacketAs: -1},
				{Label: "s", Negative: true, SamePacketAs: -1},
			}},
			"without a window",
		},
		{
			"negative with binds",
			&Property{Name: "x", Stages: []Stage{
				{Label: "a", SamePacketAs: -1},
				{Label: "s", Negative: true, Window: time.Second, SamePacketAs: -1,
					Binds: []Binding{{Var: "V", Field: packet.FieldIPSrc}}},
			}},
			"cannot bind",
		},
		{
			"same-packet forward reference",
			&Property{Name: "x", Stages: []Stage{
				{Label: "a", SamePacketAs: 0},
			}},
			"not earlier",
		},
		{
			"same-packet to oob",
			&Property{Name: "x", Stages: []Stage{
				{Label: "a", Class: OutOfBand, SamePacketAs: -1},
				{Label: "b", SamePacketAs: 0},
			}},
			"non-packet stage",
		},
		{
			"oob stage with same-packet",
			&Property{Name: "x", Stages: []Stage{
				{Label: "a", SamePacketAs: -1},
				{Label: "b", Class: OutOfBand, SamePacketAs: 0},
			}},
			"out-of-band stage",
		},
		{
			"bad field in pred",
			&Property{Name: "x", Stages: []Stage{{
				Label: "a", SamePacketAs: -1,
				Preds: []Pred{{Field: packet.Field(9999), Op: OpEq, Arg: LitNum(0)}},
			}}},
			"unregistered field",
		},
		{
			"bad field in bind",
			&Property{Name: "x", Stages: []Stage{{
				Label: "a", SamePacketAs: -1,
				Binds: []Binding{{Var: "V", Field: packet.Field(9999)}},
			}}},
			"unregistered field",
		},
		{
			"empty bind var",
			&Property{Name: "x", Stages: []Stage{{
				Label: "a", SamePacketAs: -1,
				Binds: []Binding{{Var: "", Field: packet.FieldIPSrc}},
			}}},
			"empty variable",
		},
		{
			"window and windowvar",
			&Property{Name: "x", Stages: []Stage{
				{Label: "a", SamePacketAs: -1, Binds: []Binding{{Var: "L", Field: packet.FieldDHCPLeaseSecs}}},
				{Label: "b", SamePacketAs: -1, Window: time.Second, WindowVar: "L"},
			}},
			"both Window and WindowVar",
		},
		{
			"unbound windowvar",
			&Property{Name: "x", Stages: []Stage{
				{Label: "a", SamePacketAs: -1},
				{Label: "b", SamePacketAs: -1, WindowVar: "L"},
			}},
			"window variable",
		},
		{
			"empty anyof group",
			&Property{Name: "x", Stages: []Stage{{
				Label: "a", SamePacketAs: -1, AnyOf: []PredGroup{{}},
			}}},
			"empty any-of group",
		},
		{
			"hash zero modulus",
			&Property{Name: "x", Stages: []Stage{{
				Label: "a", SamePacketAs: -1,
				Preds: []Pred{{Field: packet.FieldOutPort, Op: OpNe, Arg: HashOf(0, 0, packet.FieldIPSrc)}},
			}}},
			"zero modulus",
		},
		{
			"hash no fields",
			&Property{Name: "x", Stages: []Stage{{
				Label: "a", SamePacketAs: -1,
				Preds: []Pred{{Field: packet.FieldOutPort, Op: OpNe, Arg: HashOf(4, 0)}},
			}}},
			"without fields",
		},
		{
			"unbound guard variable",
			&Property{Name: "x", Stages: []Stage{{
				Label: "a", SamePacketAs: -1,
				Until: []Guard{{Class: Arrival, Preds: []Pred{{Field: packet.FieldIPSrc, Op: OpEq, Arg: Ref("Z")}}}},
			}}},
			"before binding",
		},
	}
	for _, c := range cases {
		err := c.prop.Validate()
		if err == nil {
			t.Errorf("%s: Validate returned nil", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValidateAcceptsCatalog(t *testing.T) {
	for _, e := range Catalog(DefaultParams()) {
		if err := e.Prop.Validate(); err != nil {
			t.Errorf("catalogue property %s invalid: %v", e.Prop.Name, err)
		}
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	entries := Catalog(DefaultParams())
	if len(entries) != 24 {
		t.Fatalf("catalogue has %d entries, want 24 (5 in-text + 2 extra ARP + 13 Table 1 + 4 extensions)", len(entries))
	}
	for _, e := range entries {
		if seen[e.Prop.Name] {
			t.Errorf("duplicate property name %s", e.Prop.Name)
		}
		seen[e.Prop.Name] = true
		if e.Group == "" {
			t.Errorf("property %s missing group", e.Prop.Name)
		}
	}
}

func TestCatalogByName(t *testing.T) {
	p := CatalogByName(DefaultParams(), "firewall-basic")
	if p == nil || len(p.Stages) != 2 {
		t.Fatalf("firewall-basic = %+v", p)
	}
	if CatalogByName(DefaultParams(), "nope") != nil {
		t.Fatal("CatalogByName found a nonexistent property")
	}
}

func TestVars(t *testing.T) {
	p := CatalogByName(DefaultParams(), "nat-reverse")
	vars := p.Vars()
	want := []Var{"A", "P", "B", "Q", "A2", "P2"}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vars, want)
		}
	}
}

func TestStageAndPredStrings(t *testing.T) {
	pr := Pred{Field: packet.FieldIPSrc, Op: OpEq, Arg: Ref("A")}
	if pr.String() != "ip.src == $A" {
		t.Errorf("Pred.String = %q", pr.String())
	}
	bd := Binding{Var: "A", Field: packet.FieldIPSrc}
	if bd.String() != "$A := ip.src" {
		t.Errorf("Binding.String = %q", bd.String())
	}
	p := CatalogByName(DefaultParams(), "firewall-basic")
	if got := p.String(); !strings.Contains(got, "firewall-basic") || !strings.Contains(got, "2 observations") {
		t.Errorf("Property.String = %q", got)
	}
	for _, c := range []EventClass{AnyPacket, Arrival, Egress, OutOfBand} {
		if c.String() == "" {
			t.Error("empty EventClass string")
		}
	}
	for _, o := range []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		if o.String() == "" {
			t.Error("empty CmpOp string")
		}
	}
}
