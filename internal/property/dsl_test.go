package property

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"switchmon/internal/packet"
)

const firewallSrc = `
property "firewall-until-close" {
  description "return traffic admitted until close or timeout"

  on arrival "outgoing" {
    match in_port == 1
    bind $A = ip.src
    bind $B = ip.dst
  }

  on egress "return-dropped" within 60s {
    match ip.src == $B
    match ip.dst == $A
    match dropped == 1
    until packet { ip.src == $A; ip.dst == $B; tcp.fin == 1 }
    until packet { ip.src == $B; ip.dst == $A; tcp.fin == 1 }
  }
}
`

// mustParse parses one property or fails the test.
func mustParse(t *testing.T, src string) *Property {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseFirewall(t *testing.T) {
	p, err := Parse(firewallSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "firewall-until-close" {
		t.Errorf("Name = %q", p.Name)
	}
	if len(p.Stages) != 2 {
		t.Fatalf("stages = %d", len(p.Stages))
	}
	s0 := p.Stages[0]
	if s0.Class != Arrival || s0.Label != "outgoing" || len(s0.Binds) != 2 {
		t.Errorf("stage 0 = %+v", s0)
	}
	s1 := p.Stages[1]
	if s1.Window != 60*time.Second || len(s1.Preds) != 3 || len(s1.Until) != 2 {
		t.Errorf("stage 1 = %+v", s1)
	}
	if s1.Preds[0].Arg.Var != "B" || !s1.Preds[0].Arg.IsVar() {
		t.Errorf("stage 1 pred 0 = %+v", s1.Preds[0])
	}
}

func TestParseNegativeStageAndSamePacket(t *testing.T) {
	src := `
property "arp-unknown-forwarded" {
  on arrival "request" {
    match arp.op == 1
    bind $I = arp.target_ip
  }
  unless egress "not-forwarded" within 2s same packet as 0 {
    match dropped == 0
    until arrival { arp.sender_ip == $I }
  }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s1 := p.Stages[1]
	if !s1.Negative || s1.Window != 2*time.Second || s1.SamePacketAs != 0 {
		t.Fatalf("stage 1 = %+v", s1)
	}
}

func TestParseHashAndAnyOf(t *testing.T) {
	src := `
property "lb" {
  on arrival "new" {
    match tcp.syn == 1
    bind $A = ip.src
    bind $B = ip.dst
  }
  on egress "wrong" {
    match dropped == 0
    any { ip.src == $A; out_port != hash(ip.src, ip.dst) % 4 + 10 } or { ip.src == $B }
  }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s1 := p.Stages[1]
	if len(s1.AnyOf) != 2 {
		t.Fatalf("AnyOf groups = %d", len(s1.AnyOf))
	}
	h := s1.AnyOf[0][1].Arg
	if h.Kind != OperandHash || h.Hash.Mod != 4 || h.Hash.Base != 10 || len(h.Hash.Fields) != 2 {
		t.Fatalf("hash operand = %+v", h)
	}
}

func TestParseAddressLiterals(t *testing.T) {
	src := `
property "lits" {
  on arrival "a" {
    match ip.src == 10.0.0.1
    match eth.src == aa:bb:cc:dd:ee:ff
    match ip.proto == 0x11
  }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	preds := p.Stages[0].Preds
	if preds[0].Arg.Lit != packet.Num(packet.MustIPv4("10.0.0.1").Uint64()) {
		t.Errorf("IP literal = %v", preds[0].Arg.Lit)
	}
	if preds[1].Arg.Lit != packet.Num(packet.MustMAC("aa:bb:cc:dd:ee:ff").Uint64()) {
		t.Errorf("MAC literal = %v", preds[1].Arg.Lit)
	}
	if preds[2].Arg.Lit != packet.Num(17) {
		t.Errorf("hex literal = %v", preds[2].Arg.Lit)
	}
}

func TestParseWindowVar(t *testing.T) {
	src := `
property "lease" {
  on egress "ack" {
    match dhcp.msg_type == 5
    bind $L = dhcp.lease_secs
    bind $IP = dhcp.your_ip
  }
  on egress "re-lease" within $L {
    match dhcp.your_ip == $IP
  }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stages[1].WindowVar != "L" {
		t.Fatalf("WindowVar = %q", p.Stages[1].WindowVar)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing property kw", `on arrival "x" {}`, `expected "property"`},
		{"missing name", `property {`, "property name"},
		{"unknown field", `property "p" { on arrival "a" { match bogus.field == 1 } }`, "unknown field"},
		{"unknown class", `property "p" { on flarn "a" {} }`, "unknown event class"},
		{"unknown item", `property "p" { on arrival "a" { frob x } }`, "unknown stage item"},
		{"bad operator", `property "p" { on arrival "a" { match ip.src = 1 } }`, "comparison operator"},
		{"unterminated string", "property \"p", "unterminated string"},
		{"unbound var", `property "p" { on arrival "a" { match ip.src == $Z } }`, "before binding"},
		{"bad duration", `property "p" { on arrival "a" within 60 {} }`, "duration or variable"},
		{"trailing garbage", `property "p" { on arrival "a" { match ip.src == 1 } } garbage`, "unexpected"},
		{"bad stage option", `property "p" { on arrival "a" sideways {} }`, "unknown stage option"},
		{"empty group", `property "p" { on arrival "a" { until arrival { } } }`, "empty predicate group"},
		{"bad ip literal", `property "p" { on arrival "a" { match ip.src == 1.2.3.4.5 } }`, "bad"},
		{"negative without window", `property "p" { on arrival "a" {}
			unless egress "b" {} }`, "without a window"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: Parse succeeded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	src := "property \"p\" {\n  on arrival \"a\" {\n    match bogus.field == 1\n  }\n}"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not mention line 3", err)
	}
}

func TestComments(t *testing.T) {
	src := `
# leading comment
property "p" { # trailing comment
  on arrival "a" {
    match ip.src == 1 # another
  }
}
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

// The round-trip property: Format then Parse reproduces the AST exactly,
// for the entire catalogue.
func TestFormatParseRoundTripCatalog(t *testing.T) {
	for _, e := range Catalog(DefaultParams()) {
		text := Format(e.Prop)
		back, err := Parse(text)
		if err != nil {
			t.Errorf("%s: reparse failed: %v\n%s", e.Prop.Name, err, text)
			continue
		}
		if !reflect.DeepEqual(e.Prop, back) {
			t.Errorf("%s: round trip changed the AST\nformatted:\n%s\noriginal: %#v\nreparsed: %#v",
				e.Prop.Name, text, e.Prop, back)
		}
	}
}

func TestParseAll(t *testing.T) {
	catalog := Catalog(DefaultParams())
	var all []*Property
	for _, e := range catalog {
		all = append(all, e.Prop)
	}
	text := FormatAll(all)
	back, err := ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(all) {
		t.Fatalf("ParseAll returned %d properties, want %d", len(back), len(all))
	}
	for i := range all {
		if !reflect.DeepEqual(all[i], back[i]) {
			t.Errorf("property %s changed in ParseAll round trip", all[i].Name)
		}
	}
}

func TestParseAllEmpty(t *testing.T) {
	props, err := ParseAll("\n# nothing here\n")
	if err != nil || len(props) != 0 {
		t.Fatalf("ParseAll on empty input = (%v, %v)", props, err)
	}
}

// Strings follow Go's quoting rules both ways: whatever a name or
// description holds, Format's %q text parses back to it, and an escape
// Go does not know is an error rather than a silently different string.
func TestStringEscapesRoundTrip(t *testing.T) {
	for _, name := range []string{"a\tb", "nul\x00", "line\nbreak", `q"uote`, `back\slash`, "bad\xffutf8", "µs"} {
		p := &Property{Name: name, Description: name, Stages: []Stage{{Label: name, Class: Arrival, SamePacketAs: -1}}}
		back, err := Parse(Format(p))
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		if back.Name != name || back.Description != name || back.Stages[0].Label != name {
			t.Errorf("%q came back as %q / %q / %q", name, back.Name, back.Description, back.Stages[0].Label)
		}
	}
	if p, err := Parse("property \"a\tb\" { on arrival \"x\" {} }"); err != nil || p.Name != "a\tb" {
		t.Errorf("a raw tab in a name parsed as %v, %v", p, err)
	}
	if _, err := Parse(`property "a\qb" { on arrival "x" {} }`); err == nil || !strings.Contains(err.Error(), "bad string literal") {
		t.Errorf("an unknown escape parsed: %v", err)
	}
}

// Format writes a window under a millisecond with Go's "µs" unit; the
// lexer must take it back as a duration.
func TestSubMillisecondWindowRoundTrip(t *testing.T) {
	p, err := Parse(`property "p" { on arrival "a" {} on arrival "b" within 1500ns {} }`)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(Format(p))
	if err != nil || back.Stages[1].Window != 1500*time.Nanosecond {
		t.Fatalf("%q parsed back as %v, %v", Format(p), back, err)
	}
}
