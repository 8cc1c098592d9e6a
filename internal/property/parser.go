package property

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"switchmon/internal/packet"
)

// Parse reads one property definition and returns it validated.
func Parse(src string) (*Property, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prop, err := p.parseProperty()
	if err != nil {
		return nil, err
	}
	p.skipSeps()
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %s after property", p.peek().kind)
	}
	if err := prop.Validate(); err != nil {
		return nil, err
	}
	return prop, nil
}

// ParseAll reads a file containing any number of property definitions.
func ParseAll(src string) ([]*Property, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var props []*Property
	for {
		p.skipSeps()
		if p.peek().kind == tokEOF {
			break
		}
		prop, err := p.parseProperty()
		if err != nil {
			return nil, err
		}
		if err := prop.Validate(); err != nil {
			return nil, err
		}
		props = append(props, prop)
	}
	return props, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return &errSyntax{line: p.peek().line, msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSeps() {
	for p.peek().kind == tokSemi {
		p.advance()
	}
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return token{}, p.errorf("expected %s, found %s %q", what, t.kind, t.text)
	}
	return p.advance(), nil
}

// expectIdent consumes a specific keyword.
func (p *parser) expectIdent(word string) error {
	t := p.peek()
	if t.kind != tokIdent || t.text != word {
		return p.errorf("expected %q, found %s %q", word, t.kind, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) parseProperty() (*Property, error) {
	if err := p.expectIdent("property"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokString, "property name string")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	prop := &Property{Name: name.text}
	p.skipSeps()
	if t := p.peek(); t.kind == tokIdent && t.text == "description" {
		p.advance()
		desc, err := p.expect(tokString, "description string")
		if err != nil {
			return nil, err
		}
		prop.Description = desc.text
	}
	for {
		p.skipSeps()
		t := p.peek()
		if t.kind == tokRBrace {
			p.advance()
			return prop, nil
		}
		if t.kind != tokIdent {
			return nil, p.errorf("expected observation or '}', found %s %q", t.kind, t.text)
		}
		stage, err := p.parseStage(len(prop.Stages))
		if err != nil {
			return nil, err
		}
		prop.Stages = append(prop.Stages, stage)
	}
}

func (p *parser) parseClass() (EventClass, error) {
	t, err := p.expect(tokIdent, "event class (arrival/egress/packet/oob)")
	if err != nil {
		return 0, err
	}
	switch t.text {
	case "arrival":
		return Arrival, nil
	case "egress":
		return Egress, nil
	case "packet":
		return AnyPacket, nil
	case "oob":
		return OutOfBand, nil
	default:
		return 0, &errSyntax{line: t.line, msg: fmt.Sprintf("unknown event class %q", t.text)}
	}
}

func (p *parser) parseStage(index int) (Stage, error) {
	var s Stage
	s.SamePacketAs = -1
	kw, err := p.expect(tokIdent, "'on' or 'unless'")
	if err != nil {
		return s, err
	}
	switch kw.text {
	case "on":
	case "unless":
		s.Negative = true
	default:
		return s, &errSyntax{line: kw.line, msg: fmt.Sprintf("expected 'on' or 'unless', found %q", kw.text)}
	}
	s.Class, err = p.parseClass()
	if err != nil {
		return s, err
	}
	label, err := p.expect(tokString, "stage label string")
	if err != nil {
		return s, err
	}
	s.Label = label.text

	// Header options before the block: within <dur|$var>, same packet as N.
	for {
		t := p.peek()
		if t.kind != tokIdent {
			break
		}
		switch t.text {
		case "within":
			p.advance()
			switch tv := p.peek(); tv.kind {
			case tokDuration:
				p.advance()
				d, err := time.ParseDuration(tv.text)
				if err != nil {
					return s, &errSyntax{line: tv.line, msg: fmt.Sprintf("bad duration %q: %v", tv.text, err)}
				}
				s.Window = d
			case tokVar:
				p.advance()
				s.WindowVar = Var(tv.text)
			default:
				return s, p.errorf("expected duration or variable after 'within'")
			}
		case "count":
			p.advance()
			n, err := p.expect(tokNumber, "count threshold")
			if err != nil {
				return s, err
			}
			cnt, err := strconv.Atoi(n.text)
			if err != nil {
				return s, &errSyntax{line: n.line, msg: fmt.Sprintf("bad count %q", n.text)}
			}
			s.MinCount = cnt
			if tt := p.peek(); tt.kind == tokIdent && tt.text == "distinct" {
				p.advance()
				f, err := p.parseField()
				if err != nil {
					return s, err
				}
				s.CountDistinct = f
			}
		case "same":
			p.advance()
			if err := p.expectIdent("packet"); err != nil {
				return s, err
			}
			if err := p.expectIdent("as"); err != nil {
				return s, err
			}
			n, err := p.expect(tokNumber, "stage index")
			if err != nil {
				return s, err
			}
			idx, err := strconv.Atoi(n.text)
			if err != nil {
				return s, &errSyntax{line: n.line, msg: fmt.Sprintf("bad stage index %q", n.text)}
			}
			s.SamePacketAs = idx
		default:
			return s, p.errorf("unknown stage option %q", t.text)
		}
	}

	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return s, err
	}
	for {
		p.skipSeps()
		t := p.peek()
		if t.kind == tokRBrace {
			p.advance()
			return s, nil
		}
		if t.kind != tokIdent {
			return s, p.errorf("expected stage item or '}', found %s %q", t.kind, t.text)
		}
		switch t.text {
		case "match":
			p.advance()
			pred, err := p.parsePred()
			if err != nil {
				return s, err
			}
			s.Preds = append(s.Preds, pred)
		case "bind":
			p.advance()
			v, err := p.expect(tokVar, "variable")
			if err != nil {
				return s, err
			}
			if _, err := p.expect(tokEquals, "'='"); err != nil {
				return s, err
			}
			f, err := p.parseField()
			if err != nil {
				return s, err
			}
			s.Binds = append(s.Binds, Binding{Var: Var(v.text), Field: f})
		case "until":
			p.advance()
			sticky := false
			if tt := p.peek(); tt.kind == tokIdent && tt.text == "sticky" {
				p.advance()
				sticky = true
			}
			class, err := p.parseClass()
			if err != nil {
				return s, err
			}
			preds, err := p.parsePredGroup()
			if err != nil {
				return s, err
			}
			s.Until = append(s.Until, Guard{Class: class, Preds: preds, Sticky: sticky})
		case "any":
			p.advance()
			for {
				group, err := p.parsePredGroup()
				if err != nil {
					return s, err
				}
				s.AnyOf = append(s.AnyOf, PredGroup(group))
				if t := p.peek(); t.kind == tokIdent && t.text == "or" {
					p.advance()
					continue
				}
				break
			}
		default:
			return s, p.errorf("unknown stage item %q", t.text)
		}
	}
}

// parsePredGroup parses "{ pred (; pred)* }".
func (p *parser) parsePredGroup() ([]Pred, error) {
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	var preds []Pred
	for {
		p.skipSeps()
		if p.peek().kind == tokRBrace {
			p.advance()
			if len(preds) == 0 {
				return nil, p.errorf("empty predicate group")
			}
			return preds, nil
		}
		pred, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred)
	}
}

func (p *parser) parseField() (packet.Field, error) {
	t, err := p.expect(tokIdent, "field name")
	if err != nil {
		return 0, err
	}
	f, ok := packet.FieldByName(t.text)
	if !ok {
		return 0, &errSyntax{line: t.line, msg: fmt.Sprintf("unknown field %q", t.text)}
	}
	return f, nil
}

func (p *parser) parsePred() (Pred, error) {
	var pred Pred
	f, err := p.parseField()
	if err != nil {
		return pred, err
	}
	pred.Field = f
	op, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return pred, err
	}
	switch op.text {
	case "==":
		pred.Op = OpEq
	case "!=":
		pred.Op = OpNe
	case "<":
		pred.Op = OpLt
	case "<=":
		pred.Op = OpLe
	case ">":
		pred.Op = OpGt
	case ">=":
		pred.Op = OpGe
	default:
		return pred, &errSyntax{line: op.line, msg: fmt.Sprintf("unknown operator %q", op.text)}
	}
	arg, err := p.parseOperand()
	if err != nil {
		return pred, err
	}
	pred.Arg = arg
	return pred, nil
}

func (p *parser) parseOperand() (Operand, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.advance()
		return Ref(Var(t.text)), nil
	case tokString:
		p.advance()
		return LitStr(t.text), nil
	case tokNumber:
		p.advance()
		v, err := parseNumberLiteral(t.text)
		if err != nil {
			return Operand{}, &errSyntax{line: t.line, msg: err.Error()}
		}
		return LitNum(v), nil
	case tokIdent:
		if t.text == "hash" {
			return p.parseHash()
		}
		return Operand{}, p.errorf("unexpected identifier %q as operand", t.text)
	default:
		return Operand{}, p.errorf("expected operand, found %s %q", t.kind, t.text)
	}
}

// parseHash parses "hash(f1, f2, ...) % MOD [+ BASE]".
func (p *parser) parseHash() (Operand, error) {
	p.advance() // "hash"
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return Operand{}, err
	}
	var fields []packet.Field
	for {
		f, err := p.parseField()
		if err != nil {
			return Operand{}, err
		}
		fields = append(fields, f)
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return Operand{}, err
	}
	if _, err := p.expect(tokPercent, "'%'"); err != nil {
		return Operand{}, err
	}
	modTok, err := p.expect(tokNumber, "hash modulus")
	if err != nil {
		return Operand{}, err
	}
	mod, err := parseNumberLiteral(modTok.text)
	if err != nil {
		return Operand{}, &errSyntax{line: modTok.line, msg: err.Error()}
	}
	var base uint64
	if p.peek().kind == tokPlus {
		p.advance()
		baseTok, err := p.expect(tokNumber, "hash base")
		if err != nil {
			return Operand{}, err
		}
		base, err = parseNumberLiteral(baseTok.text)
		if err != nil {
			return Operand{}, &errSyntax{line: baseTok.line, msg: err.Error()}
		}
	}
	return HashOf(mod, base, fields...), nil
}

// parseNumberLiteral accepts decimal, hex (0x...), IPv4 dotted-quad, and
// MAC colon-hex literals, all reduced to their uint64 field encoding.
func parseNumberLiteral(text string) (uint64, error) {
	switch {
	case strings.Count(text, ".") == 3:
		ip, err := packet.ParseIPv4(text)
		if err != nil {
			return 0, fmt.Errorf("bad IPv4 literal %q", text)
		}
		return ip.Uint64(), nil
	case strings.Contains(text, ":"):
		mac, err := packet.ParseMAC(text)
		if err != nil {
			return 0, fmt.Errorf("bad MAC literal %q", text)
		}
		return mac.Uint64(), nil
	default:
		v, err := strconv.ParseUint(text, 0, 64)
		if err != nil {
			return 0, fmt.Errorf("bad number literal %q", text)
		}
		return v, nil
	}
}
