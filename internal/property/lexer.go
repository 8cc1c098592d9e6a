package property

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF      tokenKind = iota
	tokIdent              // property, on, match, field names like ip.src
	tokString             // "..."
	tokNumber             // 42, 0x2a
	tokDuration           // 60s, 500ms
	tokVar                // $A
	tokOp                 // == != < <= > >=
	tokLBrace             // {
	tokRBrace             // }
	tokLParen             // (
	tokRParen             // )
	tokSemi               // ; or newline (statement separator)
	tokPercent            // %
	tokPlus               // +
	tokComma              // ,
	tokEquals             // = (binding)
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokDuration:
		return "duration"
	case tokVar:
		return "variable"
	case tokOp:
		return "operator"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokSemi:
		return "separator"
	case tokPercent:
		return "'%'"
	case tokPlus:
		return "'+'"
	case tokComma:
		return "','"
	case tokEquals:
		return "'='"
	default:
		return fmt.Sprintf("tokenKind(%d)", uint8(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
}

// lexer is a hand-rolled scanner. Newlines are significant: they act as
// statement separators (like semicolons), which keeps the syntax free of
// trailing punctuation.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// errSyntax is a positioned lexer/parser error.
type errSyntax struct {
	line int
	msg  string
}

func (e *errSyntax) Error() string { return fmt.Sprintf("property: line %d: %s", e.line, e.msg) }

func (l *lexer) errorf(format string, args ...any) error {
	return &errSyntax{line: l.line, msg: fmt.Sprintf(format, args...)}
}

func isIdentStart(r byte) bool {
	return r == '_' || unicode.IsLetter(rune(r))
}

func isIdentPart(r byte) bool {
	return r == '_' || r == '.' || unicode.IsLetter(rune(r)) || unicode.IsDigit(rune(r))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	// Skip spaces, tabs and comments; newlines become separators.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\n':
			l.pos++
			l.line++
			return token{kind: tokSemi, text: "\n", line: l.line - 1}, nil
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '{':
		l.pos++
		return token{tokLBrace, "{", l.line}, nil
	case c == '}':
		l.pos++
		return token{tokRBrace, "}", l.line}, nil
	case c == '(':
		l.pos++
		return token{tokLParen, "(", l.line}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", l.line}, nil
	case c == ';':
		l.pos++
		return token{tokSemi, ";", l.line}, nil
	case c == '%':
		l.pos++
		return token{tokPercent, "%", l.line}, nil
	case c == '+':
		l.pos++
		return token{tokPlus, "+", l.line}, nil
	case c == ',':
		l.pos++
		return token{tokComma, ",", l.line}, nil
	case c == '$':
		l.pos++
		if l.pos >= len(l.src) || !isIdentStart(l.src[l.pos]) {
			return token{}, l.errorf("expected variable name after '$'")
		}
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{tokVar, l.src[start+1 : l.pos], l.line}, nil
	case c == '"':
		// A string literal follows Go's quoting rules, the ones Format
		// writes it with (%q), so every string survives a round trip.
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\n' {
				return token{}, l.errorf("unterminated string")
			}
			if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
				l.pos++
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.errorf("unterminated string")
		}
		l.pos++
		text, err := strconv.Unquote(l.src[start:l.pos])
		if err != nil {
			return token{}, l.errorf("bad string literal %s", l.src[start:l.pos])
		}
		return token{tokString, text, l.line}, nil
	case c == '=' || c == '!' || c == '<' || c == '>':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, l.src[start : start+2], l.line}, nil
		}
		l.pos++
		switch c {
		case '=':
			return token{tokEquals, "=", l.line}, nil
		case '<', '>':
			return token{tokOp, string(c), l.line}, nil
		default:
			return token{}, l.errorf("unexpected character %q", c)
		}
	case unicode.IsDigit(rune(c)):
		// Number, duration, or address literal (IPv4 dotted quad, MAC).
		for l.pos < len(l.src) && (isIdentPart(l.src[l.pos]) || l.src[l.pos] == ':') {
			l.pos++
		}
		text := l.src[start:l.pos]
		if isDurationLiteral(text) {
			return token{tokDuration, text, l.line}, nil
		}
		return token{tokNumber, text, l.line}, nil
	case isIdentStart(c):
		for l.pos < len(l.src) && (isIdentPart(l.src[l.pos]) || l.src[l.pos] == ':') {
			l.pos++
		}
		text := l.src[start:l.pos]
		if strings.Contains(text, ":") {
			// A MAC literal like aa:bb:cc:dd:ee:ff lexes as a number.
			return token{tokNumber, text, l.line}, nil
		}
		return token{tokIdent, text, l.line}, nil
	default:
		return token{}, l.errorf("unexpected character %q", c)
	}
}

// isDurationLiteral reports whether text looks like a Go duration (digits
// followed by a unit suffix, possibly compound like "1m30s").
func isDurationLiteral(text string) bool {
	hasUnit := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= '0' && c <= '9' || c == '.' {
			continue
		}
		// A non-ASCII byte may belong to "µs", which Format writes for
		// windows under a millisecond; time.ParseDuration checks it.
		switch {
		case c == 'n' || c == 'u' || c == 'm' || c == 's' || c == 'h':
			hasUnit = true
		case c < utf8.RuneSelf:
			return false
		}
	}
	return hasUnit && strings.IndexFunc(text, func(r rune) bool { return r < '0' || r > '9' }) > 0
}

// lexAll tokenizes the whole input, collapsing runs of separators.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		if t.kind == tokSemi && (len(toks) == 0 || toks[len(toks)-1].kind == tokSemi ||
			toks[len(toks)-1].kind == tokLBrace) {
			continue // no empty statements
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
