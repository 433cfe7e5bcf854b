package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParseStatement parses one assignment in the statement language:
//
//	statement := ref '=' expr
//	expr      := term (('+'|'-') term)*
//	term      := factor (('*'|'/') factor)*
//	factor    := ref | number | '(' expr ')'
//	ref       := ident [ '(' expr ')' ]
//
// Identifiers are letters followed by letters/digits/underscores. A reference
// without a subscript denotes a scalar. Subscripts may themselves contain
// references (indirect accesses such as X(Y(i))).
func ParseStatement(src string) (*Statement, error) {
	p := &parser{src: src}
	p.next()
	lhsExpr, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	lhs, ok := lhsExpr.(*Ref)
	if !ok {
		return nil, p.errorf("left-hand side must be an array reference or scalar")
	}
	if p.tok != tokAssign {
		return nil, p.errorf("expected '=' after left-hand side")
	}
	p.next()
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.lit)
	}
	return &Statement{LHS: lhs, RHS: rhs}, nil
}

// MustParseStatement is ParseStatement panicking on error; for tests and
// static workload definitions.
func MustParseStatement(src string) *Statement {
	s, err := ParseStatement(src)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseStatements parses a semicolon- or newline-separated list of
// statements, labeling them S1, S2, ... in order. Empty segments are skipped.
func ParseStatements(src string) ([]*Statement, error) {
	var out []*Statement
	for _, part := range strings.FieldsFunc(src, func(r rune) bool { return r == ';' || r == '\n' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		s, err := ParseStatement(part)
		if err != nil {
			return nil, fmt.Errorf("statement %d: %w", len(out)+1, err)
		}
		s.Label = fmt.Sprintf("S%d", len(out)+1)
		out = append(out, s)
	}
	return out, nil
}

type token int

const (
	tokEOF token = iota
	tokInvalid
	tokIdent
	tokNumber
	tokAssign
	tokLParen
	tokRParen
	tokOp
)

type parser struct {
	src string
	pos int
	tok token
	lit string
	op  Op
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("ir: parse %q at offset %d: %s", p.src, p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) next() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
	if p.pos >= len(p.src) {
		p.tok, p.lit = tokEOF, ""
		return
	}
	c := p.src[p.pos]
	switch {
	case c == '=':
		p.tok, p.lit = tokAssign, "="
		p.pos++
	case c == '(':
		p.tok, p.lit = tokLParen, "("
		p.pos++
	case c == ')':
		p.tok, p.lit = tokRParen, ")"
		p.pos++
	case c == '+' || c == '-' || c == '*' || c == '/' || c == '%' || c == '&' || c == '|':
		p.tok, p.lit, p.op = tokOp, string(c), Op(c)
		p.pos++
	case unicode.IsLetter(rune(c)):
		start := p.pos
		for p.pos < len(p.src) && (isIdentChar(p.src[p.pos])) {
			p.pos++
		}
		p.tok, p.lit = tokIdent, p.src[start:p.pos]
	case unicode.IsDigit(rune(c)) || c == '.':
		start := p.pos
		for p.pos < len(p.src) && (unicode.IsDigit(rune(p.src[p.pos])) || p.src[p.pos] == '.') {
			p.pos++
		}
		p.tok, p.lit = tokNumber, p.src[start:p.pos]
	default:
		p.tok, p.lit = tokInvalid, string(c)
		p.pos++
	}
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && p.op.Precedence() == 1 {
		op := p.op
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &Bin{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && p.op.Precedence() == 2 {
		op := p.op
		p.next()
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = &Bin{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseFactor() (Expr, error) {
	switch p.tok {
	case tokNumber:
		v, err := strconv.ParseFloat(p.lit, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", p.lit)
		}
		p.next()
		return &Num{Val: v}, nil
	case tokIdent:
		name := p.lit
		p.next()
		if p.tok != tokLParen {
			return NewRef(name, nil), nil // scalar
		}
		p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, p.errorf("missing ')' after subscript of %s", name)
		}
		p.next()
		return NewRef(name, idx), nil
	case tokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, p.errorf("missing ')'")
		}
		p.next()
		return e, nil
	case tokOp:
		if p.op == OpSub { // unary minus: fold into 0 - x
			p.next()
			f, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			return &Bin{Op: OpSub, L: &Num{Val: 0}, R: f}, nil
		}
	}
	return nil, p.errorf("unexpected token %q", p.lit)
}
