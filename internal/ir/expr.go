// Package ir is the compiler intermediate representation the partitioner
// operates on: loop nests whose bodies are assignment statements over array
// references, with affine or indirect (runtime-resolved) subscripts.
//
// The package provides a parser for a small statement language
// ("A(i) = B(i) + C(i)*(D(i+1) + E(2*i))"), the nested-variable-set
// decomposition driven by operator priority and parentheses (Section 4.2 of
// the paper), per-statement-pair dependence analysis, and the
// inspector–executor machinery used for may-dependences through indirect
// array accesses (Section 4.5).
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Op is a binary arithmetic operator.
type Op byte

// The operator set of the statement language. OpNone marks leaf expressions.
const (
	OpNone Op = 0
	OpAdd  Op = '+'
	OpSub  Op = '-'
	OpMul  Op = '*'
	OpDiv  Op = '/'
	// OpMod, OpAnd and OpOr round out the Table 3 "others" class (shift,
	// logical, etc.): OpMod binds like a multiplicative operator, OpAnd and
	// OpOr like additive ones.
	OpMod Op = '%'
	OpAnd Op = '&'
	OpOr  Op = '|'
)

// Precedence returns the binding strength of the operator (higher binds
// tighter).
func (o Op) Precedence() int {
	switch o {
	case OpMul, OpDiv, OpMod:
		return 2
	case OpAdd, OpSub, OpAnd, OpOr:
		return 1
	}
	return 0
}

// String returns the operator's source form.
func (o Op) String() string {
	if o == OpNone {
		return ""
	}
	return string(byte(o))
}

// Class buckets operators the way Table 3 of the paper reports offloaded
// computation types.
type OpClass int

// Operator classes for Table 3 accounting.
const (
	ClassAddSub OpClass = iota
	ClassMulDiv
	ClassOther
	numOpClasses
)

// OpMix tallies operators by Table 3 class, indexed by OpClass.
type OpMix [numOpClasses]int

// String names the class as in Table 3.
func (c OpClass) String() string {
	switch c {
	case ClassAddSub:
		return "add/sub"
	case ClassMulDiv:
		return "mul/div"
	default:
		return "others"
	}
}

// Class returns the Table 3 class of the operator.
func (o Op) Class() OpClass {
	switch o {
	case OpAdd, OpSub:
		return ClassAddSub
	case OpMul, OpDiv:
		return ClassMulDiv
	default:
		return ClassOther
	}
}

// Expr is a node of an expression tree: *Num, *Ref, or *Bin.
type Expr interface {
	fmt.Stringer
	// Refs appends all array references in the expression, left to right,
	// including references nested inside indirect subscripts.
	Refs(dst []*Ref) []*Ref
}

// Num is a numeric literal. Literals live in the instruction stream, so they
// contribute no data movement.
type Num struct {
	Val float64
}

// String formats the literal. The statement lexer only accepts digit/dot
// number tokens (no exponent notation), so render with 'f' formatting to
// keep every literal round-trippable through the parser.
func (n *Num) String() string {
	return strings.TrimSuffix(strconv.FormatFloat(n.Val, 'f', -1, 64), ".0")
}

// Refs implements Expr.
func (n *Num) Refs(dst []*Ref) []*Ref { return dst }

// Ref is a reference to an element of a named array. Index is nil for scalar
// variables (treated as single-element arrays). An Index containing further
// Refs is an indirect access (e.g. X(Y(i))), which is not compile-time
// analyzable and triggers the inspector–executor path.
//
// Build refs with NewRef, which analyzes the subscript once; the parser and
// the fusion pass do. A ref built as a literal still resolves correctly, but
// SubscriptOf re-analyzes its subscript on every call. Index must not change
// after construction.
type Ref struct {
	Array string
	Index Expr // nil for scalars

	// sub is the subscript's affine form and subOK whether it has one;
	// analyzed reports that NewRef filled them.
	sub      Affine
	subOK    bool
	analyzed bool
}

// NewRef returns the reference array(index) with its subscript analyzed
// once, so SubscriptOf, IndexOf and AddrOf evaluate the stored affine form
// without allocating. index is nil for a scalar.
func NewRef(array string, index Expr) *Ref {
	r := &Ref{Array: array, Index: index, analyzed: true}
	r.sub, r.subOK = analyzeSubscript(index)
	return r
}

// String formats the reference in source form.
func (r *Ref) String() string {
	if r.Index == nil {
		return r.Array
	}
	return fmt.Sprintf("%s(%s)", r.Array, r.Index)
}

// Refs implements Expr. Bare identifiers inside subscripts are loop
// variables, not data references, and are excluded; subscripted references
// inside subscripts (indirect accesses) are included.
func (r *Ref) Refs(dst []*Ref) []*Ref {
	dst = append(dst, r)
	if r.Index != nil {
		dst = subscriptRefs(r.Index, dst)
	}
	return dst
}

// subscriptRefs collects the array accesses (references with subscripts)
// appearing in a subscript expression, skipping bare loop-variable
// identifiers.
func subscriptRefs(e Expr, dst []*Ref) []*Ref {
	switch n := e.(type) {
	case *Ref:
		if n.Index == nil {
			return dst // loop variable
		}
		dst = append(dst, n)
		return subscriptRefs(n.Index, dst)
	case *Bin:
		dst = subscriptRefs(n.L, dst)
		return subscriptRefs(n.R, dst)
	}
	return dst
}

// Indirect reports whether the subscript itself contains array accesses,
// making the reference's target unknowable at compile time.
func (r *Ref) Indirect() bool {
	if r.Index == nil {
		return false
	}
	return len(subscriptRefs(r.Index, nil)) > 0
}

// Bin is a binary operation.
type Bin struct {
	Op   Op
	L, R Expr
}

// String formats the expression with minimal parentheses.
func (b *Bin) String() string {
	l := b.L.String()
	r := b.R.String()
	if lb, ok := b.L.(*Bin); ok && lb.Op.Precedence() < b.Op.Precedence() {
		l = "(" + l + ")"
	}
	if rb, ok := b.R.(*Bin); ok && rb.Op.Precedence() <= b.Op.Precedence() && !(rb.Op == b.Op && (b.Op == OpAdd || b.Op == OpMul)) {
		r = "(" + r + ")"
	}
	return l + b.Op.String() + r
}

// Refs implements Expr.
func (b *Bin) Refs(dst []*Ref) []*Ref {
	dst = b.L.Refs(dst)
	return b.R.Refs(dst)
}

// Statement is one assignment in a loop body: LHS = RHS.
type Statement struct {
	LHS *Ref
	RHS Expr
	// Label is an optional name (e.g. "S1") used in diagnostics.
	Label string
}

// String formats the statement in source form.
func (s *Statement) String() string {
	return fmt.Sprintf("%s = %s", s.LHS, s.RHS)
}

// Inputs returns the RHS references (the data the statement must gather),
// including refs inside indirect subscripts.
func (s *Statement) Inputs() []*Ref { return s.RHS.Refs(nil) }

// AllRefs returns every reference in the statement, LHS first.
func (s *Statement) AllRefs() []*Ref {
	return s.RHS.Refs(s.LHS.Refs(nil))
}

// OpCount returns the number of binary operations in the RHS, with division
// weighted by divWeight (the paper costs division 10x an add/mul when load
// balancing).
func (s *Statement) OpCount(divWeight int) int {
	return opCount(s.RHS, divWeight)
}

func opCount(e Expr, divWeight int) int {
	b, ok := e.(*Bin)
	if !ok {
		return 0
	}
	w := 1
	if b.Op == OpDiv {
		w = divWeight
	}
	return w + opCount(b.L, divWeight) + opCount(b.R, divWeight)
}

// OpMix tallies the operators in the RHS by Table 3 class.
func (s *Statement) OpMix() OpMix {
	var mix OpMix
	var walk func(Expr)
	walk = func(e Expr) {
		if b, ok := e.(*Bin); ok {
			mix[b.Op.Class()]++
			walk(b.L)
			walk(b.R)
		}
	}
	walk(s.RHS)
	return mix
}
