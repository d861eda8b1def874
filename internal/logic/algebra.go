package logic

import "fmt"

// Algebra is a carrier of gate semantics: a value type T with the
// constants, complement and the three n-ary base operations every gate
// type decomposes into. Each engine supplies one carrier (bool for
// scalar evaluation, uint64 lanes for packed simulation, independence
// probabilities, BDD functions, subject-graph nodes) and Fold maps gate
// types onto it, so the meaning of a gate type is stated once, in
// gateTable. The n-ary operations take the whole fanin slice, which is
// always non-empty, so a hot loop pays one call per node rather than
// one per fanin.
type Algebra[T any] interface {
	Const(v bool) T
	Not(x T) T
	And(in []T) T
	Or(in []T) T
	Xor(in []T) T
}

// baseOp is the operation a gate type applies to its fanins before the
// optional output inversion.
type baseOp uint8

const (
	opNone  baseOp = iota // not evaluable: Input, DFF
	opConst               // nullary; the inversion flag is the value
	opIdent               // the single fanin
	opAnd
	opOr
	opXor
)

// gateDesc decomposes a gate type into a base operation plus an output
// inversion, and carries its legal fanin range (max -1 = unbounded).
type gateDesc struct {
	op       baseOp
	inv      bool
	min, max int
}

// gateTable is the single statement of gate semantics. Adding a gate
// type means adding a row here (and a name in gateNames); every carrier
// then evaluates it.
var gateTable = [numGateTypes]gateDesc{
	Input:  {opNone, false, 0, 0},
	Const0: {opConst, false, 0, 0},
	Const1: {opConst, true, 0, 0},
	Buf:    {opIdent, false, 1, 1},
	Not:    {opIdent, true, 1, 1},
	And:    {opAnd, false, 2, -1},
	Or:     {opOr, false, 2, -1},
	Nand:   {opAnd, true, 2, -1},
	Nor:    {opOr, true, 2, -1},
	Xor:    {opXor, false, 2, -1},
	Xnor:   {opXor, true, 2, -1},
	DFF:    {opNone, false, 1, 1},
}

// desc returns the table row of t; types outside the table decompose to
// opNone with no legal fanin.
func (t GateType) desc() gateDesc {
	if t < 0 || t >= numGateTypes {
		return gateDesc{}
	}
	return gateTable[t]
}

// Fold computes a node of type t over its fanin values in the carrier a.
// Const0 and Const1 ignore in; every other type that is not a
// combinational gate yields an *UnsupportedGateError, and a gate with no
// fanin values an error rather than a panic.
func Fold[T any, A Algebra[T]](a A, t GateType, in []T) (T, error) {
	var v T
	d := t.desc()
	if d.op < opIdent || len(in) == 0 {
		if d.op == opConst {
			return a.Const(d.inv), nil
		}
		return v, foldError(t)
	}
	switch d.op {
	case opAnd:
		v = a.And(in)
	case opOr:
		v = a.Or(in)
	case opXor:
		v = a.Xor(in)
	default:
		v = in[0]
	}
	if d.inv {
		v = a.Not(v)
	}
	return v, nil
}

// foldError is the error Fold returns for a type it cannot evaluate, or
// for a gate with no fanin values.
func foldError(t GateType) error {
	if t.IsGate() {
		return fmt.Errorf("logic: %s gate evaluated with no fanin values", t)
	}
	return &UnsupportedGateError{Type: t}
}

// FoldNode folds node n over the dense per-node values val, gathering
// its fanin values into *buf (scratch reused across calls).
func FoldNode[T any, A Algebra[T]](a A, n *Node, val []T, buf *[]T) (T, error) {
	in := (*buf)[:0]
	for _, f := range n.Fanin {
		in = append(in, val[f])
	}
	*buf = in
	return Fold(a, n.Type, in)
}

// Bools is the scalar carrier: one Boolean value per node.
type Bools struct{}

// Const returns v.
func (Bools) Const(v bool) bool { return v }

// Not returns !x.
func (Bools) Not(x bool) bool { return !x }

// And reports whether every input is true.
func (Bools) And(in []bool) bool {
	for _, v := range in {
		if !v {
			return false
		}
	}
	return true
}

// Or reports whether any input is true.
func (Bools) Or(in []bool) bool {
	for _, v := range in {
		if v {
			return true
		}
	}
	return false
}

// Xor reports whether an odd number of inputs are true.
func (Bools) Xor(in []bool) bool {
	p := false
	for _, v := range in {
		p = p != v
	}
	return p
}

// Words is the packed carrier: bit j of a word is the node's value
// under input row (or vector) j, so one fold evaluates 64 rows. The
// exhaustive verifier, the packed simulator and incremental cone
// re-evaluation all fold through it, which is what makes the
// incremental path bit-identical to a full run by construction.
type Words struct{}

// Const returns all ones for true and all zeros for false.
func (Words) Const(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// Not returns the bitwise complement of w.
func (Words) Not(w uint64) uint64 { return ^w }

// And returns the bitwise AND of the inputs.
func (Words) And(in []uint64) uint64 {
	w := in[0]
	for _, x := range in[1:] {
		w &= x
	}
	return w
}

// Or returns the bitwise OR of the inputs.
func (Words) Or(in []uint64) uint64 {
	w := in[0]
	for _, x := range in[1:] {
		w |= x
	}
	return w
}

// Xor returns the bitwise XOR of the inputs.
func (Words) Xor(in []uint64) uint64 {
	w := in[0]
	for _, x := range in[1:] {
		w ^= x
	}
	return w
}
