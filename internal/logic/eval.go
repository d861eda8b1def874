package logic

import "fmt"

// UnsupportedGateError is the typed error returned when evaluation is
// asked to compute a node type that is not a combinational gate or a
// constant.
type UnsupportedGateError struct {
	Type GateType
}

func (e *UnsupportedGateError) Error() string {
	return fmt.Sprintf("logic: unsupported gate type %s", e.Type)
}

// EvalGate computes the output of a gate of type t given its fanin values:
// Fold over Bools. It panics where Fold returns an error: it is the
// Must-style helper for validated paths (simulator inner loops,
// generators) where the network has already passed construction-time
// checks. Whole-network evaluation should go through Network.EvalComb or
// State.Step, which return typed errors.
func EvalGate(t GateType, in []bool) bool {
	v, err := Fold(Bools{}, t, in)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// State holds the present values of every node in a network during
// cycle-by-cycle zero-delay evaluation.
type State struct {
	nw  *Network
	val []bool
	buf []bool // fanin values gathered for one node
}

// NewState allocates an evaluation state with all flip-flops at their
// initial values.
func NewState(nw *Network) *State {
	s := &State{nw: nw, val: make([]bool, len(nw.nodes))}
	s.Reset()
	return s
}

// Reset restores every flip-flop to its initial value and clears all other
// node values.
func (s *State) Reset() {
	for i := range s.val {
		s.val[i] = false
	}
	for _, f := range s.nw.ffs {
		s.val[f] = s.nw.nodes[f].InitVal
	}
}

// Value returns the present value of a node.
func (s *State) Value(id NodeID) bool { return s.val[id] }

// SetFF forces a flip-flop output value; used to seed particular states.
func (s *State) SetFF(id NodeID, v bool) { s.val[id] = v }

// SetValue forces any node's present value without clocking; used by
// analyses that probe combinational settling (e.g. register hold
// detection) before applying a real Step.
func (s *State) SetValue(id NodeID, v bool) { s.val[id] = v }

// Step applies one clock cycle: primary inputs are set from in (indexed by
// PI position), the combinational logic settles under the zero-delay model,
// primary output values are returned in PO order, and then all flip-flops
// load their D inputs.
func (s *State) Step(in []bool) ([]bool, error) {
	if len(in) != len(s.nw.pis) {
		return nil, fmt.Errorf("logic: Step got %d inputs, network has %d", len(in), len(s.nw.pis))
	}
	for i, pi := range s.nw.pis {
		s.val[pi] = in[i]
	}
	if err := s.settle(); err != nil {
		return nil, err
	}
	out := make([]bool, len(s.nw.pos))
	for i, po := range s.nw.pos {
		out[i] = s.val[po]
	}
	next := make([]bool, len(s.nw.ffs))
	for i, f := range s.nw.ffs {
		next[i] = s.val[s.nw.nodes[f].Fanin[0]]
	}
	for i, f := range s.nw.ffs {
		s.val[f] = next[i]
	}
	return out, nil
}

// Settle evaluates the combinational logic under the current input and
// flip-flop values without clocking the flip-flops.
func (s *State) Settle() error { return s.settle() }

func (s *State) settle() error {
	order, err := s.nw.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		v, err := FoldNode(Bools{}, s.nw.nodes[id], s.val, &s.buf)
		if err != nil {
			return err
		}
		s.val[id] = v
	}
	return nil
}

// EvalComb evaluates a purely combinational network for one input vector
// (indexed by PI position) and returns the PO values. It is a convenience
// wrapper over State for networks without flip-flops.
func (nw *Network) EvalComb(in []bool) ([]bool, error) {
	if len(nw.ffs) != 0 {
		return nil, fmt.Errorf("logic: EvalComb on sequential network %q", nw.Name)
	}
	s := NewState(nw)
	return s.Step(in)
}

// MaxExhaustiveInputs is the widest network TruthTable and Equivalent
// enumerate: 2^20 rows, 16,384 packed blocks.
const MaxExhaustiveInputs = 20

// ExhaustiveBlocks is the number of 64-row blocks TruthTable and
// Equivalent evaluate per network of n inputs.
func ExhaustiveBlocks(n int) int { return 1 << max(0, n-6) }

// rowPatterns are the input words of PIs 0-5 in every 64-row block: bit m
// of rowPatterns[j] is bit j of m, so lane m holds row 64*b + m.
var rowPatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// blockEval evaluates a combinational network over its exhaustive input
// space 64 rows at a time: block b holds rows 64*b .. 64*b+63, where bit j
// of a row is PI j's value. It allocates only at construction, O(nodes).
type blockEval struct {
	nw     *Network
	order  []*Node
	val    []uint64 // packed row values per node
	buf    []uint64 // fanin words gathered for one node
	mask   uint64   // valid lanes: all 64 unless the network has < 6 inputs
	blocks int
}

func newBlockEval(nw *Network) (*blockEval, error) {
	n := len(nw.pis)
	if n > MaxExhaustiveInputs {
		return nil, fmt.Errorf("logic: exhaustive evaluation of %q on %d inputs (max %d)", nw.Name, n, MaxExhaustiveInputs)
	}
	if len(nw.ffs) != 0 {
		return nil, fmt.Errorf("logic: exhaustive evaluation of sequential network %q", nw.Name)
	}
	ids, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &blockEval{nw: nw, order: make([]*Node, len(ids)), val: make([]uint64, len(nw.nodes)),
		mask: ^uint64(0), blocks: ExhaustiveBlocks(n)}
	for i, id := range ids {
		e.order[i] = nw.nodes[id]
	}
	if n < 6 {
		e.mask = 1<<(1<<n) - 1
	}
	return e, nil
}

// eval settles block b: PIs 0-5 take the fixed row patterns, PIs 6 and
// up a constant word from bit j-6 of the block index.
func (e *blockEval) eval(b int) error {
	for j, pi := range e.nw.pis {
		w := uint64(0)
		switch {
		case j < len(rowPatterns):
			w = rowPatterns[j]
		case b>>(j-len(rowPatterns))&1 == 1:
			w = ^uint64(0)
		}
		e.val[pi] = w
	}
	for _, n := range e.order {
		w, err := FoldNode(Words{}, n, e.val, &e.buf)
		if err != nil {
			return err
		}
		e.val[n.ID] = w
	}
	return nil
}

// po returns output i's word of the settled block, rows beyond 2^n masked.
func (e *blockEval) po(i int) uint64 { return e.val[e.nw.pos[i]] & e.mask }

// TruthTable enumerates all 2^n input vectors of a combinational network
// with n <= MaxExhaustiveInputs primary inputs and returns, for each
// primary output, a bitset of minterms where the output is 1 (bit i
// corresponds to the input vector whose bit j is PI j's value, PI 0 least
// significant).
func (nw *Network) TruthTable() ([][]uint64, error) {
	e, err := newBlockEval(nw)
	if err != nil {
		return nil, err
	}
	tt := make([][]uint64, len(nw.pos))
	for i := range tt {
		tt[i] = make([]uint64, e.blocks)
	}
	for b := 0; b < e.blocks; b++ {
		if err := e.eval(b); err != nil {
			return nil, err
		}
		for i := range tt {
			tt[i][b] = e.po(i)
		}
	}
	return tt, nil
}

// Equivalent reports whether two combinational networks with the same
// number of inputs and outputs compute the same functions, by exhaustive
// simulation (inputs and outputs are matched by position). Both networks
// are evaluated block by block in lockstep, so memory is O(nodes) whatever
// the number of outputs, and the first differing block ends the check.
// Both must have <= MaxExhaustiveInputs inputs.
func Equivalent(a, b *Network) (bool, error) {
	if len(a.pis) != len(b.pis) || len(a.pos) != len(b.pos) {
		return false, fmt.Errorf("logic: Equivalent on mismatched interfaces (%d/%d inputs, %d/%d outputs)",
			len(a.pis), len(b.pis), len(a.pos), len(b.pos))
	}
	ea, err := newBlockEval(a)
	if err != nil {
		return false, err
	}
	eb, err := newBlockEval(b)
	if err != nil {
		return false, err
	}
	for blk := 0; blk < ea.blocks; blk++ {
		if err := ea.eval(blk); err != nil {
			return false, err
		}
		if err := eb.eval(blk); err != nil {
			return false, err
		}
		for i := range a.pos {
			if ea.po(i) != eb.po(i) {
				return false, nil
			}
		}
	}
	return true, nil
}
