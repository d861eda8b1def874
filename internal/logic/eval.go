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

// TruthTable enumerates all 2^n input vectors of a combinational network
// with n <= 20 primary inputs and returns, for each primary output, a
// bitset of minterms where the output is 1 (bit i corresponds to the input
// vector whose bit j is PI j's value, PI 0 least significant).
func (nw *Network) TruthTable() ([][]uint64, error) {
	n := len(nw.pis)
	if n > 20 {
		return nil, fmt.Errorf("logic: TruthTable on %d inputs (max 20)", n)
	}
	if len(nw.ffs) != 0 {
		return nil, fmt.Errorf("logic: TruthTable on sequential network %q", nw.Name)
	}
	rows := 1 << n
	words := (rows + 63) / 64
	tt := make([][]uint64, len(nw.pos))
	for i := range tt {
		tt[i] = make([]uint64, words)
	}
	st := NewState(nw)
	in := make([]bool, n)
	for m := 0; m < rows; m++ {
		for j := 0; j < n; j++ {
			in[j] = m&(1<<j) != 0
		}
		out, err := st.Step(in)
		if err != nil {
			return nil, err
		}
		for i, v := range out {
			if v {
				tt[i][m/64] |= 1 << (m % 64)
			}
		}
	}
	return tt, nil
}

// Equivalent reports whether two combinational networks with the same
// number of inputs and outputs compute the same functions, by exhaustive
// simulation (inputs are matched by position). Both must have <= 20 inputs.
func Equivalent(a, b *Network) (bool, error) {
	if len(a.PIs()) != len(b.PIs()) || len(a.POs()) != len(b.POs()) {
		return false, fmt.Errorf("logic: Equivalent on mismatched interfaces (%d/%d inputs, %d/%d outputs)",
			len(a.PIs()), len(b.PIs()), len(a.POs()), len(b.POs()))
	}
	ta, err := a.TruthTable()
	if err != nil {
		return false, err
	}
	tb, err := b.TruthTable()
	if err != nil {
		return false, err
	}
	for i := range ta {
		for w := range ta[i] {
			if ta[i][w] != tb[i][w] {
				return false, nil
			}
		}
	}
	return true, nil
}
