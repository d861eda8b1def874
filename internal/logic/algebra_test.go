package logic_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/tmap"
)

// gateCase is one gate type at one legal fanin count.
type gateCase struct {
	t logic.GateType
	k int
}

// gateCases lists every gate type and constant at every legal fanin
// count up to 5.
func gateCases() []gateCase {
	var out []gateCase
	for t := logic.Input; t <= logic.DFF; t++ {
		if !t.IsGate() && t != logic.Const0 && t != logic.Const1 {
			continue
		}
		for k := t.MinFanin(); k <= 5; k++ {
			if max := t.MaxFanin(); max >= 0 && k > max {
				break
			}
			out = append(out, gateCase{t, k})
		}
	}
	return out
}

// oneGate builds a network whose single output is one node of type c.t
// over c.k primary inputs.
func oneGate(t *testing.T, c gateCase) (*logic.Network, logic.NodeID) {
	t.Helper()
	nw := logic.New(fmt.Sprintf("%s%d", c.t, c.k))
	pis := make([]logic.NodeID, c.k)
	for i := range pis {
		pis[i] = nw.MustInput(fmt.Sprintf("x%d", i))
	}
	var g logic.NodeID
	var err error
	switch c.t {
	case logic.Const0, logic.Const1:
		g, err = nw.AddConst("g", c.t == logic.Const1)
	default:
		g, err = nw.AddGate("g", c.t, pis...)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(g); err != nil {
		t.Fatal(err)
	}
	return nw, g
}

// assignment returns the fanin values of row m: bit j is input j.
func assignment(m, k int) []bool {
	in := make([]bool, k)
	for j := range in {
		in[j] = m&(1<<j) != 0
	}
	return in
}

// TestCarriersAgree checks every engine's gate-algebra carrier against
// the scalar Bools carrier (itself pinned by TestEvalGateTypes' literal
// truth table): the packed logic.Words carrier that the verifier and the
// packed simulator share, folded directly, then, through each engine's
// public entry point, independence probabilities on {0,1} and on random
// inputs, BDD functions, and the NAND2/INV subject graph in both
// decomposition shapes.
func TestCarriersAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, c := range gateCases() {
		nw, g := oneGate(t, c)
		rows := 1 << c.k
		want := make([]bool, rows)
		vectors := make([][]bool, rows)
		for m := range want {
			vectors[m] = assignment(m, c.k)
			want[m] = logic.EvalGate(c.t, vectors[m])
		}

		words := make([]uint64, c.k)
		for m, v := range vectors {
			for j, b := range v {
				if b {
					words[j] |= 1 << m
				}
			}
		}
		packed, err := logic.Fold(logic.Words{}, c.t, words)
		if err != nil {
			t.Fatal(err)
		}
		for m, w := range want {
			if got := packed>>m&1 == 1; got != w {
				t.Errorf("%s/%d: packed lane %d = %v, want %v", c.t, c.k, m, got, w)
			}
		}

		nb, err := bdd.FromNetwork(context.Background(), nw, bdd.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for m, w := range want {
			if got := nb.M.Eval(nb.Fn[g], vectors[m]); got != w {
				t.Errorf("%s/%d: bdd row %d = %v, want %v", c.t, c.k, m, got, w)
			}
		}

		for m, w := range want {
			in := make(power.Probabilities)
			for j, pi := range nw.PIs() {
				if vectors[m][j] {
					in[pi] = 1
				} else {
					in[pi] = 0
				}
			}
			p := propagated(t, nw, in)[g]
			if (p == 1) != w || (p != 0 && p != 1) {
				t.Errorf("%s/%d: probability on row %d = %v, want %v", c.t, c.k, m, p, w)
			}
		}
		for trial := 0; trial < 5; trial++ {
			in := make(power.Probabilities)
			q := make([]float64, c.k)
			for j, pi := range nw.PIs() {
				q[j] = r.Float64()
				in[pi] = q[j]
			}
			exact := 0.0
			for m, w := range want {
				if !w {
					continue
				}
				pr := 1.0
				for j, v := range vectors[m] {
					if v {
						pr *= q[j]
					} else {
						pr *= 1 - q[j]
					}
				}
				exact += pr
			}
			if p := propagated(t, nw, in)[g]; math.Abs(p-exact) > 1e-12 {
				t.Errorf("%s/%d: probability %v, enumeration %v", c.t, c.k, p, exact)
			}
		}

		for _, balanced := range []bool{false, true} {
			s, err := tmap.DecomposeWith(nw, tmap.DecomposeOptions{Balanced: balanced})
			if err != nil {
				t.Fatal(err)
			}
			tt, err := s.Net.TruthTable()
			if err != nil {
				t.Fatal(err)
			}
			for m, w := range want {
				if got := tt[0][m/64]>>(m%64)&1 == 1; got != w {
					t.Errorf("%s/%d (balanced %v): subject graph row %d = %v, want %v", c.t, c.k, balanced, m, got, w)
				}
			}
		}
	}
}

func propagated(t *testing.T, nw *logic.Network, in power.Probabilities) power.Probabilities {
	t.Helper()
	p, err := power.PropagatedProbabilities(nw, in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFoldRejects covers Fold's error paths: sources and unknown types
// are unsupported, and a gate with no fanin values is an error, not a
// panic.
func TestFoldRejects(t *testing.T) {
	for _, gt := range []logic.GateType{logic.Input, logic.DFF, logic.GateType(99), logic.GateType(-1)} {
		_, err := logic.Fold(logic.Bools{}, gt, []bool{true})
		var ue *logic.UnsupportedGateError
		if !errors.As(err, &ue) || ue.Type != gt {
			t.Errorf("Fold(%s) error = %v, want *UnsupportedGateError", gt, err)
		}
	}
	if _, err := logic.Fold(logic.Bools{}, logic.And, nil); err == nil {
		t.Error("Fold(and) with no fanin values should fail")
	}
	if v, err := logic.Fold(logic.Bools{}, logic.Const1, nil); err != nil || !v {
		t.Errorf("Fold(const1) = %v, %v", v, err)
	}
}
