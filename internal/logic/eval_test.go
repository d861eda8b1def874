package logic_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// randomComb builds a seeded random combinational DAG over nin inputs:
// every gate type at fanin 1-4, constants, repeated fanins, and a PO on
// an input or a constant now and then, so the packed evaluator sees every
// node shape a netlist can hold.
func randomComb(t *testing.T, r *rand.Rand, nin, ngates int) *logic.Network {
	t.Helper()
	nw := logic.New(fmt.Sprintf("rand%d", nin))
	var pool []logic.NodeID
	for i := 0; i < nin; i++ {
		pool = append(pool, nw.MustInput(fmt.Sprintf("i%d", i)))
	}
	for i, v := range []bool{false, true} {
		c, err := nw.AddConst(fmt.Sprintf("c%d", i), v)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, c)
	}
	types := []logic.GateType{
		logic.Buf, logic.Not, logic.And, logic.Or,
		logic.Nand, logic.Nor, logic.Xor, logic.Xnor,
	}
	for g := 0; g < ngates; g++ {
		ty := types[r.Intn(len(types))]
		k := 1
		if ty.MinFanin() >= 2 {
			k = 2 + r.Intn(3)
		}
		fanin := make([]logic.NodeID, k)
		for i := range fanin {
			// Favour recent nodes so the DAG gets deep, not just wide.
			lo := 0
			if len(pool) > 8 && r.Intn(3) > 0 {
				lo = len(pool) - 8
			}
			fanin[i] = pool[lo+r.Intn(len(pool)-lo)]
		}
		id, err := nw.AddGate(fmt.Sprintf("g%d", g), ty, fanin...)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, id)
	}
	for i := 0; i < 5; i++ {
		if err := nw.MarkOutput(pool[len(pool)-1-r.Intn(min(len(pool), 12))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.MarkOutput(pool[r.Intn(len(pool))]); err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestTruthTableMatchesEvalComb pins the packed truth table to the scalar
// evaluator row by row on random DAGs. Widths below 6 exercise the lane
// mask (one partial block), 6 exactly one full block, and 7 and up the
// block-index bits of the wide inputs.
func TestTruthTableMatchesEvalComb(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 5, 6, 7, 12, 17} {
		nw := randomComb(t, r, n, 40)
		tt, err := nw.TruthTable()
		if err != nil {
			t.Fatal(err)
		}
		rows := 1 << n
		for i := range tt {
			if want := (rows + 63) / 64; len(tt[i]) != want {
				t.Fatalf("n=%d: output %d has %d words, want %d", n, i, len(tt[i]), want)
			}
		}
		if n < 6 {
			for i := range tt {
				if extra := tt[i][0] >> uint(rows); extra != 0 {
					t.Errorf("n=%d: output %d sets rows beyond 2^n: %#x", n, i, tt[i][0])
				}
			}
		}
		in := make([]bool, n)
		for m := 0; m < rows; m++ {
			for j := range in {
				in[j] = m>>j&1 == 1
			}
			out, err := nw.EvalComb(in)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if got := tt[i][m/64]>>(m%64)&1 == 1; got != v {
					t.Fatalf("n=%d: output %d row %d = %v, EvalComb %v", n, i, m, got, v)
				}
			}
		}
	}
}

// wideGate builds a network whose single output is one t gate over n
// inputs, or the constant v when t is Const0/Const1.
func wideGate(t *testing.T, ty logic.GateType, n int) *logic.Network {
	t.Helper()
	nw := logic.New(fmt.Sprintf("%s%d", ty, n))
	pis := make([]logic.NodeID, n)
	for i := range pis {
		pis[i] = nw.MustInput(fmt.Sprintf("x%d", i))
	}
	var g logic.NodeID
	var err error
	if ty == logic.Const0 || ty == logic.Const1 {
		g, err = nw.AddConst("g", ty == logic.Const1)
	} else {
		g, err = nw.AddGate("g", ty, pis...)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(g); err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestEquivalentSingleMinterm checks that the lockstep comparison sees a
// one-row difference at either end of the 20-input space: an AND differs
// from constant 0 only on the all-ones row (the last row of the last
// block), an OR from constant 1 only on row 0.
func TestEquivalentSingleMinterm(t *testing.T) {
	n := logic.MaxExhaustiveInputs
	and := wideGate(t, logic.And, n)
	for _, c := range []struct {
		a, b *logic.Network
		want bool
	}{
		{and, and.Clone(), true},
		{and, wideGate(t, logic.Const0, n), false},
		{wideGate(t, logic.Or, n), wideGate(t, logic.Const1, n), false},
	} {
		eq, err := logic.Equivalent(c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if eq != c.want {
			t.Errorf("Equivalent(%s, %s) = %v, want %v", c.a.Name, c.b.Name, eq, c.want)
		}
	}
}

// TestExhaustiveRejects covers the verifier's refusals: too wide,
// sequential, and mismatched interfaces are errors, not answers.
func TestExhaustiveRejects(t *testing.T) {
	wide := wideGate(t, logic.And, logic.MaxExhaustiveInputs+1)
	if _, err := wide.TruthTable(); err == nil {
		t.Error("TruthTable accepted a network wider than MaxExhaustiveInputs")
	}
	if _, err := logic.Equivalent(wide, wide.Clone()); err == nil {
		t.Error("Equivalent accepted a network wider than MaxExhaustiveInputs")
	}
	seq := logic.New("seq")
	x := seq.MustInput("x")
	q, err := seq.AddDFF("q", x, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.MarkOutput(q); err != nil {
		t.Fatal(err)
	}
	if _, err := seq.TruthTable(); err == nil {
		t.Error("TruthTable accepted a sequential network")
	}
	if _, err := logic.Equivalent(wideGate(t, logic.Buf, 1), seq); err == nil {
		t.Error("Equivalent accepted a sequential network")
	}
	if _, err := logic.Equivalent(wideGate(t, logic.And, 3), wideGate(t, logic.And, 4)); err == nil {
		t.Error("Equivalent accepted mismatched interfaces")
	}
}
