// Package dontcare computes controllability and observability don't-cares
// of internal network nodes and uses them to re-implement nodes for lower
// power (survey §III.A.1).
//
// The controllability don't-care set of a gate holds the local fanin
// patterns that can never occur; the observability don't-care set holds
// the input conditions under which the gate's value cannot affect any
// primary output. Area-driven simplification with these sets is classic
// ([37]); Shen et al. [38] redirected it at power by assigning don't-care
// minterms so as to push the node's signal probability away from 1/2,
// minimizing 2·p·(1−p) switching activity, and Iman and Pedram [19]
// refined the choice by accounting for the node's transitive fanout.
package dontcare

import (
	"context"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sop"
)

// NodeDC describes the local don't-care environment of one gate.
type NodeDC struct {
	Node   logic.NodeID
	Fanins []logic.NodeID
	// On is the gate's local ON-set cover over its fanins.
	On *sop.Cover
	// DC is the local don't-care cover (CDC ∪ projected ODC patterns).
	DC *sop.Cover
	// PatternProb[i] is the exact probability of local fanin pattern i
	// (bit j of i = value of fanin j), computed from the global BDDs.
	PatternProb []float64
}

// analyzer caches the global BDD view of a network.
type analyzer struct {
	nw *logic.Network
	nb *bdd.NetworkBDDs
}

func newAnalyzer(nw *logic.Network) (*analyzer, error) {
	nb, err := bdd.FromNetwork(context.Background(), nw, bdd.BuildOptions{})
	if err != nil {
		return nil, err
	}
	return &analyzer{nw: nw, nb: nb}, nil
}

// odc returns the observability don't-care function of node id over the
// circuit input variables: the set of input vectors for which flipping the
// node changes no primary output and no flip-flop input.
func (a *analyzer) odc(id logic.NodeID) (bdd.Ref, error) {
	m := a.nb.M
	fn, z, err := a.nb.Cut(a.nw, id)
	if err != nil {
		return bdd.False, err
	}
	// Endpoints: POs and FF D inputs.
	odc := bdd.True
	seen := map[logic.NodeID]bool{}
	endpoint := func(e logic.NodeID) {
		if seen[e] {
			return
		}
		seen[e] = true
		f := fn[e]
		eq := m.Xnor(m.Restrict(f, z, false), m.Restrict(f, z, true))
		odc = m.And(odc, eq)
	}
	for _, po := range a.nw.POs() {
		endpoint(po)
	}
	for _, ff := range a.nw.FFs() {
		endpoint(a.nw.Node(ff).Fanin[0])
	}
	return odc, nil
}

// Analyze computes the local don't-care environment of a gate with
// inputProb giving source probabilities (nil = uniform). useODC controls
// whether observability don't-cares are included (the [19] refinement over
// pure satisfiability/controllability analysis).
func Analyze(nw *logic.Network, id logic.NodeID, inputProb power.Probabilities, useODC bool) (*NodeDC, error) {
	n := nw.Node(id)
	if n == nil || !n.Type.IsGate() {
		return nil, fmt.Errorf("dontcare: node %d is not a gate", id)
	}
	k := len(n.Fanin)
	if k > 12 {
		return nil, fmt.Errorf("dontcare: node %q has %d fanins (max 12)", n.Name, k)
	}
	a, err := newAnalyzer(nw)
	if err != nil {
		return nil, err
	}
	m := a.nb.M
	pv := make([]float64, m.NumVars())
	for i, src := range a.nb.Vars {
		p := 0.5
		if inputProb != nil {
			if q, ok := inputProb[src]; ok {
				p = q
			}
		}
		pv[i] = p
	}
	var odcRef bdd.Ref = bdd.False
	if useODC {
		odcRef, err = a.odc(id)
		if err != nil {
			return nil, err
		}
		// odc added a variable; extend pv.
		for len(pv) < m.NumVars() {
			pv = append(pv, 0.5)
		}
	}

	res := &NodeDC{
		Node:        id,
		Fanins:      append([]logic.NodeID(nil), n.Fanin...),
		On:          localOnSet(n),
		DC:          sop.NewCover(k),
		PatternProb: make([]float64, 1<<k),
	}
	for pat := 0; pat < 1<<k; pat++ {
		// Characteristic function of inputs producing this local pattern.
		cons := bdd.True
		for j, fi := range n.Fanin {
			fj := a.nb.Fn[fi]
			if pat&(1<<j) == 0 {
				fj = m.Not(fj)
			}
			cons = m.And(cons, fj)
		}
		res.PatternProb[pat] = m.Probability(cons, pv)
		isDC := false
		if cons == bdd.False {
			isDC = true // CDC: pattern not producible
		} else if useODC {
			// ODC: every producing input is unobservable.
			if m.And(cons, m.Not(odcRef)) == bdd.False {
				isDC = true
			}
		}
		if isDC {
			cube := make(sop.Cube, k)
			for j := 0; j < k; j++ {
				if pat&(1<<j) != 0 {
					cube[j] = sop.One
				} else {
					cube[j] = sop.Zero
				}
			}
			res.DC.Cubes = append(res.DC.Cubes, cube)
		}
	}
	return res, nil
}

// GlobalODC computes the observability don't-care function of a node over
// the circuit's source variables (PIs then FFs, in declaration order): the
// set of input vectors under which the node's value cannot influence any
// primary output or flip-flop input. Used by guarded evaluation [44],
// which synthesizes this condition into shut-off logic.
func GlobalODC(nw *logic.Network, id logic.NodeID) (m *bdd.Manager, odc bdd.Ref, vars []logic.NodeID, err error) {
	n := nw.Node(id)
	if n == nil || !n.Type.IsGate() {
		return nil, bdd.False, nil, fmt.Errorf("dontcare: node %d is not a gate", id)
	}
	a, err := newAnalyzer(nw)
	if err != nil {
		return nil, bdd.False, nil, err
	}
	odcRef, err := a.odc(id)
	if err != nil {
		return nil, bdd.False, nil, err
	}
	return a.nb.M, odcRef, append([]logic.NodeID(nil), a.nb.Vars...), nil
}

// localOnSet builds the gate's function as a cover over its fanins.
func localOnSet(n *logic.Node) *sop.Cover {
	k := len(n.Fanin)
	cv := sop.NewCover(k)
	in := make([]bool, k)
	for pat := 0; pat < 1<<k; pat++ {
		for j := 0; j < k; j++ {
			in[j] = pat&(1<<j) != 0
		}
		if logic.EvalGate(n.Type, in) {
			cube := make(sop.Cube, k)
			for j := 0; j < k; j++ {
				if in[j] {
					cube[j] = sop.One
				} else {
					cube[j] = sop.Zero
				}
			}
			cv.Cubes = append(cv.Cubes, cube)
		}
	}
	return cv
}
