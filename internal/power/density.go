package power

import (
	"context"
	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// TransitionDensities computes per-node transition densities by Najm's
// propagation rule (the survey's §IV.A points at Najm's estimation survey
// [31] for gate-level tooling):
//
//	D(y) = Σ_i P(∂y/∂x_i) · D(x_i)
//
// where ∂y/∂x_i = y|x=1 ⊕ y|x=0 is the Boolean difference, its
// probability computed exactly on the global BDDs. inputDensity maps
// source nodes (PIs, FFs) to their transition density (average transitions
// per cycle, e.g. 2·p·(1−p) for temporally independent sources or a
// measured rate); inputProb gives their static probabilities (nil =
// uniform). Unlike the zero-delay pair model, density propagation
// accounts for a net transitioning more than once per cycle — it is the
// standard upper-level estimate of glitch-inclusive activity.
func TransitionDensities(nw *logic.Network, inputDensity map[logic.NodeID]float64, inputProb Probabilities) (map[logic.NodeID]float64, error) {
	nb, err := bdd.FromNetwork(context.Background(), nw, bdd.BuildOptions{})
	if err != nil {
		return nil, err
	}
	m := nb.M
	pv := make([]float64, m.NumVars())
	for i, src := range nb.Vars {
		p := 0.5
		if inputProb != nil {
			if q, ok := inputProb[src]; ok {
				p = q
			}
		}
		pv[i] = p
	}
	density := make(map[logic.NodeID]float64, len(nb.Fn))
	for i, src := range nb.Vars {
		d := 0.5
		if inputDensity != nil {
			if v, ok := inputDensity[src]; ok {
				d = v
			}
		}
		density[src] = d
		_ = i
	}
	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	diffs := 0
	for _, id := range order {
		n := nw.Node(id)
		f := nb.Fn[id]
		if !n.Type.IsGate() {
			density[id] = 0 // constants
			continue
		}
		total := 0.0
		for _, vi := range m.Support(f) {
			diff := m.Xor(m.Restrict(f, vi, true), m.Restrict(f, vi, false))
			src := nb.Vars[vi]
			total += m.Probability(diff, pv) * density[src]
			diffs++
		}
		density[id] = total
	}
	obsv.Default().Counter("power.density.diffs").Add(int64(diffs))
	return density, nil
}

// EstimateDensity produces an Eqn. 1 report from propagated transition
// densities — the glitch-aware probabilistic estimator sitting between
// the zero-delay exact estimate and full event-driven simulation.
func EstimateDensity(nw *logic.Network, p Params, cm CapModel, inputDensity map[logic.NodeID]float64, inputProb Probabilities) (Report, error) {
	dens, err := TransitionDensities(nw, inputDensity, inputProb)
	if err != nil {
		return Report{}, err
	}
	return Evaluate(nw, p, cm, func(id logic.NodeID) float64 { return dens[id] }), nil
}
