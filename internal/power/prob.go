package power

import (
	"context"
	"math/rand"

	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// Probabilities holds per-node static signal probabilities: the probability
// that the node's output is 1 in a randomly chosen cycle.
type Probabilities map[logic.NodeID]float64

// Activity converts signal probabilities to zero-delay switching activity
// under the temporal-independence assumption: a net with probability p
// toggles with probability 2·p·(1−p) per cycle.
func (ps Probabilities) Activity(id logic.NodeID) float64 {
	p := ps[id]
	return 2 * p * (1 - p)
}

// PropagatedProbabilities computes approximate signal probabilities by
// forward propagation assuming spatial independence of gate inputs — fast
// but inexact under reconvergent fanout. XOR-class gates use the closed
// form for independent inputs.
func PropagatedProbabilities(nw *logic.Network, inputProb Probabilities) (Probabilities, error) {
	out := make(Probabilities)
	for _, src := range append(append([]logic.NodeID(nil), nw.PIs()...), nw.FFs()...) {
		p, ok := inputProb[src]
		if !ok {
			p = 0.5
		}
		out[src] = p
	}
	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	propagated := 0
	var buf []float64
	for _, id := range order {
		n := nw.Node(id)
		p, counted, err := propagateNode(n, out, &buf)
		if err != nil {
			return nil, err
		}
		out[id] = p
		if counted {
			propagated++
		}
	}
	obsv.Default().Counter("power.prop.nodes").Add(int64(propagated))
	return out, nil
}

// propagateNode computes one node's propagated probability from the
// already-filled table of its fanins. It is the single propagation kernel
// shared by the full forward pass and incremental cone re-propagation
// (IncrementalEstimator), so the two paths are bit-identical by
// construction — same fanin read order, same float operations. The
// second result reports whether the node went through a gate rule (what
// the power.prop.nodes counter counts); buf is scratch reused across
// calls.
func propagateNode(n *logic.Node, table Probabilities, buf *[]float64) (float64, bool, error) {
	ps := (*buf)[:0]
	for _, f := range n.Fanin {
		ps = append(ps, table[f])
	}
	*buf = ps
	p, err := logic.Fold(independent{}, n.Type, ps)
	return p, n.Type != logic.Const0 && n.Type != logic.Const1, err
}

// independent is the probability carrier of the gate algebra under
// spatial independence of the fanins. The operation order is fixed:
// And is the product, Or the complement of the product of complements,
// and Xor the closed form (1 - prod(1-2p_i)) / 2 for P(odd number of ones).
type independent struct{}

func (independent) Const(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func (independent) Not(p float64) float64 { return 1 - p }

func (independent) And(ps []float64) float64 {
	p := 1.0
	for _, q := range ps {
		p *= q
	}
	return p
}

func (independent) Or(ps []float64) float64 {
	p := 1.0
	for _, q := range ps {
		p *= 1 - q
	}
	return 1 - p
}

func (independent) Xor(ps []float64) float64 {
	prod := 1.0
	for _, q := range ps {
		prod *= 1 - 2*q
	}
	return (1 - prod) / 2
}

// SequentialProbabilities estimates flip-flop output probabilities by
// warm-up simulation under random primary inputs with the given bias, then
// returns a Probabilities map covering the PIs (set to piProb) and FFs
// (measured). This is the simulation-based abstraction of Monteiro and
// Devadas [28]: the combinational estimators can then treat FF outputs as
// independent sources.
func SequentialProbabilities(nw *logic.Network, r *rand.Rand, cycles int, piProb float64) (Probabilities, error) {
	st := logic.NewState(nw)
	ones := make(map[logic.NodeID]int)
	in := make([]bool, len(nw.PIs()))
	for c := 0; c < cycles; c++ {
		for i := range in {
			in[i] = r.Float64() < piProb
		}
		if _, err := st.Step(in); err != nil {
			return nil, err
		}
		for _, f := range nw.FFs() {
			if st.Value(f) {
				ones[f]++
			}
		}
	}
	out := make(Probabilities)
	for _, pi := range nw.PIs() {
		out[pi] = piProb
	}
	for _, f := range nw.FFs() {
		if cycles > 0 {
			out[f] = float64(ones[f]) / float64(cycles)
		} else {
			out[f] = 0.5
		}
	}
	return out, nil
}

// EstimatePropagated produces an Eqn. 1 report from propagated
// (independence-assumption) zero-delay activity.
func EstimatePropagated(nw *logic.Network, p Params, cm CapModel, inputProb Probabilities) (Report, error) {
	ps, err := PropagatedProbabilities(nw, inputProb)
	if err != nil {
		return Report{}, err
	}
	return Evaluate(nw, p, cm, ps.Activity), nil
}

// EstimateSimulatedParallelCtx produces an Eqn. 1 report from measured
// event-driven activity over the supplied vectors, capturing glitch power
// that the zero-delay estimators miss. It returns the report and the
// simulation totals. The simulation is sharded across workers (0 =
// GOMAXPROCS, 1 = sequential); any worker count produces the same report
// bit for bit, because the vector stream is chunked deterministically and
// each shard warm-starts from the exact settled state at its boundary
// (see sim.MeasureRunCtx). Cancellation of ctx stops the run before it
// starts, and a trace carried by ctx (internal/obsv/trace) gains the
// simulation span.
func EstimateSimulatedParallelCtx(ctx context.Context, nw *logic.Network, p Params, cm CapModel, dm sim.DelayModel, vectors [][]bool, workers int) (Report, sim.Totals, error) {
	m, err := sim.MeasureRunCtx(ctx, nw, dm, vectors, workers)
	if err != nil {
		return Report{}, sim.Totals{}, err
	}
	return evaluateMeasured(nw, p, cm, vectors, m.Activity), m.Totals, nil
}

// evaluateMeasured is Evaluate over activity measured by simulating
// vectors: each primary input's activity comes from the vector stream
// itself (the simulators do not charge source nets), every other node's
// from act.
func evaluateMeasured(nw *logic.Network, p Params, cm CapModel, vectors [][]bool, act func(logic.NodeID) float64) Report {
	piAct := piActivity(nw, vectors)
	return Evaluate(nw, p, cm, func(id logic.NodeID) float64 {
		if a, ok := piAct[id]; ok {
			return a
		}
		return act(id)
	})
}

// piActivity measures each primary input's activity from the vector
// stream itself (the simulator does not charge source nets).
func piActivity(nw *logic.Network, vectors [][]bool) map[logic.NodeID]float64 {
	piAct := make(map[logic.NodeID]float64)
	if len(vectors) == 0 {
		return piAct
	}
	for i, pi := range nw.PIs() {
		tr := 0
		prev := false
		for c, v := range vectors {
			if c == 0 {
				prev = v[i]
				if prev { // initial settle from all-zero reset
					tr++
				}
				continue
			}
			if v[i] != prev {
				tr++
				prev = v[i]
			}
		}
		piAct[pi] = float64(tr) / float64(len(vectors))
	}
	return piAct
}

// EstimateZeroDelayPacked produces an Eqn. 1 report from the bit-parallel
// packed engine (sim.PackedSimulator): measured zero-delay activity at 64
// vectors per machine word. It is the fast path for Monte Carlo power
// estimation on combinational networks when glitch power is not needed —
// its per-node activity equals the useful (zero-delay) component of
// EstimateSimulatedParallelCtx over the same vectors.
func EstimateZeroDelayPacked(nw *logic.Network, p Params, cm CapModel, vectors [][]bool) (Report, sim.Totals, error) {
	ps, err := sim.NewPacked(nw)
	if err != nil {
		return Report{}, sim.Totals{}, err
	}
	tot, err := ps.Run(vectors)
	if err != nil {
		return Report{}, sim.Totals{}, err
	}
	return evaluateMeasured(nw, p, cm, vectors, ps.Activity), tot, nil
}

// EstimateSimulatedWith is EstimateSimulatedParallelCtx with a sim.Tracer
// attached to the internal simulator for the duration of the run. The
// power-attribution profiler (internal/obsv/profile) uses this to observe
// every transition — including the glitch pulses — of exactly the run
// whose total the report states, so per-node attribution sums to the
// reported power by construction.
func EstimateSimulatedWith(nw *logic.Network, p Params, cm CapModel, dm sim.DelayModel, vectors [][]bool, tracer sim.Tracer) (Report, sim.Totals, error) {
	if tracer == nil {
		return EstimateSimulatedParallelCtx(context.Background(), nw, p, cm, dm, vectors, 0)
	}
	// A tracer observes every transition in stream order, so the traced
	// run stays on the single sequential simulator.
	s, err := sim.New(nw, dm)
	if err != nil {
		return Report{}, sim.Totals{}, err
	}
	s.SetTracer(tracer)
	tot, err := s.Run(vectors)
	if err != nil {
		return Report{}, sim.Totals{}, err
	}
	return evaluateMeasured(nw, p, cm, vectors, s.Activity), tot, nil
}
