package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
)

// Response shapes the checks read.

type estimateResp struct {
	Estimator string `json:"estimator"`
	Power     struct {
		Total    float64 `json:"total"`
		Degraded bool    `json:"degraded"`
	} `json:"power"`
	SpuriousFraction *float64 `json:"spurious_fraction"`
}

type flowResp struct {
	Flow   string            `json:"flow"`
	Passes []string          `json:"passes"`
	Steps  []json.RawMessage `json:"steps"`
}

// Sizes of the seeded post-window check samples.
const (
	refPerEstimator = 4 // estimate-cold: reference checks per estimator
	flowReplays     = 6 // flow-verify: fresh-server replays
)

// checkRun applies the output checks to the measured requests. Requests
// with a wrong output are marked failed; the returned violations are
// run-level failures of the cold-path guard.
func checkRun(w *workload, m *measured, seed int64, before, after metricsSnapshot) []string {
	var violations []string
	for p := range m.samples {
		if m.ok(p) {
			if why := checkShape(m.req(p), m.bodies[p]); why != "" {
				m.failed[p] = why
			}
		}
	}
	served := 0
	for _, s := range m.samples {
		if s.cache == cacheHit || s.cache == cacheCoalesced {
			served++
		}
	}
	if served > 0 {
		violations = append(violations, fmt.Sprintf("cold-path guard: %d responses came from the result cache or a coalesced flight", served))
	}
	// Every measured request must miss the result cache and be computed
	// once, by its own flight leader. (A leader looks the key up twice,
	// before and after winning the flight, so the miss counter itself
	// advances by at least the request count.)
	n := float64(len(m.samples))
	hits := after.counter("server.cache.result.hits") - before.counter("server.cache.result.hits")
	misses := after.counter("server.cache.result.misses") - before.counter("server.cache.result.misses")
	leaders := after.counter("server.coalesce.leaders") - before.counter("server.coalesce.leaders")
	if hits != 0 || leaders != n || misses < n {
		violations = append(violations, fmt.Sprintf("cold-path guard: %v requests but result-cache hits %v, misses %v, computations %v", n, hits, misses, leaders))
	}
	r := rand.New(rand.NewSource(seed ^ 0x636865636b)) // "check"
	switch w.name {
	case "estimate-cold":
		checkReferences(m, r)
	case "flow-verify":
		replayFresh(m, r)
	}
	return violations
}

// checkShape decodes a body and checks it answers the request.
func checkShape(r *request, body []byte) string {
	switch {
	case r.est != nil:
		var e estimateResp
		if err := json.Unmarshal(body, &e); err != nil {
			return "undecodable estimate: " + err.Error()
		}
		if e.Estimator != r.est.Estimator || !(e.Power.Total > 0) || math.IsInf(e.Power.Total, 0) {
			return fmt.Sprintf("estimate answers estimator %q with total %v", e.Estimator, e.Power.Total)
		}
	case r.flow != nil:
		var f flowResp
		if err := json.Unmarshal(body, &f); err != nil {
			return "undecodable flow: " + err.Error()
		}
		if f.Flow != r.flow.Flow || len(f.Steps) != len(f.Passes)+1 {
			return fmt.Sprintf("flow %q has %d steps for %d passes", f.Flow, len(f.Steps), len(f.Passes))
		}
	}
	return ""
}

// replayFresh sends a seeded sample of flowReplays successful requests,
// one at a time, to a fresh server and fails each whose measured body
// differs from the fresh one.
func replayFresh(m *measured, r *rand.Rand) {
	var ps []int
	for p := range m.samples {
		if m.ok(p) {
			ps = append(ps, p)
		}
	}
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	if len(ps) > flowReplays {
		ps = ps[:flowReplays]
	}
	fresh := server.New(server.Config{}).Handler()
	for _, p := range ps {
		q := m.req(p)
		rec := httptest.NewRecorder()
		fresh.ServeHTTP(rec, httptest.NewRequest("POST", q.path, bytes.NewReader(q.body)))
		if rec.Code != 200 || bodySum(rec.Body.Bytes()) != m.samples[p].sum {
			m.failed[p] = "body differs from a single-client replay on a fresh server"
		}
	}
}

// checkReferences checks a seeded, per-estimator sample of estimate
// responses against independent references (see checkEstimate).
func checkReferences(m *measured, r *rand.Rand) {
	by := make(map[string][]int)
	for p := range m.samples {
		if e := m.req(p).est; e != nil && m.ok(p) {
			by[e.Estimator] = append(by[e.Estimator], p)
		}
	}
	for _, e := range estimators {
		ps := by[e]
		r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		for k := 0; k < refPerEstimator && k < len(ps); k++ {
			if err := checkEstimate(m.req(ps[k]).est, m.bodies[ps[k]]); err != nil {
				m.failed[ps[k]] = "reference check: " + err.Error()
			}
		}
	}
}

// Monte Carlo reference: mcBatches independent packed runs of
// mcBatchVectors vectors each. Statistical agreement means a difference
// within mcSigmas standard errors, the standard error being estimated
// from the spread of the batch totals, plus the bias bound of one
// counted reset transition per node per run.
const (
	mcBatches      = 16
	mcBatchVectors = 4096
	mcSigmas       = 6
	exactRelTol    = 1e-9
)

// checkEstimate recomputes one estimate independently of the server:
//
//   - exact (not degraded) with <= 16 inputs: exhaustive enumeration of
//     all input vectors weighted by p1 (logic.State, one vector at a
//     time) gives exact signal probabilities; totals must agree to 1e-9.
//   - exact with more inputs: agreement with the packed Monte Carlo
//     reference within the statistical tolerance.
//   - exact degraded to Monte Carlo, and packed: the response is itself
//     a Monte Carlo estimate over req.Vectors vectors; it must agree
//     with the exhaustive (or Monte Carlo) reference within the
//     combined statistical tolerance.
//   - propagated: an independent forward propagation under the
//     independence assumption, enumerating each gate's fanin
//     combinations through logic.EvalGate; agreement to 1e-9.
//   - simulated: the sequential event-driven simulator over the same
//     vectors (the server shards the run across workers); totals and
//     spurious fraction must agree to 1e-9.
func checkEstimate(req *estimateReq, body []byte) error {
	var got estimateResp
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	nw, err := referenceNetwork(req)
	if err != nil {
		return err
	}
	params := power.DefaultParams()
	switch req.Estimator {
	case "propagated":
		ref := power.Evaluate(nw, params, nil, activityOf(propagate(nw, req.P1)))
		return within(got.Power.Total, ref.Total(), exactRelTol*ref.Total(), "independent propagation")
	case "simulated":
		vecs := sim.RandomVectors(rand.New(rand.NewSource(req.Seed)), req.Vectors, len(nw.PIs()), req.P1)
		ref, tot, err := power.EstimateSimulatedWith(nw, params, nil, sim.UnitDelay, vecs, nopTracer{})
		if err != nil {
			return err
		}
		if got.SpuriousFraction == nil {
			return fmt.Errorf("simulated estimate has no spurious fraction")
		}
		if err := within(*got.SpuriousFraction, tot.SpuriousFraction(), 1e-12, "sequential simulation (spurious fraction)"); err != nil {
			return err
		}
		return within(got.Power.Total, ref.Total(), exactRelTol*ref.Total(), "sequential simulation")
	}
	// exact or packed.
	exhaustive := len(nw.PIs()) <= 16
	var ref, refSE float64
	if exhaustive {
		probs, err := enumerate(nw, req.P1)
		if err != nil {
			return err
		}
		ref = power.Evaluate(nw, params, nil, activityOf(probs)).Total()
	}
	mcExact := req.Estimator == "packed" || got.Power.Degraded
	if exhaustive && !mcExact {
		return within(got.Power.Total, ref, exactRelTol*ref, "exhaustive enumeration")
	}
	mean, batchSD, err := monteCarlo(nw, req.P1)
	if err != nil {
		return err
	}
	// Each run counts at most one reset transition per node, so its
	// total is biased by at most fullSwing/N.
	fullSwing := power.Evaluate(nw, params, nil, func(logic.NodeID) float64 { return 1 })
	swing := fullSwing.Switching + fullSwing.ShortCkt
	bias := swing / float64(req.Vectors)
	if !exhaustive {
		ref = mean
		refSE = batchSD / math.Sqrt(mcBatches)
		bias += swing / (mcBatches * mcBatchVectors)
	}
	gotSE := 0.0
	if mcExact {
		gotSE = batchSD * math.Sqrt(float64(mcBatchVectors)/float64(req.Vectors))
	}
	tol := mcSigmas*math.Hypot(refSE, gotSE) + bias
	what := "exhaustive enumeration"
	if !exhaustive {
		what = "packed Monte Carlo"
	}
	return within(got.Power.Total, ref, tol, what+" (statistical)")
}

func within(got, want, tol float64, what string) error {
	if math.Abs(got-want) <= tol {
		return nil
	}
	return fmt.Errorf("total %.12g differs from %s %.12g by more than %.3g", got, what, want, tol)
}

type nopTracer struct{}

func (nopTracer) BeginCycle(int)                 {}
func (nopTracer) Change(int, logic.NodeID, bool) {}
func (nopTracer) EndCycle(int)                   {}

func referenceNetwork(req *estimateReq) (*logic.Network, error) {
	if req.BLIF != "" {
		return logic.ReadBLIF(strings.NewReader(req.BLIF))
	}
	return circuits.Named(req.Circuit)
}

func activityOf(probs map[logic.NodeID]float64) func(logic.NodeID) float64 {
	return func(id logic.NodeID) float64 {
		p := probs[id]
		return 2 * p * (1 - p)
	}
}

// enumerate computes every live node's exact signal probability by
// evaluating all 2^n input vectors, each weighted by its probability
// when every input is 1 with probability p1.
func enumerate(nw *logic.Network, p1 float64) (map[logic.NodeID]float64, error) {
	n := len(nw.PIs())
	weight := make([]float64, n+1) // by number of ones
	for k := range weight {
		weight[k] = math.Pow(p1, float64(k)) * math.Pow(1-p1, float64(n-k))
	}
	live := nw.Live()
	acc := make([]float64, len(live))
	st := logic.NewState(nw)
	in := make([]bool, n)
	for x := 0; x < 1<<n; x++ {
		ones := 0
		for j := range in {
			in[j] = x>>j&1 == 1
			if in[j] {
				ones++
			}
		}
		if _, err := st.Step(in); err != nil {
			return nil, err
		}
		for k, id := range live {
			if st.Value(id) {
				acc[k] += weight[ones]
			}
		}
	}
	out := make(map[logic.NodeID]float64, len(live))
	for k, id := range live {
		out[id] = acc[k]
	}
	return out, nil
}

// propagate computes signal probabilities under the spatial-independence
// assumption by enumerating each gate's fanin value combinations.
func propagate(nw *logic.Network, p1 float64) map[logic.NodeID]float64 {
	p := make(map[logic.NodeID]float64)
	for _, pi := range nw.PIs() {
		p[pi] = p1
	}
	order, _ := nw.TopoOrder() // the server accepted this network, so it is acyclic
	for _, id := range order {
		n := nw.Node(id)
		switch n.Type {
		case logic.Const0:
			p[id] = 0
		case logic.Const1:
			p[id] = 1
		default:
			k := len(n.Fanin)
			in := make([]bool, k)
			var sum float64
			for a := 0; a < 1<<k; a++ {
				w := 1.0
				for j, f := range n.Fanin {
					in[j] = a>>j&1 == 1
					if in[j] {
						w *= p[f]
					} else {
						w *= 1 - p[f]
					}
				}
				if logic.EvalGate(n.Type, in) {
					sum += w
				}
			}
			p[id] = sum
		}
	}
	return p
}

// monteCarlo returns the mean and standard deviation of mcBatches packed
// zero-delay totals, each over mcBatchVectors vectors with one-probability
// p1 (seeds disjoint from the server's seed 1).
func monteCarlo(nw *logic.Network, p1 float64) (mean, sd float64, err error) {
	totals := make([]float64, mcBatches)
	for b := range totals {
		vecs := sim.RandomVectors(rand.New(rand.NewSource(int64(1000+b))), mcBatchVectors, len(nw.PIs()), p1)
		rep, _, err := power.EstimateZeroDelayPacked(nw, power.DefaultParams(), nil, vecs)
		if err != nil {
			return 0, 0, err
		}
		totals[b] = rep.Total()
		mean += totals[b]
	}
	mean /= mcBatches
	for _, t := range totals {
		sd += (t - mean) * (t - mean)
	}
	return mean, math.Sqrt(sd / (mcBatches - 1)), nil
}
