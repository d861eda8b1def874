package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obsv/trace"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
)

// The traced run replays a workload's generated requests in process,
// through the same public calls the server's handlers make, with each
// call inside a span recorded here. A trace.New tracer per request also
// collects the program's own spans (bdd.build, power.exact,
// power.mc.fallback, sim.measure, core.measure, pass.*) as children.
// Spans stay in memory until the run ends.

// netEntry mirrors the server's network cache: a circuit is resolved
// and hashed on first sight only.
type netEntry struct {
	nw   *logic.Network
	hash string
}

type replayer struct {
	nets map[string]*netEntry
}

func (rp *replayer) resolve(ctx context.Context, circuit, blif string) (*netEntry, error) {
	key := "gen:" + circuit
	if blif != "" {
		sum := sha256.Sum256([]byte(blif))
		key = "blif:" + hex.EncodeToString(sum[:])
	}
	if ent, ok := rp.nets[key]; ok {
		return ent, nil
	}
	_, sp := trace.Start(ctx, "logic.resolve")
	var nw *logic.Network
	var err error
	if blif != "" {
		sp.SetAttr("blif_bytes", len(blif))
		nw, err = logic.ReadBLIF(strings.NewReader(blif))
		if err == nil {
			err = nw.Check()
		}
	} else {
		nw, err = circuits.Named(circuit)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = trace.Start(ctx, "logic.structural_hash")
	ent := &netEntry{nw: nw, hash: logic.StructuralHash(nw)}
	sp.End()
	rp.nets[key] = ent
	return ent, nil
}

func (rp *replayer) estimate(ctx context.Context, e *estimateReq) error {
	ent, err := rp.resolve(ctx, e.Circuit, e.BLIF)
	if err != nil {
		return err
	}
	nw := ent.nw
	if len(nw.FFs()) > 0 {
		return fmt.Errorf("replay covers combinational circuits only")
	}
	params := power.DefaultParams()
	inProb := power.Probabilities{}
	for _, pi := range nw.PIs() {
		inProb[pi] = e.P1
	}
	var rep power.Report
	var spurious *float64
	switch e.Estimator {
	case "exact":
		cctx, sp := trace.Start(ctx, "power.estimate.exact")
		rep, err = power.EstimateExactCtx(cctx, nw, params, nil, inProb,
			power.ExactOptions{Budget: bdd.Budget{MaxNodes: e.BDDMaxNodes}, MCVectors: e.Vectors, MCSeed: e.Seed})
		sp.End()
	case "propagated":
		_, sp := trace.Start(ctx, "power.propagated")
		rep, err = power.EstimatePropagated(nw, params, nil, inProb)
		sp.End()
	case "simulated":
		cctx, sp := trace.Start(ctx, "power.estimate.simulated")
		vecs := sim.RandomVectors(rand.New(rand.NewSource(e.Seed)), e.Vectors, len(nw.PIs()), e.P1)
		var tot sim.Totals
		rep, tot, err = power.EstimateSimulatedParallelCtx(cctx, nw, params, nil, sim.UnitDelay, vecs, 0)
		f := tot.SpuriousFraction()
		spurious = &f
		sp.End()
	case "packed":
		_, sp := trace.Start(ctx, "sim.packed")
		vecs := sim.RandomVectors(rand.New(rand.NewSource(e.Seed)), e.Vectors, len(nw.PIs()), e.P1)
		rep, _, err = power.EstimateZeroDelayPacked(nw, params, nil, vecs)
		sp.End()
	default:
		return fmt.Errorf("unknown estimator %q", e.Estimator)
	}
	if err != nil {
		return err
	}
	_, sp := trace.Start(ctx, "server.encode")
	defer sp.End()
	st := nw.Stats()
	resp := &server.EstimateResponse{
		Circuit: nw.Name, Hash: ent.hash, Estimator: e.Estimator,
		Gates: st.Gates, Depth: st.Levels, FlipFlops: st.FFs,
		Power: server.PowerJSON{Total: rep.Total(), Switching: rep.Switching, ShortCircuit: rep.ShortCkt,
			Leakage: rep.Leakage, SwitchingShare: rep.SwitchingShare(), Degraded: rep.Degraded, DegradeReason: rep.DegradeReason},
		Top:              []server.NodePowerJSON{},
		SpuriousFraction: spurious,
	}
	for _, np := range rep.TopConsumers(5) {
		resp.Top = append(resp.Top, server.NodePowerJSON{Name: np.Name, Cap: np.Cap, Activity: np.Activity, Power: np.Total()})
	}
	_, err = json.Marshal(resp)
	return err
}

// verifies mirrors core.RunFlowCtx's rule for when a flow checks
// equivalence after each pass (verification on, <= 16 inputs, no
// flip-flops).
func verifies(nw *logic.Network) bool { return len(nw.PIs()) <= 16 && len(nw.FFs()) == 0 }

func (rp *replayer) flow(ctx context.Context, f *flowReq) error {
	ent, err := rp.resolve(ctx, f.Circuit, "")
	if err != nil {
		return err
	}
	flow, ok := core.StandardFlows()[f.Flow]
	if !ok {
		return fmt.Errorf("unknown flow %q", f.Flow)
	}
	_, sp := trace.Start(ctx, "core.context")
	nw := ent.nw.Clone()
	fctx := core.NewContext(nw, f.Seed)
	fctx.Incremental = f.Incremental
	sp.End()
	cctx, sp := trace.Start(ctx, "core.flow")
	sp.SetAttr("verified", verifies(nw))
	frep, err := core.RunFlowCtx(cctx, nw, flow, fctx)
	sp.End()
	if err != nil {
		return err
	}
	_, sp = trace.Start(ctx, "logic.structural_hash")
	final := logic.StructuralHash(nw)
	sp.End()
	_, sp = trace.Start(ctx, "server.encode")
	defer sp.End()
	resp := &server.FlowResponse{Circuit: nw.Name, Flow: flow.Name, Hash: ent.hash, FinalHash: final,
		Passes: flow.Passes, Steps: []server.SnapshotJSON{}}
	for _, s := range frep.Steps {
		resp.Steps = append(resp.Steps, server.SnapshotJSON{Label: s.Label, Gates: s.Gates, Depth: s.Depth,
			FlipFlops: s.FlipFlops, ExactP: s.ExactP, SimP: s.SimP, Spurious: s.Spurious, Degraded: s.Degraded})
	}
	if initial := frep.Initial().SimP; initial > 0 {
		resp.SimPowerRatio = frep.Final().SimP / initial
	}
	_, err = json.Marshal(resp)
	return err
}

func (rp *replayer) do(ctx context.Context, r *request) error {
	if r.flow != nil {
		return rp.flow(ctx, r.flow)
	}
	return rp.estimate(ctx, r.est)
}

// replay runs reqs in order twice over, untraced and traced (alternating
// which goes first, each with its own network cache), until the untraced
// wall time reaches budget. It returns how many requests ran, the
// untraced and traced wall times, and each traced request's span tree.
func replay(reqs []*request, budget time.Duration) (n int, plain, traced time.Duration, trees [][]trace.SpanData, err error) {
	plainRP := &replayer{nets: make(map[string]*netEntry)}
	tracedRP := &replayer{nets: make(map[string]*netEntry)}
	for ; n < len(reqs) && plain < budget; n++ {
		r := reqs[n]
		runPlain := func() error {
			t0 := time.Now()
			err := plainRP.do(context.Background(), r)
			plain += time.Since(t0)
			return err
		}
		runTraced := func() error {
			t0 := time.Now()
			ctx, root := trace.New(context.Background(), "request")
			err := tracedRP.do(ctx, r)
			root.End()
			traced += time.Since(t0)
			trees = append(trees, root.Tracer().Snapshot())
			return err
		}
		first, second := runPlain, runTraced
		if n%2 == 1 {
			first, second = runTraced, runPlain
		}
		if err := first(); err != nil {
			return 0, 0, 0, nil, fmt.Errorf("replay %s: %w", r.path, err)
		}
		if err := second(); err != nil {
			return 0, 0, 0, nil, fmt.Errorf("replay %s: %w", r.path, err)
		}
	}
	return n, plain, traced, trees, nil
}
