package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
)

// TestConcurrentEngineReuse hammers the three engine entry points a
// server reuses across requests — power.EstimateSimulatedParallelCtx,
// power.EstimateExactCtx and RunFlowCtx — from many goroutines over
// SHARED network values, interleaving budget-degraded estimates with
// clean ones. Run under -race this is the concurrent-engine-reuse gate:
// estimation must be strictly read-only on the shared networks (flows
// operate on per-goroutine clones), budget trips in one goroutine must
// never degrade another's clean estimate, and every concurrent result
// must equal its sequential baseline bit for bit.
func TestConcurrentEngineReuse(t *testing.T) {
	names := []string{"mult4", "cmp8", "par16"}
	shared := make(map[string]*logic.Network, len(names))
	vectors := make(map[string][][]bool, len(names))
	for _, name := range names {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		shared[name] = nw
		// One vector set per circuit, shared read-only by every goroutine.
		vectors[name] = sim.RandomVectors(rand.New(rand.NewSource(7)), 300, len(nw.PIs()), 0.5)
	}
	flow := StandardFlows()["glitch"]
	p := power.DefaultParams()
	ctx := context.Background()

	// newFlowCtx builds the deterministic flow environment used by both
	// the baseline and the hammer. Verification is off: it is covered by
	// the flow tests, and exhaustive equivalence over 16-input circuits
	// times N goroutines would drown the race detector in busywork.
	newFlowCtx := func(nw *logic.Network) *Context {
		fctx := NewContext(nw, 11)
		fctx.Verify = false
		return fctx
	}

	type baseline struct {
		exactTotal float64
		simTotal   float64
		flowFinal  float64
	}
	bases := make(map[string]baseline, len(names))
	for _, name := range names {
		nw := shared[name]
		exact, err := power.EstimateExactCtx(ctx, nw, p, nil, nil, power.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		simRep, _, err := power.EstimateSimulatedParallelCtx(context.Background(), nw, p, nil, sim.UnitDelay, vectors[name], 0)
		if err != nil {
			t.Fatal(err)
		}
		clone := nw.Clone()
		frep, err := RunFlowCtx(ctx, clone, flow, newFlowCtx(clone))
		if err != nil {
			t.Fatal(err)
		}
		bases[name] = baseline{exact.Total(), simRep.Total(), frep.Final().SimP}
	}

	const goroutines = 16
	const rounds = 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, name := range names {
					nw, want := shared[name], bases[name]

					// Budget-starved estimate: degrades, and must not
					// poison anyone's clean estimate below.
					deg, err := power.EstimateExactCtx(ctx, nw, p, nil, nil,
						power.ExactOptions{Budget: bdd.Budget{MaxNodes: 8}})
					if err != nil {
						t.Errorf("g%d %s: budgeted estimate: %v", g, name, err)
						return
					}
					if !deg.Degraded {
						t.Errorf("g%d %s: 8-node budget did not degrade", g, name)
					}

					clean, err := power.EstimateExactCtx(ctx, nw, p, nil, nil, power.ExactOptions{})
					if err != nil {
						t.Errorf("g%d %s: clean estimate: %v", g, name, err)
						return
					}
					if clean.Degraded {
						t.Errorf("g%d %s: clean estimate degraded under concurrency", g, name)
					}
					if clean.Total() != want.exactTotal {
						t.Errorf("g%d %s: exact %v != sequential %v", g, name, clean.Total(), want.exactTotal)
					}

					simRep, _, err := power.EstimateSimulatedParallelCtx(context.Background(), nw, p, nil, sim.UnitDelay, vectors[name], 0)
					if err != nil {
						t.Errorf("g%d %s: simulated estimate: %v", g, name, err)
						return
					}
					if simRep.Total() != want.simTotal {
						t.Errorf("g%d %s: simulated %v != sequential %v", g, name, simRep.Total(), want.simTotal)
					}

					// Flows mutate: clone per goroutine, exactly like the
					// server does for cached networks.
					clone := nw.Clone()
					frep, err := RunFlowCtx(ctx, clone, flow, newFlowCtx(clone))
					if err != nil {
						t.Errorf("g%d %s: flow: %v", g, name, err)
						return
					}
					if got := frep.Final().SimP; got != want.flowFinal {
						t.Errorf("g%d %s: flow final %v != sequential %v", g, name, got, want.flowFinal)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The shared networks themselves must be untouched: re-run the
	// sequential baseline and demand identical numbers.
	for _, name := range names {
		nw := shared[name]
		exact, err := power.EstimateExactCtx(ctx, nw, p, nil, nil, power.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Total() != bases[name].exactTotal {
			t.Errorf("%s: shared network mutated by concurrent use: %v != %v",
				name, exact.Total(), bases[name].exactTotal)
		}
	}
}
