// Quickstart: build a circuit, estimate its power three ways, then run the
// survey's low-power flow and watch the glitch power disappear.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
)

func main() {
	// 1. A benchmark circuit: 5x5 array multiplier — deep, reconvergent,
	// and glitchy, like the datapaths the survey's logic section targets.
	nw, err := circuits.ArrayMultiplier(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %s\n\n", nw.Name, nw.Stats())

	// 2. Estimate power (Eqn. 1 of the survey) three ways.
	params := power.DefaultParams()
	exact, err := power.EstimateExactCtx(context.Background(), nw, params, nil, nil, power.ExactOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exact zero-delay (BDD):   ", exact)

	approx, err := power.EstimatePropagated(nw, params, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("propagated approximation: ", approx)

	r := rand.New(rand.NewSource(42))
	vecs := sim.RandomVectors(r, 500, len(nw.PIs()), 0.5)
	simRep, totals, err := power.EstimateSimulatedParallelCtx(context.Background(), nw, params, nil, sim.UnitDelay, vecs, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("event-driven simulation:  ", simRep)
	fmt.Printf("glitch share of transitions: %.1f%%\n\n", 100*totals.SpuriousFraction())

	// 3. Run the low-power flow: don't-care optimization then path
	// balancing, with power measured after every pass.
	ctx := core.NewContext(nw, 42)
	rep, err := core.RunFlowCtx(context.Background(), nw, core.StandardFlows()["lowpower"], ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
}
