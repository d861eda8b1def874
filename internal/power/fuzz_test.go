package power_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
)

// FuzzEstimatorsAgree is the standing differential check between the
// independent activity engines on uploaded netlists. For every small
// combinational network the BLIF bytes parse to, BDD-exact per-node
// signal probabilities must match exhaustive enumeration through
// logic.State to 1e-9, and the packed zero-delay transition counts must
// equal the event-driven simulator's zero-delay (useful) counts over a
// vector stream derived from the same bytes. Seeds are the circuit
// generators serialized through WriteBLIF, as in FuzzEvalNetwork.
func FuzzEstimatorsAgree(f *testing.F) {
	seeds := []func() (*logic.Network, error){
		func() (*logic.Network, error) { return circuits.RippleAdder(4) },
		func() (*logic.Network, error) { return circuits.CLAAdder(4) },
		func() (*logic.Network, error) { return circuits.ArrayMultiplier(4) },
		func() (*logic.Network, error) { return circuits.Comparator(4) },
		func() (*logic.Network, error) { return circuits.ParityTree(8) },
		func() (*logic.Network, error) { return circuits.Decoder(4) },
	}
	for _, gen := range seeds {
		nw, err := gen()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := logic.WriteBLIF(&buf, nw); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nw, err := logic.ReadBLIF(bytes.NewReader(data))
		if err != nil {
			return
		}
		npi := len(nw.PIs())
		if len(nw.FFs()) != 0 || npi > 10 || nw.NumNodes() > 2000 {
			return
		}
		order, err := nw.TopoOrder()
		if err != nil {
			return // e.g. a combinational cycle, rejected by every engine
		}

		exact, err := power.ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		ones := make([]int, nw.NumNodes())
		st := logic.NewState(nw)
		rows := 1 << npi
		in := make([]bool, npi)
		for m := 0; m < rows; m++ {
			for j := range in {
				in[j] = m&(1<<j) != 0
			}
			if _, err := st.Step(in); err != nil {
				t.Fatalf("step: %v", err)
			}
			for _, id := range nw.Live() {
				if st.Value(id) {
					ones[id]++
				}
			}
		}
		for _, id := range nw.Live() {
			p, ok := exact[id]
			if !ok {
				t.Fatalf("exact: no probability for node %q", nw.Node(id).Name)
			}
			if want := float64(ones[id]) / float64(rows); math.Abs(p-want) > 1e-9 {
				t.Fatalf("node %q: exact probability %v, enumeration %v", nw.Node(id).Name, p, want)
			}
		}

		// 130 vectors span two full 64-lane blocks and a partial third, so
		// the packed engine's carry across blocks is exercised.
		vectors := make([][]bool, 130)
		for c := range vectors {
			v := make([]bool, npi)
			for i := range v {
				b := byte(c)
				if len(data) > 0 {
					b ^= data[(c*npi+i)%len(data)]
				}
				v[i] = (b>>(uint(c)&7))&1 == 1
			}
			vectors[c] = v
		}
		ps, err := sim.NewPacked(nw)
		if err != nil {
			t.Fatalf("packed: %v", err)
		}
		if _, err := ps.Run(vectors); err != nil {
			t.Fatalf("packed run: %v", err)
		}
		es, err := sim.New(nw, sim.UnitDelay)
		if err != nil {
			t.Fatalf("event-driven: %v", err)
		}
		if _, err := es.Run(vectors); err != nil {
			t.Fatalf("event-driven run: %v", err)
		}
		for _, id := range order {
			if got, want := ps.Transitions(id), es.UsefulTransitions(id); got != want {
				t.Fatalf("node %q: packed %d transitions, event-driven zero-delay %d", nw.Node(id).Name, got, want)
			}
		}
	})
}
