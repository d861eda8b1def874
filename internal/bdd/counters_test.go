package bdd

import (
	"context"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/obsv/trace"
)

var lookupNames = [4]string{"bdd.unique.hits", "bdd.unique.misses", "bdd.ite.hits", "bdd.ite.misses"}

// mult5Build is the fixed-order mult5 build's lookups, in lookupNames
// order, as counted by the engine's earlier per-call registry adds.
var mult5Build = [4]int64{1244, 3204, 2821, 4887}

func registryLookups(r *obsv.Registry) (out [4]int64) {
	for i, name := range lookupNames {
		out[i] = r.Counter(name).Value()
	}
	return out
}

func (c lookups) array() [4]int64 {
	return [4]int64{c.uniqueHits, c.uniqueMisses, c.iteHits, c.iteMisses}
}

// TestLookupCountersReachRegistry checks that counting lookups in the
// manager and publishing them at the end of each operation loses
// nothing: the registry moves by exactly the per-call totals the engine
// recorded when every lookup was an atomic add on the registry.
func TestLookupCountersReachRegistry(t *testing.T) {
	r := obsv.Default()
	if r == nil {
		r = obsv.Enable()
		defer obsv.Disable()
	}
	nw, err := circuits.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	step := func(name string, want [4]int64, op func()) {
		t.Helper()
		before := registryLookups(r)
		op()
		after := registryLookups(r)
		for i := range want {
			if got := after[i] - before[i]; got != want[i] {
				t.Errorf("%s: %s moved by %d, want %d", name, lookupNames[i], got, want[i])
			}
		}
	}
	var nb *NetworkBDDs
	step("FromNetwork", mult5Build, func() {
		if nb, err = FromNetwork(context.Background(), nw, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if got := nb.M.counts.array(); got != mult5Build {
		t.Errorf("manager counts after build = %v", got)
	}
	step("Cut", [4]int64{1006, 3126, 2987, 4444}, func() {
		if _, _, err := nb.Cut(nw, midGate(t, nw)); err != nil {
			t.Fatal(err)
		}
	})
	step("Reorder", [4]int64{}, func() {
		if _, err := nb.Reorder(); err != nil {
			t.Fatal(err)
		}
	})
}

// buildSpan builds nw under its own trace and returns the attributes of
// its bdd.build span.
func buildSpan(t *testing.T, nw *logic.Network, opt BuildOptions) map[string]any {
	ctx, root := trace.New(context.Background(), "test")
	if _, err := FromNetwork(ctx, nw, opt); err != nil {
		t.Error(err)
		return nil
	}
	root.End()
	for _, sp := range root.Tracer().Snapshot() {
		if sp.Name == "bdd.build" {
			return sp.Attrs
		}
	}
	t.Error("no bdd.build span")
	return nil
}

func spanLookups(attrs map[string]any) (out [4]int64) {
	for i, k := range [4]string{"unique_hits", "unique_misses", "ite_hits", "ite_misses"} {
		out[i], _ = attrs[k].(int64)
	}
	return out
}

// TestBuildSpanCarriesOwnCounts checks the bdd.build span carries the
// build's own lookup counts, also when two builds run at once.
func TestBuildSpanCarriesOwnCounts(t *testing.T) {
	mult5, err := circuits.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	cmp12, err := circuits.Comparator(12)
	if err != nil {
		t.Fatal(err)
	}
	if got := spanLookups(buildSpan(t, mult5, BuildOptions{})); got != mult5Build {
		t.Fatalf("mult5 span counts %v", got)
	}
	sifted := BuildOptions{Budget: Budget{MaxNodes: 4000}, Reorder: true}
	alone := spanLookups(buildSpan(t, cmp12, sifted))

	var wg sync.WaitGroup
	got := make([][4]int64, 2)
	for i, nw := range []*logic.Network{mult5, cmp12} {
		opt := BuildOptions{}
		if i == 1 {
			opt = sifted
		}
		wg.Add(1)
		go func(i int, nw *logic.Network, opt BuildOptions) {
			defer wg.Done()
			got[i] = spanLookups(buildSpan(t, nw, opt))
		}(i, nw, opt)
	}
	wg.Wait()
	if got[0] != mult5Build || got[1] != alone {
		t.Fatalf("concurrent span counts %v, want mult5 %v and cmp12 %v", got, mult5Build, alone)
	}
}
