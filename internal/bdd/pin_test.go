package bdd

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// arenaDigest is an FNV-64a digest of (level, lo, hi) for every arena
// slot, freed ones included. It pins Ref allocation, sift results and
// free-list reuse node by node; chain links are storage detail and are
// left out.
func arenaDigest(m *Manager) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, n := range m.nodes {
		binary.LittleEndian.PutUint32(b[0:], uint32(n.level))
		binary.LittleEndian.PutUint32(b[4:], uint32(n.lo))
		binary.LittleEndian.PutUint32(b[8:], uint32(n.hi))
		h.Write(b[:])
	}
	return h.Sum64()
}

// midGate returns the gate halfway along nw's topological order: a
// deterministic interior node to cut.
func midGate(t *testing.T, nw *logic.Network) logic.NodeID {
	t.Helper()
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	var gates []logic.NodeID
	for _, id := range order {
		if nw.Node(id).Type.IsGate() {
			gates = append(gates, id)
		}
	}
	return gates[len(gates)/2]
}

type arenaPin struct {
	digest uint64
	order  []int
	steps  int64
	size   int
}

func pinOf(m *Manager) arenaPin {
	return arenaPin{arenaDigest(m), m.Order(), m.Steps(), m.Size()}
}

// TestArenaPinned pins the engine's observable state after builds that
// exercise every storage path: in-build sifting, a fixed-order build,
// an explicit Reorder over a grown arena with free-list reuse, and a
// don't-care style Cut. The constants were recorded from the map-based
// engine, so any change to Ref allocation, sift decisions or step
// accounting shows up here.
func TestArenaPinned(t *testing.T) {
	sifted := func(gen func(int) (*logic.Network, error), width int, budget Budget) func(t *testing.T) *Manager {
		return func(t *testing.T) *Manager {
			nw, err := gen(width)
			if err != nil {
				t.Fatal(err)
			}
			nb, err := FromNetwork(context.Background(), nw, BuildOptions{Budget: budget, Reorder: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := nb.Reorder(); err != nil {
				t.Fatal(err)
			}
			return nb.M
		}
	}
	cases := []struct {
		name  string
		build func(t *testing.T) *Manager
		want  arenaPin
	}{
		{"cla8/reorder", sifted(circuits.CLAAdder, 8, Budget{MaxNodes: 1000}), arenaPin{0x507bf36bf9bb1574, []int{16, 0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 13, 5, 6, 14, 7, 15}, 45438, 363}},
		{"mult6/reorder", sifted(circuits.ArrayMultiplier, 6, Budget{}), arenaPin{0x6388781272d496ea, []int{7, 6, 5, 4, 3, 8, 9, 2, 10, 11, 0, 1}, 1022209, 7201}},
		{"cmp12/reorder", sifted(circuits.Comparator, 12, Budget{MaxNodes: 4000}), arenaPin{0xe736bfa28c06c15d, []int{0, 12, 1, 13, 2, 14, 3, 15, 16, 4, 5, 17, 6, 18, 7, 19, 8, 20, 9, 21, 10, 22, 11, 23}, 81290, 447}},
		{"radd8/fixed", func(t *testing.T) *Manager {
			nw, err := circuits.Named("radd8")
			if err != nil {
				t.Fatal(err)
			}
			nb, err := FromNetwork(context.Background(), nw, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return nb.M
		}, arenaPin{0xab303d2fec3d85e3, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 0, 5531}},
		{"mult4/cut", func(t *testing.T) *Manager {
			nw, err := circuits.Named("mult4")
			if err != nil {
				t.Fatal(err)
			}
			nb, err := FromNetwork(context.Background(), nw, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			m := nb.M
			fn, z, err := nb.Cut(nw, midGate(t, nw))
			if err != nil {
				t.Fatal(err)
			}
			odc := True
			for _, po := range nw.POs() {
				f := fn[po]
				odc = m.And(odc, m.Xnor(m.Restrict(f, z, false), m.Restrict(f, z, true)))
			}
			return m
		}, arenaPin{0x7ff92bce3249af66, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 0, 788}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := pinOf(c.build(t))
			if got.digest != c.want.digest || got.steps != c.want.steps || got.size != c.want.size || !slices.Equal(got.order, c.want.order) {
				t.Fatalf("got digest %#x order %v steps %d size %d\nwant digest %#x order %v steps %d size %d",
					got.digest, got.order, got.steps, got.size, c.want.digest, c.want.order, c.want.steps, c.want.size)
			}
		})
	}
}
