package bdd

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/obsv/trace"
)

// NetworkBDDs holds the global BDDs of a combinational network: one
// function per node, expressed over the circuit inputs (primary inputs
// followed by flip-flop outputs, in declaration order).
type NetworkBDDs struct {
	M *Manager
	// VarOf maps a PI or FF node to its BDD variable index.
	VarOf map[logic.NodeID]int
	// Fn maps every live node to its global function.
	Fn map[logic.NodeID]Ref
	// Vars lists the source nodes in variable order.
	Vars []logic.NodeID

	// roots lists every Fn value in build order, so reordering can pin
	// them all deterministically.
	roots []Ref
}

// BuildOptions bundles the knobs of a network build. The zero value
// builds without a budget in declaration order.
type BuildOptions struct {
	// Budget bounds the build; see FromNetwork.
	Budget Budget
	// Reorder turns on dynamic variable reordering: the builder sifts the
	// manager whenever the live node count crosses a threshold, then
	// doubles the trigger — the classic dynamic-reordering schedule. The
	// first trigger is min(4096, Budget.MaxNodes/2), floored at 64.
	Reorder bool
}

// reorderThreshold resolves the first reorder trigger point against a
// budget.
func reorderThreshold(b Budget) int {
	th := 4096
	if b.MaxNodes > 0 && b.MaxNodes/2 < th {
		th = b.MaxNodes / 2
	}
	if th < 64 {
		th = 64
	}
	return th
}

// FromNetwork builds global BDDs for every node of the network. Primary
// inputs take variables 0..|PI|-1 in declaration order, then flip-flop
// outputs. Sequential networks are handled by treating FF outputs as free
// inputs (the standard combinational abstraction).
//
// When the manager's budget trips or ctx is cancelled mid-build, the
// partial BDDs are discarded and the manager's typed error (a *BudgetError
// matching ErrBudgetExceeded, or the context error) is returned. With
// opt.Reorder the build sifts the variable order as it goes, which lets
// circuits whose declaration order is pathological (e.g. wide
// comparators) fit budgets the fixed order cannot.
func FromNetwork(ctx context.Context, nw *logic.Network, opt BuildOptions) (*NetworkBDDs, error) {
	ctx, sp := trace.Start(ctx, "bdd.build")
	nb, err := fromNetwork(ctx, nw, opt)
	if sp != nil {
		if nb != nil {
			m := nb.M
			sp.SetAttr("nodes", m.Size())
			sp.SetAttr("steps", m.Steps())
			sp.SetAttr("unique_hits", m.counts.uniqueHits)
			sp.SetAttr("unique_misses", m.counts.uniqueMisses)
			sp.SetAttr("ite_hits", m.counts.iteHits)
			sp.SetAttr("ite_misses", m.counts.iteMisses)
		}
		if opt.Reorder {
			sp.SetAttr("reorder", true)
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return nb, err
}

func fromNetwork(ctx context.Context, nw *logic.Network, opt BuildOptions) (*NetworkBDDs, error) {
	srcs := append(append([]logic.NodeID(nil), nw.PIs()...), nw.FFs()...)
	m := New(len(srcs))
	m.SetBudget(opt.Budget)
	m.SetContext(ctx)
	defer m.batch()()
	nb := &NetworkBDDs{
		M:     m,
		VarOf: make(map[logic.NodeID]int, len(srcs)),
		Fn:    make(map[logic.NodeID]Ref),
		Vars:  srcs,
	}
	for i, s := range srcs {
		nb.VarOf[s] = i
		f := m.Var(i)
		nb.Fn[s] = f
		nb.roots = append(nb.roots, f)
	}
	next := 0
	if opt.Reorder {
		next = reorderThreshold(opt.Budget)
	}
	err := build(ctx, m, nw, nb.Fn, logic.InvalidNode, False, func(f Ref) error {
		nb.roots = append(nb.roots, f)
		if !opt.Reorder || m.live < next {
			return nil
		}
		if _, err := m.Reorder(nb.roots); err != nil {
			return err
		}
		next = 2 * m.live
		if th := reorderThreshold(opt.Budget); next < th {
			next = th
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return nb, nil
}

// build folds every gate and constant of nw, in topological order, into
// fn, which must already hold the source functions. Node cut, when valid,
// takes the function cutFn instead of its own. Each new function is
// handed to built, which may reorder the manager.
func build(ctx context.Context, m *Manager, nw *logic.Network, fn map[logic.NodeID]Ref, cut logic.NodeID, cutFn Ref, built func(Ref) error) error {
	order, err := nw.TopoOrder()
	if err != nil {
		return err
	}
	var args []Ref
	for _, id := range order {
		if err := ctx.Err(); err != nil {
			return &BudgetError{Reason: err.Error(), Nodes: m.Size(), Steps: m.Steps()}
		}
		f := cutFn
		if id != cut {
			n := nw.Node(id)
			args = args[:0]
			for _, fi := range n.Fanin {
				g, ok := fn[fi]
				if !ok {
					return fmt.Errorf("bdd: fanin %d of %q not yet built", fi, n.Name)
				}
				args = append(args, g)
			}
			if f, err = logic.Fold(refs{m}, n.Type, args); err != nil {
				return err
			}
			if err := m.Err(); err != nil {
				return err
			}
		}
		fn[id] = f
		if built != nil {
			if err := built(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Cut rebuilds every node function of nw with node id cut loose from its
// fanins: it adds a fresh variable z to the manager, gives node id the
// function z, and folds the rest of the network over it. The rebuilt
// functions are returned in a new map; nb.Fn is left as it was.
func (nb *NetworkBDDs) Cut(nw *logic.Network, id logic.NodeID) (map[logic.NodeID]Ref, int, error) {
	defer nb.M.batch()()
	z := nb.M.AddVar()
	fn := make(map[logic.NodeID]Ref, len(nb.Fn))
	for _, src := range nb.Vars {
		fn[src] = nb.Fn[src]
	}
	return fn, z, build(context.Background(), nb.M, nw, fn, id, nb.M.Var(z), nil)
}

// Reorder sifts the manager's variable order, pinning every node
// function ever built so all Fn refs stay valid. It returns the sifting
// statistics.
func (nb *NetworkBDDs) Reorder() (ReorderStats, error) {
	roots := nb.roots
	if roots == nil {
		// A NetworkBDDs assembled by hand: fall back to the Fn map in
		// deterministic NodeID order.
		ids := make([]logic.NodeID, 0, len(nb.Fn))
		for id := range nb.Fn {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			roots = append(roots, nb.Fn[id])
		}
	}
	return nb.M.Reorder(roots)
}

// refs is the BDD carrier of the gate algebra.
type refs struct{ m *Manager }

func (a refs) Const(v bool) Ref {
	if v {
		return True
	}
	return False
}

func (a refs) Not(f Ref) Ref    { return a.m.Not(f) }
func (a refs) And(fs []Ref) Ref { return a.m.And(fs...) }
func (a refs) Or(fs []Ref) Ref  { return a.m.Or(fs...) }
func (a refs) Xor(fs []Ref) Ref { return a.m.Xor(fs...) }
