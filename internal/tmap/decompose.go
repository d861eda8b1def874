package tmap

import (
	"fmt"

	"repro/internal/logic"
)

// Subject is the NAND2/INV subject graph of a network, plus the mapping
// from original nodes to their subject-graph counterparts.
type Subject struct {
	Net *logic.Network
	// OfOrig maps each live original node to the subject node computing
	// the same function.
	OfOrig map[logic.NodeID]logic.NodeID
}

// DecomposeOptions controls technology decomposition — itself a lever for
// power, as Tsui/Pedram/Despain note in "Technology Decomposition and
// Mapping Targeting Low Power Dissipation" [48]: the decomposition shape
// determines which cells can cover the graph.
type DecomposeOptions struct {
	// Balanced builds balanced AND/OR trees for wide gates instead of the
	// default left-deep chains. Left-deep chains expose NAND3-style
	// patterns; balanced trees expose NAND4/AOI22-style patterns and cut
	// subject-graph depth.
	Balanced bool
}

// Decompose converts a network into its NAND2/INV subject graph with
// default (left-deep) decomposition. Xor and Xnor gates are emitted in the
// duplicated 4-NAND shape that the XOR2 pattern expects. Buf gates
// collapse to wires.
func Decompose(nw *logic.Network) (*Subject, error) {
	return DecomposeWith(nw, DecomposeOptions{})
}

// DecomposeWith is Decompose with explicit options.
func DecomposeWith(nw *logic.Network, opts DecomposeOptions) (*Subject, error) {
	s := &Subject{Net: logic.New(nw.Name + "_subject"), OfOrig: make(map[logic.NodeID]logic.NodeID)}
	sn := s.Net
	for _, pi := range nw.PIs() {
		id, err := sn.AddInput(nw.Node(pi).Name)
		if err != nil {
			return nil, err
		}
		s.OfOrig[pi] = id
	}
	// DFF outputs are sources; create with placeholder D, patch later.
	type ffFix struct {
		subjFF logic.NodeID
		origD  logic.NodeID
		ph     logic.NodeID
	}
	var fixes []ffFix
	for _, ff := range nw.FFs() {
		n := nw.Node(ff)
		ph, err := sn.AddConst("__ph_"+n.Name, false)
		if err != nil {
			return nil, err
		}
		q, err := sn.AddDFF(n.Name, ph, n.InitVal)
		if err != nil {
			return nil, err
		}
		s.OfOrig[ff] = q
		fixes = append(fixes, ffFix{subjFF: q, origD: n.Fanin[0], ph: ph})
	}

	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	b := &subjectBuilder{sn: sn, balanced: opts.Balanced}
	var args []lit
	for _, id := range order {
		n := nw.Node(id)
		args = args[:0]
		for _, f := range n.Fanin {
			sf, ok := s.OfOrig[f]
			if !ok {
				return nil, fmt.Errorf("tmap: fanin %d of %q not decomposed", f, n.Name)
			}
			args = append(args, lit{id: sf})
		}
		out, err := logic.Fold(b, n.Type, args)
		if err != nil {
			return nil, fmt.Errorf("tmap: %w", err)
		}
		s.OfOrig[id] = b.node(out)
		if b.err != nil {
			return nil, b.err
		}
	}

	for _, fix := range fixes {
		d, ok := s.OfOrig[fix.origD]
		if !ok {
			return nil, fmt.Errorf("tmap: DFF D-input %d not decomposed", fix.origD)
		}
		if err := sn.ReplaceFanin(fix.subjFF, fix.ph, d); err != nil {
			return nil, err
		}
		if err := sn.DeleteNode(fix.ph); err != nil {
			return nil, err
		}
	}
	for _, po := range nw.POs() {
		if err := sn.MarkOutput(s.OfOrig[po]); err != nil {
			return nil, err
		}
	}
	sn.SweepDead()
	return s, nil
}

// lit is a subject-graph node with a pending output inversion.
type lit struct {
	id  logic.NodeID
	neg bool
}

// subjectBuilder is the subject-graph carrier of the gate algebra: its
// operations emit NAND2/INV nodes named t1, t2, ... in creation order.
// Inversion stays pending in a lit until a node is needed, so a Nand or
// Nor absorbs the inverter its And or Or tree would otherwise end with.
// The first construction error sticks in err and turns later operations
// into no-ops.
type subjectBuilder struct {
	sn       *logic.Network
	balanced bool
	seq      int
	err      error
}

func (b *subjectBuilder) gate(t logic.GateType, fanin ...logic.NodeID) logic.NodeID {
	if b.err != nil {
		return logic.InvalidNode
	}
	b.seq++
	id, err := b.sn.AddGate(fmt.Sprintf("t%d", b.seq), t, fanin...)
	b.err = err
	return id
}

func (b *subjectBuilder) nand(x, y logic.NodeID) logic.NodeID { return b.gate(logic.Nand, x, y) }
func (b *subjectBuilder) inv(x logic.NodeID) logic.NodeID     { return b.gate(logic.Not, x) }

// node materializes a lit, emitting its pending inverter.
func (b *subjectBuilder) node(x lit) logic.NodeID {
	if x.neg {
		return b.inv(x.id)
	}
	return x.id
}

func (b *subjectBuilder) nodes(in []lit) []logic.NodeID {
	ids := make([]logic.NodeID, len(in))
	for i, x := range in {
		ids[i] = b.node(x)
	}
	return ids
}

// split picks the recursion partition: left-deep peels one element,
// balanced halves the list.
func (b *subjectBuilder) split(args []logic.NodeID) ([]logic.NodeID, []logic.NodeID) {
	if b.balanced {
		return args[:len(args)/2], args[len(args)/2:]
	}
	return args[:1], args[1:]
}

// nandTree computes the NAND of the list as a subject subgraph.
func (b *subjectBuilder) nandTree(args []logic.NodeID) logic.NodeID {
	switch len(args) {
	case 1:
		return b.inv(args[0])
	case 2:
		return b.nand(args[0], args[1])
	}
	l, r := b.split(args)
	al := b.andTree(l)
	return b.nand(al, b.andTree(r))
}

func (b *subjectBuilder) andTree(args []logic.NodeID) logic.NodeID {
	if len(args) == 1 {
		return args[0]
	}
	return b.inv(b.nandTree(args))
}

func (b *subjectBuilder) orTree(args []logic.NodeID) logic.NodeID {
	switch len(args) {
	case 1:
		return args[0]
	case 2:
		i0 := b.inv(args[0])
		return b.nand(i0, b.inv(args[1]))
	}
	// Both subtrees are emitted before their inverters; the emission
	// order fixes the t<n> names.
	l, r := b.split(args)
	ol := b.orTree(l)
	or := b.orTree(r)
	i0 := b.inv(ol)
	return b.nand(i0, b.inv(or))
}

// xorPair builds the XOR of two nodes in the duplicated shape the XOR2
// pattern expects: the middle NAND is built twice.
func (b *subjectBuilder) xorPair(x, y logic.NodeID) logic.NodeID {
	m1 := b.nand(x, y)
	m2 := b.nand(x, y)
	n1 := b.nand(x, m1)
	return b.nand(n1, b.nand(y, m2))
}

func (b *subjectBuilder) Const(v bool) lit {
	if b.err != nil {
		return lit{id: logic.InvalidNode}
	}
	b.seq++
	id, err := b.sn.AddConst(fmt.Sprintf("t%d", b.seq), v)
	b.err = err
	return lit{id: id}
}

func (b *subjectBuilder) Not(x lit) lit { return lit{id: x.id, neg: !x.neg} }

func (b *subjectBuilder) And(in []lit) lit {
	if len(in) == 1 {
		return in[0]
	}
	return lit{id: b.nandTree(b.nodes(in)), neg: true}
}

func (b *subjectBuilder) Or(in []lit) lit { return lit{id: b.orTree(b.nodes(in))} }

func (b *subjectBuilder) Xor(in []lit) lit {
	ids := b.nodes(in)
	out := ids[0]
	for _, y := range ids[1:] {
		out = b.xorPair(out, y)
	}
	return lit{id: out}
}
