package sop

import (
	"fmt"
	"sort"
)

// ExtractOptions configures multi-function kernel extraction.
type ExtractOptions struct {
	// LitWeight gives the cost of one occurrence of a literal. nil means
	// unit weight (classic literal-count / area extraction). The
	// power-targeted variant [35] passes the switching activity of each
	// literal's signal so that extraction preferentially collapses
	// high-activity wiring.
	LitWeight func(lit int) float64
	// NewLitWeight gives the cost of one occurrence of a literal that
	// refers to a newly extracted node, given the kernel expression it
	// computes. nil means unit weight. The power variant derives the new
	// node's activity from its input activities.
	NewLitWeight func(k *Expr) float64
	// MaxExtractions bounds the greedy loop (default 64).
	MaxExtractions int
}

// Extraction describes one extracted kernel.
type Extraction struct {
	Lit  int   // literal ID assigned to the new node
	Expr *Expr // the kernel expression it computes
}

// Extract greedily factors shared kernels out of a set of expressions,
// MIS-style [5]: repeatedly pick the kernel with the best weighted literal
// saving across all functions, introduce a new literal for it, and divide
// it out everywhere. It mutates a copy and returns the rewritten
// expressions plus the list of extractions (in order; later extractions
// may reference earlier ones). nextLit is the first free literal ID.
func Extract(fns []*Expr, nextLit int, opts ExtractOptions) ([]*Expr, []Extraction) {
	if opts.MaxExtractions <= 0 {
		opts.MaxExtractions = 64
	}
	w := opts.LitWeight
	litW := func(l int) float64 {
		if w == nil {
			return 1
		}
		return w(l)
	}
	newW := func(k *Expr) float64 {
		if opts.NewLitWeight == nil {
			return 1
		}
		return opts.NewLitWeight(k)
	}
	cur := make([]*Expr, len(fns))
	for i, f := range fns {
		cur[i] = f.Clone()
	}
	weights := make(map[int]float64) // weights for extracted literals
	weightOf := func(l int) float64 {
		if wl, ok := weights[l]; ok {
			return wl
		}
		return litW(l)
	}
	exprCost := func(e *Expr) float64 {
		s := 0.0
		for _, p := range e.Products {
			for _, l := range p {
				s += weightOf(l)
			}
		}
		return s
	}

	var extractions []Extraction
	for round := 0; round < opts.MaxExtractions; round++ {
		// Collect candidate kernels from all functions.
		type cand struct {
			key  string
			k    *Expr
			gain float64
		}
		cands := make(map[string]*cand)
		for _, f := range cur {
			for _, kr := range f.Kernels() {
				key := exprKey(kr.K)
				if _, ok := cands[key]; !ok {
					cands[key] = &cand{key: key, k: kr.K}
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		// Evaluate gain of each kernel: total cost before vs after
		// substituting it in every function where division succeeds.
		var best *cand
		for _, c := range cands {
			kCost := exprCost(c.k)
			nlw := newW(c.k)
			gain := -kCost // cost of implementing the kernel node once
			uses := 0
			for _, f := range cur {
				q, r := f.Divide(c.k)
				if len(q.Products) == 0 {
					continue
				}
				before := exprCost(f)
				// after = cost(q with new literal per product) + cost(r)
				after := exprCost(q) + float64(len(q.Products))*nlw + exprCost(r)
				if before > after {
					gain += before - after
					uses++
				}
			}
			if uses == 0 {
				continue
			}
			c.gain = gain
			if best == nil || c.gain > best.gain ||
				(c.gain == best.gain && c.key < best.key) {
				best = c
			}
		}
		if best == nil || best.gain <= 1e-12 {
			break
		}
		// Commit: new literal computes the kernel.
		lit := nextLit
		nextLit++
		weights[lit] = newW(best.k)
		extractions = append(extractions, Extraction{Lit: lit, Expr: best.k.Clone()})
		for i, f := range cur {
			q, r := f.Divide(best.k)
			if len(q.Products) == 0 {
				continue
			}
			before := exprCost(f)
			after := exprCost(q) + float64(len(q.Products))*weights[lit] + exprCost(r)
			if before <= after {
				continue
			}
			nf := &Expr{}
			for _, p := range q.Products {
				np := append(p.clone(), lit)
				sort.Ints(np)
				nf.Products = append(nf.Products, np)
			}
			nf.Products = append(nf.Products, r.Products...)
			cur[i] = nf.dedup()
		}
	}
	return cur, extractions
}

// FactorTree is a node of a factored-form expression tree.
type FactorTree struct {
	// Leaf literal when Lit >= 0 and both children are nil.
	Lit         int
	IsAnd       bool
	Left, Right *FactorTree
}

// Factor produces a factored form of the expression by recursive division
// by its best kernel (quick-factor). Literal IDs appear as leaves.
func Factor(e *Expr) *FactorTree {
	if len(e.Products) == 0 {
		return nil
	}
	if len(e.Products) == 1 {
		return productTree(e.Products[0])
	}
	// Choose the kernel with the most products (deepest sharing), ties by
	// literal count.
	kernels := e.Kernels()
	var best *Expr
	for _, kr := range kernels {
		if exprKey(kr.K) == exprKey(e) {
			continue // dividing by self: no progress
		}
		if best == nil || len(kr.K.Products) > len(best.Products) ||
			(len(kr.K.Products) == len(best.Products) && kr.K.NumLiterals() > best.NumLiterals()) {
			best = kr.K
		}
	}
	if best == nil {
		// No nontrivial kernel: factor out the most common literal if any,
		// else emit the flat OR.
		l, cnt := mostCommonLiteral(e)
		if cnt >= 2 {
			q, r := e.DivideByProduct(Product{l})
			lt := &FactorTree{IsAnd: true, Left: &FactorTree{Lit: l}, Right: Factor(q)}
			if len(r.Products) == 0 {
				return lt
			}
			return &FactorTree{Left: lt, Right: Factor(r)}
		}
		return flatOr(e)
	}
	q, r := e.Divide(best)
	if len(q.Products) == 0 {
		return flatOr(e)
	}
	qt := Factor(q)
	kt := Factor(best)
	at := &FactorTree{IsAnd: true, Left: qt, Right: kt}
	if len(r.Products) == 0 {
		return at
	}
	return &FactorTree{Left: at, Right: Factor(r)}
}

func mostCommonLiteral(e *Expr) (lit, count int) {
	counts := make(map[int]int)
	for _, p := range e.Products {
		for _, l := range p {
			counts[l]++
		}
	}
	lit, count = -1, 0
	for l, c := range counts {
		if c > count || (c == count && l < lit) {
			lit, count = l, c
		}
	}
	return lit, count
}

func productTree(p Product) *FactorTree {
	if len(p) == 0 {
		return &FactorTree{Lit: -1} // constant true leaf
	}
	t := &FactorTree{Lit: p[0]}
	for _, l := range p[1:] {
		t = &FactorTree{IsAnd: true, Left: t, Right: &FactorTree{Lit: l}}
	}
	return t
}

func flatOr(e *Expr) *FactorTree {
	t := productTree(e.Products[0])
	for _, p := range e.Products[1:] {
		t = &FactorTree{Left: t, Right: productTree(p)}
	}
	return t
}

// NumLiterals counts leaf occurrences in the tree — the factored-form
// literal count, the standard quality metric for factoring.
func (t *FactorTree) NumLiterals() int {
	if t == nil {
		return 0
	}
	if t.Left == nil && t.Right == nil {
		if t.Lit >= 0 {
			return 1
		}
		return 0
	}
	return t.Left.NumLiterals() + t.Right.NumLiterals()
}

// String renders the factored form.
func (t *FactorTree) String() string {
	if t == nil {
		return "0"
	}
	if t.Left == nil && t.Right == nil {
		if t.Lit < 0 {
			return "1"
		}
		return fmt.Sprintf("L%d", t.Lit)
	}
	if t.IsAnd {
		return fmt.Sprintf("(%s %s)", t.Left.String(), t.Right.String())
	}
	return fmt.Sprintf("(%s + %s)", t.Left.String(), t.Right.String())
}

// EvalExpr evaluates an algebraic expression given literal truth values.
func EvalExpr(e *Expr, val map[int]bool) bool {
	for _, p := range e.Products {
		all := true
		for _, l := range p {
			if !val[l] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// EvalTree evaluates a factored form given literal truth values.
func EvalTree(t *FactorTree, val map[int]bool) bool {
	if t == nil {
		return false
	}
	if t.Left == nil && t.Right == nil {
		if t.Lit < 0 {
			return true
		}
		return val[t.Lit]
	}
	if t.IsAnd {
		return EvalTree(t.Left, val) && EvalTree(t.Right, val)
	}
	return EvalTree(t.Left, val) || EvalTree(t.Right, val)
}
