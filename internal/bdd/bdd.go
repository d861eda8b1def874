// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// over a flat node arena, with one chained unique subtable per level and a
// lossless open-addressing ITE memo.
//
// The manager supports the operations the toolkit needs for exact power
// analysis and logic optimization: Boolean connectives, cofactoring,
// existential and universal quantification (used by precomputation and
// guarded-evaluation passes), composition, minterm counting, and exact
// signal-probability evaluation given independent input probabilities.
//
// Nodes are referenced by integer handles (Ref) into the arena. Refs 0 and
// 1 are the constant functions. Variables are decoupled from levels
// through a var2level/level2var permutation so the order can change at
// runtime: Reorder applies Rudell-style sifting over in-place
// adjacent-level swaps, which preserves every externally held Ref.
// Outside of reordering, nodes are never freed; Reorder reclaims nodes
// unreachable from its root set into a free list that mk reuses.
package bdd

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obsv"
)

// Ref is a handle to a BDD node within a Manager. The zero value is the
// constant-false function.
type Ref int32

// Constant functions.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int32 // position in the variable order; terminals use maxLevel
	lo, hi Ref
	next   Ref // next node of the same unique-subtable chain; 0 ends it
}

const (
	maxLevel = int32(1<<30 - 1)
	// freeLevel marks an arena slot reclaimed by Reorder and awaiting
	// reuse through the free list. Freed slots are unreachable from any
	// live function, so no traversal ever observes this sentinel.
	freeLevel = int32(-1)
	// minHeads is the size of a unique subtable's first head array.
	minHeads = 16
)

// subtable is the unique table of one level: a power-of-two array of
// chain heads, chained through node.next. Ref 0 (False) is never an
// internal node, so it ends every chain. Keeping one subtable per level —
// rather than one table keyed by (level, lo, hi) — lets an adjacent-level
// swap move a whole level by exchanging two subtables: a node's chain
// depends only on (lo, hi), so the rising nodes are never rehashed.
type subtable struct {
	heads []Ref
	n     int // nodes chained in
}

func hashPair(lo, hi Ref) uint32 {
	return uint32((uint64(uint32(lo))<<32 | uint64(uint32(hi))) * 0x9E3779B97F4A7C15 >> 32)
}

// find returns the node (lo, hi) chained in t, or 0 when there is none.
func (m *Manager) find(t *subtable, lo, hi Ref) Ref {
	if t.n == 0 {
		return 0
	}
	for r := t.heads[hashPair(lo, hi)&uint32(len(t.heads)-1)]; r != 0; r = m.nodes[r].next {
		if n := &m.nodes[r]; n.lo == lo && n.hi == hi {
			return r
		}
	}
	return 0
}

// link chains node r, whose lo and hi are set, into t. The head array
// doubles once t holds one node per head.
func (m *Manager) link(t *subtable, r Ref) {
	if t.n >= len(t.heads) {
		m.rehash(t, max(2*len(t.heads), minHeads))
	}
	n := &m.nodes[r]
	i := hashPair(n.lo, n.hi) & uint32(len(t.heads)-1)
	n.next = t.heads[i]
	t.heads[i] = r
	t.n++
}

func (m *Manager) rehash(t *subtable, size int) {
	heads := make([]Ref, size)
	for _, r := range t.heads {
		for r != 0 {
			n := &m.nodes[r]
			next := n.next
			i := hashPair(n.lo, n.hi) & uint32(size-1)
			n.next = heads[i]
			heads[i] = r
			r = next
		}
	}
	t.heads = heads
}

// unlink removes node r from t's chains.
func (m *Manager) unlink(t *subtable, r Ref) {
	n := &m.nodes[r]
	p := &t.heads[hashPair(n.lo, n.hi)&uint32(len(t.heads)-1)]
	for *p != r {
		if *p == 0 {
			panic(fmt.Sprintf("bdd: node %d missing from its unique subtable", r))
		}
		p = &m.nodes[*p].next
	}
	*p = n.next
	t.n--
}

// memoEntry is one ITE memo slot. f == 0 marks an empty slot: ITE
// answers a constant f before it consults the memo.
type memoEntry struct{ f, g, h, r Ref }

// iteMemo is the ITE computed table: open addressing with linear probing,
// grown at 3/4 load and cleared only by Reorder. It never drops an entry:
// a lossy cache would recompute sub-ITEs and so change Steps, and with it
// every MaxSteps trip point.
type iteMemo struct {
	tab []memoEntry // power-of-two length; nil until the first insert
	n   int
}

// minMemo is the size of the memo's first allocation, kept small because
// most managers in a flow are built for small cones.
const minMemo = 64

func hashTriple(f, g, h Ref) uint32 {
	x := uint64(uint32(f))*0x9E3779B97F4A7C15 ^ uint64(uint32(g))*0xC2B2AE3D27D4EB4F ^ uint64(uint32(h))*0x165667B19E3779F9
	return uint32(x >> 32)
}

func (c *iteMemo) get(f, g, h Ref) (Ref, bool) {
	if c.n == 0 {
		return 0, false
	}
	mask := uint32(len(c.tab) - 1)
	for i := hashTriple(f, g, h) & mask; ; i = (i + 1) & mask {
		e := &c.tab[i]
		if e.f == f && e.g == g && e.h == h {
			return e.r, true
		}
		if e.f == 0 {
			return 0, false
		}
	}
}

// put records ITE(f, g, h) = r. ITE only puts a key it missed, and its
// recursion never reaches the same key, so put never meets it already
// stored.
func (c *iteMemo) put(f, g, h, r Ref) {
	if 4*(c.n+1) > 3*len(c.tab) {
		old := c.tab
		c.tab = make([]memoEntry, max(2*len(old), minMemo))
		c.n = 0
		for _, e := range old {
			if e.f != 0 {
				c.put(e.f, e.g, e.h, e.r)
			}
		}
	}
	mask := uint32(len(c.tab) - 1)
	for i := hashTriple(f, g, h) & mask; ; i = (i + 1) & mask {
		e := &c.tab[i]
		if e.f == 0 {
			*e = memoEntry{f, g, h, r}
			c.n++
			return
		}
	}
}

// reset empties the memo, keeping its array for reuse.
func (c *iteMemo) reset() {
	clear(c.tab)
	c.n = 0
}

// metrics holds the manager's registry handles, captured at New. All
// handles are nil (no-op) when observability is disabled.
type metrics struct {
	uniqueHits     *obsv.Counter // bdd.unique.hits
	uniqueMisses   *obsv.Counter // bdd.unique.misses
	iteHits        *obsv.Counter // bdd.ite.hits
	iteMisses      *obsv.Counter // bdd.ite.misses
	nodes          *obsv.Gauge   // bdd.nodes: high-water node count
	budgetExceeded *obsv.Counter // bdd.budget.exceeded
	reorderRuns    *obsv.Counter // bdd.reorder.runs
	reorderSwaps   *obsv.Counter // bdd.reorder.swaps
	reorderSaved   *obsv.Counter // bdd.reorder.saved
}

func newMetrics() metrics {
	r := obsv.Default()
	return metrics{
		uniqueHits:     r.Counter("bdd.unique.hits"),
		uniqueMisses:   r.Counter("bdd.unique.misses"),
		iteHits:        r.Counter("bdd.ite.hits"),
		iteMisses:      r.Counter("bdd.ite.misses"),
		nodes:          r.Gauge("bdd.nodes"),
		budgetExceeded: r.Counter("bdd.budget.exceeded"),
		reorderRuns:    r.Counter("bdd.reorder.runs"),
		reorderSwaps:   r.Counter("bdd.reorder.swaps"),
		reorderSaved:   r.Counter("bdd.reorder.saved"),
	}
}

// lookups counts a manager's unique-table and ITE-memo lookups.
type lookups struct {
	uniqueHits, uniqueMisses, iteHits, iteMisses int64
}

// Manager owns a set of BDD nodes over a fixed number of variables.
// Variable i starts at level i (lower levels nearer the root); Reorder may
// permute the order afterwards, tracked by var2level/level2var.
//
// A manager may carry a resource Budget and a context (SetBudget,
// SetContext). When either trips, the manager records a sticky BudgetError
// (Err) and every subsequent operation returns False without doing work;
// the manager and all results computed on it must then be discarded. A
// manager whose budget never trips builds exactly the same node graph as
// an unbudgeted one.
//
// Lookup counts are kept in plain fields, since a manager belongs to one
// goroutine, and reach the process registry as one add per counter when
// a build, Cut, Reorder or other top-level operation ends.
type Manager struct {
	nodes  []node
	unique []subtable // per-level unique subtables
	memo   iteMemo
	nvars  int
	met    metrics

	counts    lookups // since New
	published lookups // the part of counts already added to the registry
	peak      int     // high-water live node count
	batching  bool    // a build is running: publish once, at its end

	// var2level[i] is the level variable i currently occupies;
	// level2var is its inverse. Both start as the identity.
	var2level []int32
	level2var []int32
	// free lists arena slots reclaimed by Reorder, reused LIFO by mk.
	// live counts arena slots in use (including the two terminals).
	free []Ref
	live int

	budget  Budget
	ctx     context.Context // nil = no cancellation polling
	steps   int64           // cumulative recursion steps (ITE + Restrict)
	checked bool            // true when budget limits or a context are set
	err     error           // sticky *BudgetError once a limit trips
}

// New creates a manager with nvars variables.
func New(nvars int) *Manager {
	m := &Manager{
		unique:    make([]subtable, nvars),
		nvars:     nvars,
		met:       newMetrics(),
		var2level: make([]int32, nvars),
		level2var: make([]int32, nvars),
	}
	for i := 0; i < nvars; i++ {
		m.var2level[i] = int32(i)
		m.level2var[i] = int32(i)
	}
	// Terminal nodes: index 0 = false, 1 = true.
	m.nodes = append(m.nodes,
		node{level: maxLevel},
		node{level: maxLevel})
	m.live = 2
	return m
}

// NumVars returns the number of variables in the manager.
func (m *Manager) NumVars() int { return m.nvars }

// Size returns the total number of live nodes (including terminals).
func (m *Manager) Size() int { return m.live }

// AddVar appends a new variable (at the bottom of the order) and returns
// its index.
func (m *Manager) AddVar() int {
	m.var2level = append(m.var2level, int32(len(m.level2var)))
	m.level2var = append(m.level2var, int32(m.nvars))
	m.unique = append(m.unique, subtable{})
	m.nvars++
	return m.nvars - 1
}

// flush adds the lookups and node high-water not yet published to the
// process registry.
func (m *Manager) flush() {
	add := func(c *obsv.Counter, now, was int64) {
		if now != was {
			c.Add(now - was)
		}
	}
	add(m.met.uniqueHits, m.counts.uniqueHits, m.published.uniqueHits)
	add(m.met.uniqueMisses, m.counts.uniqueMisses, m.published.uniqueMisses)
	add(m.met.iteHits, m.counts.iteHits, m.published.iteHits)
	add(m.met.iteMisses, m.counts.iteMisses, m.published.iteMisses)
	m.published = m.counts
	m.met.nodes.Max(float64(m.peak))
}

// opDone publishes a finished top-level operation's counts, unless a
// build is batching them.
func (m *Manager) opDone() {
	if !m.batching {
		m.flush()
	}
}

// batch defers publishing until the returned function runs.
func (m *Manager) batch() (end func()) {
	m.batching = true
	return func() {
		m.batching = false
		m.flush()
	}
}

// Order returns the current variable order: element l is the index of the
// variable at level l (level 0 is the root).
func (m *Manager) Order() []int {
	out := make([]int, m.nvars)
	for l, v := range m.level2var {
		out[l] = int(v)
	}
	return out
}

// Var returns the function of the single variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.nvars {
		panic(fmt.Sprintf("bdd: Var(%d) out of range [0,%d)", i, m.nvars))
	}
	r := m.mk(m.var2level[i], False, True)
	m.opDone()
	return r
}

// NVar returns the complement of variable i.
func (m *Manager) NVar(i int) Ref {
	if i < 0 || i >= m.nvars {
		panic(fmt.Sprintf("bdd: NVar(%d) out of range [0,%d)", i, m.nvars))
	}
	r := m.mk(m.var2level[i], True, False)
	m.opDone()
	return r
}

// mk finds or creates the node (level, lo, hi), applying the reduction
// rule lo==hi.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	if m.checked && m.err != nil {
		return False
	}
	t := &m.unique[level]
	if r := m.find(t, lo, hi); r != 0 {
		m.counts.uniqueHits++
		return r
	}
	m.counts.uniqueMisses++
	r := m.alloc(level, lo, hi)
	m.link(t, r)
	m.peak = max(m.peak, m.live)
	if m.checked {
		m.checkNodes()
	}
	return r
}

// alloc places the node (level, lo, hi) in the most recently freed slot,
// or else at the end of the arena.
func (m *Manager) alloc(level int32, lo, hi Ref) Ref {
	m.live++
	if n := len(m.free); n > 0 {
		r := m.free[n-1]
		m.free = m.free[:n-1]
		m.nodes[r] = node{level: level, lo: lo, hi: hi}
		return r
	}
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	return Ref(len(m.nodes) - 1)
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// ITE computes if-then-else: f ? g : h. All Boolean connectives reduce to
// it.
func (m *Manager) ITE(f, g, h Ref) Ref {
	r := m.ite(f, g, h)
	m.opDone()
	return r
}

func (m *Manager) ite(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if m.checked && !m.checkStep() {
		return False
	}
	if r, ok := m.memo.get(f, g, h); ok {
		m.counts.iteHits++
		return r
	}
	m.counts.iteMisses++
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo := m.ite(f0, g0, h0)
	hi := m.ite(f1, g1, h1)
	if m.checked && m.err != nil {
		// The budget tripped somewhere below: lo/hi are placeholder False
		// refs, so neither build a node from them nor poison the memo.
		return False
	}
	r := m.mk(top, lo, hi)
	m.memo.put(f, g, h, r)
	return r
}

func (m *Manager) cofactors(f Ref, level int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// Not returns the complement of f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns the conjunction of the arguments (True for none).
func (m *Manager) And(fs ...Ref) Ref {
	r := True
	for _, f := range fs {
		r = m.ITE(r, f, False)
		if r == False {
			return False
		}
	}
	return r
}

// Or returns the disjunction of the arguments (False for none).
func (m *Manager) Or(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		r = m.ITE(r, True, f)
		if r == True {
			return True
		}
	}
	return r
}

// Xor returns the exclusive-or of the arguments (False for none).
func (m *Manager) Xor(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		r = m.ITE(r, m.Not(f), f)
	}
	return r
}

// Xnor returns the complement of Xor.
func (m *Manager) Xnor(fs ...Ref) Ref { return m.Not(m.Xor(fs...)) }

// Implies returns f -> g.
func (m *Manager) Implies(f, g Ref) Ref { return m.ITE(f, g, True) }

// Restrict cofactors f with variable i fixed to val.
//
// Like ITE, the walk accounts recursion steps against the manager's
// budget and polls the context, so quantification built on Restrict
// (Exists, Forall, ExistsSet, ForallSet, Compose) is bounded too. On a
// poisoned manager it returns False immediately.
func (m *Manager) Restrict(f Ref, i int, val bool) Ref {
	if m.checked && m.err != nil {
		return False
	}
	memo := make(map[Ref]Ref)
	lvl := m.var2level[i]
	var rec func(Ref) Ref
	rec = func(g Ref) Ref {
		n := m.nodes[g]
		if n.level > lvl {
			return g
		}
		if r, ok := memo[g]; ok {
			return r
		}
		if m.checked && !m.checkStep() {
			return False
		}
		var r Ref
		if n.level == lvl {
			if val {
				r = n.hi
			} else {
				r = n.lo
			}
		} else {
			r = m.mk(n.level, rec(n.lo), rec(n.hi))
		}
		memo[g] = r
		return r
	}
	r := rec(f)
	m.opDone()
	if m.checked && m.err != nil {
		return False
	}
	return r
}

// Exists existentially quantifies out variable i: f[i=0] | f[i=1].
func (m *Manager) Exists(f Ref, i int) Ref {
	return m.Or(m.Restrict(f, i, false), m.Restrict(f, i, true))
}

// Forall universally quantifies out variable i: f[i=0] & f[i=1].
func (m *Manager) Forall(f Ref, i int) Ref {
	return m.And(m.Restrict(f, i, false), m.Restrict(f, i, true))
}

// ExistsSet quantifies out every variable whose index is in vars.
func (m *Manager) ExistsSet(f Ref, vars []int) Ref {
	for _, v := range vars {
		f = m.Exists(f, v)
	}
	return f
}

// ForallSet universally quantifies out every variable in vars.
func (m *Manager) ForallSet(f Ref, vars []int) Ref {
	for _, v := range vars {
		f = m.Forall(f, v)
	}
	return f
}

// Compose substitutes function g for variable i in f.
func (m *Manager) Compose(f Ref, i int, g Ref) Ref {
	// f[x_i <- g] = ITE(g, f[x_i=1], f[x_i=0])
	return m.ITE(g, m.Restrict(f, i, true), m.Restrict(f, i, false))
}

// Eval evaluates f under a complete variable assignment (indexed by
// variable, independent of the current order). On a poisoned manager it
// returns false.
func (m *Manager) Eval(f Ref, assign []bool) bool {
	if m.checked && m.err != nil {
		return false
	}
	for f != True && f != False {
		n := m.nodes[f]
		if assign[m.level2var[n.level]] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// Support returns the sorted indices of variables f depends on. On a
// poisoned manager it returns nil.
func (m *Manager) Support(f Ref) []int {
	if m.checked && m.err != nil {
		return nil
	}
	seen := make(map[Ref]bool)
	vars := make(map[int32]bool)
	var rec func(Ref)
	rec = func(g Ref) {
		if g == True || g == False || seen[g] {
			return
		}
		seen[g] = true
		n := m.nodes[g]
		vars[m.level2var[n.level]] = true
		rec(n.lo)
		rec(n.hi)
	}
	rec(f)
	out := make([]int, 0, len(vars))
	for v := int32(0); v < int32(m.nvars); v++ {
		if vars[v] {
			out = append(out, int(v))
		}
	}
	return out
}

// NodeCount returns the number of distinct internal nodes in f (a standard
// BDD size metric, excluding terminals). On a poisoned manager it returns
// zero.
func (m *Manager) NodeCount(f Ref) int {
	if m.checked && m.err != nil {
		return 0
	}
	seen := make(map[Ref]bool)
	var rec func(Ref)
	rec = func(g Ref) {
		if g == True || g == False || seen[g] {
			return
		}
		seen[g] = true
		rec(m.nodes[g].lo)
		rec(m.nodes[g].hi)
	}
	rec(f)
	return len(seen)
}

// SatCount returns the number of satisfying assignments of f over all
// nvars variables, as a float64 (exact for < 2^53). The count is scaled
// in log space (math.Ldexp), so managers with >= 1024 variables still get
// finite counts whenever the true count fits in a float64; it saturates
// to +Inf only when the count itself exceeds the float64 range (and is 0,
// not NaN, for the constant-false function at any width).
func (m *Manager) SatCount(f Ref) float64 {
	return math.Ldexp(m.Probability(f, nil), m.nvars)
}

// Probability returns the probability that f evaluates to 1 when each
// variable i is independently 1 with probability p[i] (indexed by
// variable, independent of the current order). A nil p means every
// variable has probability 1/2. This is the exact signal probability used
// by internal/power. On a poisoned manager it returns 0.
func (m *Manager) Probability(f Ref, p []float64) float64 {
	if m.checked && m.err != nil {
		return 0
	}
	memo := make(map[Ref]float64)
	var rec func(Ref) float64
	rec = func(g Ref) float64 {
		switch g {
		case False:
			return 0
		case True:
			return 1
		}
		if v, ok := memo[g]; ok {
			return v
		}
		v := m.shannon(g, p, rec(m.nodes[g].lo), rec(m.nodes[g].hi))
		memo[g] = v
		return v
	}
	return rec(f)
}

// Probabilities returns Probability(roots[i], p) for every root in one
// pass: each node shared between the roots' cones is evaluated once, into
// a flat table indexed by Ref. The values are bit-identical to separate
// Probability calls. On a poisoned manager every value is 0.
func (m *Manager) Probabilities(roots []Ref, p []float64) []float64 {
	out := make([]float64, len(roots))
	if m.checked && m.err != nil {
		return out
	}
	val := make([]float64, len(m.nodes))
	done := make([]bool, len(m.nodes))
	val[True], done[False], done[True] = 1, true, true
	var rec func(Ref) float64
	rec = func(g Ref) float64 {
		if !done[g] {
			val[g] = m.shannon(g, p, rec(m.nodes[g].lo), rec(m.nodes[g].hi))
			done[g] = true
		}
		return val[g]
	}
	for i, r := range roots {
		out[i] = rec(r)
	}
	return out
}

// shannon combines the cofactor probabilities of internal node g.
func (m *Manager) shannon(g Ref, p []float64, lo, hi float64) float64 {
	pv := 0.5
	if p != nil {
		pv = p[m.level2var[m.nodes[g].level]]
	}
	return pv*hi + (1-pv)*lo
}

// AnySat returns one satisfying assignment of f (indexed by variable), or
// nil if f is unsatisfiable. Variables not in the support are set false.
// On a poisoned manager it returns nil.
func (m *Manager) AnySat(f Ref) []bool {
	if f == False {
		return nil
	}
	if m.checked && m.err != nil {
		return nil
	}
	assign := make([]bool, m.nvars)
	for f != True {
		n := m.nodes[f]
		if n.hi != False {
			assign[m.level2var[n.level]] = true
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return assign
}

// Low and High expose the cofactors and level of an internal node, for
// algorithms that walk the graph directly. They panic on terminals.
func (m *Manager) Low(f Ref) Ref {
	m.checkInternal(f)
	return m.nodes[f].lo
}

// High returns the positive cofactor edge of an internal node.
func (m *Manager) High(f Ref) Ref {
	m.checkInternal(f)
	return m.nodes[f].hi
}

// Level returns the variable index tested at the root of f.
func (m *Manager) Level(f Ref) int {
	m.checkInternal(f)
	return int(m.level2var[m.nodes[f].level])
}

func (m *Manager) checkInternal(f Ref) {
	if f == True || f == False {
		panic("bdd: cofactor access on terminal node")
	}
}
