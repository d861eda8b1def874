package bdd

import "sort"

// siftMaxGrowth caps how far the live node count may grow past the best
// size seen while a variable is in flight before the sift direction is
// abandoned.
const siftMaxGrowth = 1.2

// ReorderStats reports what a Reorder call did.
type ReorderStats struct {
	Vars   int // variables sifted
	Swaps  int // adjacent-level swaps performed
	Before int // live internal nodes reachable from the roots, pre-sift
	After  int // live internal nodes after sifting
}

// Reorder runs sifting-based dynamic variable reordering: each variable
// is moved through the order by in-place adjacent-level swaps and left at
// the position minimizing the live node count, subject to the growth cap
// siftMaxGrowth. Every variable is sifted, most-populated levels first.
//
// roots must list every Ref the caller still holds; everything not
// reachable from them is garbage-collected into the manager's free list
// first (external Refs in roots remain valid across the call — swaps
// rewrite nodes in place). The ITE memo is cleared.
//
// Reorder is budget-aware: swap work is charged against MaxSteps, the
// node high-water is checked against MaxNodes, and the context is polled
// between swaps. On a trip the manager is poisoned as usual and the
// sticky error returned; swaps themselves are atomic, so the graph stays
// structurally consistent even then.
func (m *Manager) Reorder(roots []Ref) (ReorderStats, error) {
	if m.checked && m.err != nil {
		return ReorderStats{}, m.err
	}
	s := &sifter{m: m}
	s.init(roots)
	st := ReorderStats{Before: s.size}

	// Sift the most-populated levels first: moving a fat variable is
	// where the big wins are, and doing it early keeps later sifts cheap.
	type varLoad struct {
		v   int
		pop int
	}
	loads := make([]varLoad, m.nvars)
	for l := 0; l < m.nvars; l++ {
		loads[l] = varLoad{v: int(m.level2var[l]), pop: len(s.bucket(l))}
	}
	sort.SliceStable(loads, func(i, j int) bool { return loads[i].pop > loads[j].pop })

	var err error
	for _, ld := range loads {
		if ld.pop == 0 {
			continue // nothing tests this variable; moving it is a no-op
		}
		if err = s.sift(ld.v); err != nil {
			break
		}
		st.Vars++
	}
	st.Swaps = s.swaps
	st.After = s.size
	m.met.reorderRuns.Inc()
	m.met.reorderSwaps.Add(int64(s.swaps))
	if saved := st.Before - st.After; saved > 0 {
		m.met.reorderSaved.Add(int64(saved))
	}
	m.peak = max(m.peak, m.live)
	m.opDone()
	return st, err
}

// sifter holds the per-Reorder bookkeeping: reference counts (parent
// edges plus root pins), per-level node lists, and the live internal node
// count that sifting minimizes.
type sifter struct {
	m        *Manager
	rc       []int32 // per-Ref: incoming edges from live nodes + root pins
	buckets  [][]Ref // per-level live node lists; lazily filtered
	stamp    []int32 // per-Ref dedup stamp for bucket filtering
	stampGen int32
	size     int // live internal nodes
	swaps    int

	// swap's scratch, reused from one swap to the next.
	deps  []depNode
	indep []Ref
}

// depNode is a level-l node that tests the level-(l+1) variable on at
// least one edge, captured with its cofactor quad before a swap.
type depNode struct {
	r                  Ref
	f00, f01, f10, f11 Ref
	oldLo, oldHi       Ref
}

// init builds reference counts from the arena, garbage-collects
// everything unreachable from roots, populates the level buckets in Ref
// order (deterministic), and clears the ITE memo, whose entries may
// reference reclaimed nodes.
func (s *sifter) init(roots []Ref) {
	m := s.m
	s.rc = make([]int32, len(m.nodes))
	s.stamp = make([]int32, len(m.nodes))
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		n := m.nodes[r]
		if n.level == freeLevel {
			continue
		}
		if n.lo > 1 {
			s.rc[n.lo]++
		}
		if n.hi > 1 {
			s.rc[n.hi]++
		}
	}
	for _, r := range roots {
		if r > 1 {
			s.rc[r]++
		}
	}
	s.size = m.live - 2
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		if m.nodes[r].level != freeLevel && s.rc[r] == 0 {
			s.freeNode(r)
		}
	}
	s.buckets = make([][]Ref, m.nvars)
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		if lv := m.nodes[r].level; lv != freeLevel {
			s.buckets[lv] = append(s.buckets[lv], r)
		}
	}
	m.memo.reset()
}

// bucket returns the live nodes currently at level l, compacting stale
// entries (freed or re-leveled slots) out of the stored slice. The stamp
// pass drops duplicates a recycled slot could otherwise introduce.
func (s *sifter) bucket(l int) []Ref {
	s.stampGen++
	raw := s.buckets[l]
	out := raw[:0]
	for _, r := range raw {
		if s.m.nodes[r].level == int32(l) && s.stamp[r] != s.stampGen {
			s.stamp[r] = s.stampGen
			out = append(out, r)
		}
	}
	s.buckets[l] = out
	return out
}

// mkAt finds or creates (level, lo, hi) during a swap. Unlike Manager.mk
// it maintains the sifter's reference counts and buckets and performs no
// budget checks: budget state is only examined between swaps, so a swap
// can never be torn by a mid-flight trip.
func (s *sifter) mkAt(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	m := s.m
	t := &m.unique[level]
	if r := m.find(t, lo, hi); r != 0 {
		return r
	}
	r := m.alloc(level, lo, hi)
	if int(r) == len(s.rc) {
		s.rc = append(s.rc, 0)
		s.stamp = append(s.stamp, 0)
	}
	m.link(t, r)
	s.size++
	if lo > 1 {
		s.rc[lo]++
	}
	if hi > 1 {
		s.rc[hi]++
	}
	s.buckets[level] = append(s.buckets[level], r)
	return r
}

// deref drops one reference to g, reclaiming it when none remain.
func (s *sifter) deref(g Ref) {
	if g <= 1 {
		return
	}
	s.rc[g]--
	if s.rc[g] == 0 {
		s.freeNode(g)
	}
}

// freeNode reclaims an unreferenced node: it is unlinked from its unique
// subtable, the slot is pushed on the free list with the freeLevel
// sentinel, and its children are dereferenced in cascade.
func (s *sifter) freeNode(g Ref) {
	m := s.m
	n := m.nodes[g]
	m.unlink(&m.unique[n.level], g)
	m.nodes[g].level = freeLevel
	m.free = append(m.free, g)
	m.live--
	s.size--
	s.deref(n.lo)
	s.deref(n.hi)
}

// swap exchanges levels l and l+1 in place. Nodes keep their Refs: a
// level-l node independent of the lower variable just moves down a
// level; a dependent one is rewritten as (y ? (x?f11:f01) : (x?f10:f00))
// with freshly interned level-(l+1) cofactor nodes. The phase order —
// capture cofactor quads, empty level l's subtable and exchange the two,
// re-link the independent sinkers, rewrite the dependent nodes, then
// release their old children — makes unique-table collisions impossible
// mid-swap.
func (s *sifter) swap(l int) {
	m := s.m
	ll, lh := int32(l), int32(l+1)
	xs := s.bucket(l)
	ys := s.bucket(l + 1)

	s.deps, s.indep = s.deps[:0], s.indep[:0]
	for _, x := range xs {
		n := m.nodes[x]
		loDep := m.nodes[n.lo].level == lh
		hiDep := m.nodes[n.hi].level == lh
		if !loDep && !hiDep {
			s.indep = append(s.indep, x)
			continue
		}
		d := depNode{r: x, oldLo: n.lo, oldHi: n.hi}
		if loDep {
			d.f00, d.f01 = m.nodes[n.lo].lo, m.nodes[n.lo].hi
		} else {
			d.f00, d.f01 = n.lo, n.lo
		}
		if hiDep {
			d.f10, d.f11 = m.nodes[n.hi].lo, m.nodes[n.hi].hi
		} else {
			d.f10, d.f11 = n.hi, n.hi
		}
		s.deps = append(s.deps, d)
	}

	// Every node of level l's subtable is in xs, so it empties in one
	// step; then the two subtables trade places whole. The rising ys keep
	// their chains, so a swap costs O(|level l| + re-leveling).
	tx := &m.unique[ll]
	clear(tx.heads)
	tx.n = 0
	m.unique[ll], m.unique[lh] = m.unique[lh], m.unique[ll]
	for _, y := range ys {
		m.nodes[y].level = ll
	}
	th := &m.unique[lh]
	for _, x := range s.indep {
		m.nodes[x].level = lh
		m.link(th, x)
	}

	// Rebuild the two buckets: level l holds the risen ys plus the
	// rewritten dependents (the ys slice moves wholesale); level l+1
	// reuses the xs array for the independent sinkers plus whatever mkAt
	// interns below.
	s.buckets[l] = ys
	s.buckets[l+1] = append(xs[:0], s.indep...)

	tl := &m.unique[ll]
	for _, d := range s.deps {
		a0 := s.mkAt(lh, d.f00, d.f10)
		a1 := s.mkAt(lh, d.f01, d.f11)
		if a0 > 1 {
			s.rc[a0]++
		}
		if a1 > 1 {
			s.rc[a1]++
		}
		m.nodes[d.r] = node{level: ll, lo: a0, hi: a1}
		m.link(tl, d.r)
		s.buckets[l] = append(s.buckets[l], d.r)
	}
	// Old children are released only after every dependent node has been
	// rewritten: the captured quads must stay alive until the last one.
	for _, d := range s.deps {
		s.deref(d.oldLo)
		s.deref(d.oldHi)
	}

	xv, yv := m.level2var[l], m.level2var[l+1]
	m.level2var[l], m.level2var[l+1] = yv, xv
	m.var2level[xv], m.var2level[yv] = lh, ll
	s.swaps++
	m.steps += int64(len(xs)+len(ys)) + 1
}

// check enforces the manager's budget and context between swaps.
func (s *sifter) check() error {
	m := s.m
	if m.err != nil {
		return m.err
	}
	if m.budget.MaxSteps > 0 && m.steps > m.budget.MaxSteps {
		m.fail("steps")
		return m.err
	}
	if m.budget.MaxNodes > 0 && m.live > m.budget.MaxNodes {
		m.fail("nodes")
		return m.err
	}
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			m.fail(err.Error())
			return m.err
		}
	}
	return nil
}

// sift moves variable v through the whole order (nearer end first),
// remembers the position minimizing the live node count, and moves it
// back there. Each direction is abandoned once the size exceeds
// siftMaxGrowth times the best size seen.
func (s *sifter) sift(v int) error {
	m := s.m
	n := m.nvars
	best := s.size
	bestL := int(m.var2level[v])
	limit := func() int { return int(float64(best)*siftMaxGrowth) + 2 }
	note := func() {
		if s.size < best {
			best, bestL = s.size, int(m.var2level[v])
		}
	}
	down := func() error {
		for int(m.var2level[v]) < n-1 {
			if err := s.check(); err != nil {
				return err
			}
			s.swap(int(m.var2level[v]))
			note()
			if s.size > limit() {
				return nil
			}
		}
		return nil
	}
	up := func() error {
		for int(m.var2level[v]) > 0 {
			if err := s.check(); err != nil {
				return err
			}
			s.swap(int(m.var2level[v]) - 1)
			note()
			if s.size > limit() {
				return nil
			}
		}
		return nil
	}
	var err error
	if n-1-int(m.var2level[v]) <= int(m.var2level[v]) {
		if err = down(); err == nil {
			err = up()
		}
	} else {
		if err = up(); err == nil {
			err = down()
		}
	}
	if err != nil {
		return err
	}
	for int(m.var2level[v]) < bestL {
		if err := s.check(); err != nil {
			return err
		}
		s.swap(int(m.var2level[v]))
	}
	for int(m.var2level[v]) > bestL {
		if err := s.check(); err != nil {
			return err
		}
		s.swap(int(m.var2level[v]) - 1)
	}
	return nil
}
