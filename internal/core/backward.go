package core

import (
	"context"
	"math"
	"time"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// MIBackward runs the original Backward expanding search of BANKS (§3):
// one single-source shortest-path (Dijkstra) iterator per keyword node,
// each traversing combined edges in reverse, globally scheduled by the
// distance of the next frontier node. A node settled by iterators covering
// every keyword becomes an answer root.
//
// The per-iterator visited lists deliberately reproduce the algorithm's
// memory behaviour: a node reached by many iterators is stored once per
// iterator, which is exactly the cost §4.2.1 criticizes.
//
// ctx bounds the search: on expiry the answers buffered so far are flushed
// as a partial top-k with Stats.Truncated set.
func MIBackward(ctx context.Context, g graph.View, keywords [][]graph.NodeID, opts Options) (*Result, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := validateInput(g, keywords); err != nil {
		return nil, err
	}
	start := time.Now()
	stats := &Stats{}
	out := newOutputHeap(opts.K, !opts.StrictBound, start, stats, opts.Emit)
	m := &miSearch{
		canceller: newCanceller(ctx, stats),
		g:         g,
		opts:      opts,
		nk:        len(keywords),
		kw:        keywords,
		bits:      make(map[graph.NodeID]uint32),
		glob:      make(map[graph.NodeID]*miGlobal),
		out:       out,
		stats:     stats,
		sched:     pqueue.NewMin[int](),
	}
	for i, s := range keywords {
		for _, u := range s {
			m.bits[u] |= 1 << i
		}
	}
	if !m.expired() && !anyEmptyKeyword(keywords) {
		m.seed()
		expandLoop(m, &m.canceller, out, opts.MaxNodes)
	}
	stats.Duration = time.Since(start)
	return &Result{Answers: out.results(), Stats: *stats}, nil
}

// miIterator is one single-source shortest-path iterator (§3): Dijkstra
// from a keyword node over reversed combined edges.
type miIterator struct {
	origin graph.NodeID
	kw     int // index of the keyword the origin matches

	frontier *pqueue.Heap[graph.NodeID]
	dist     map[graph.NodeID]float64
	next     map[graph.NodeID]graph.NodeID // next hop toward the origin
	depth    map[graph.NodeID]int32
	settled  map[graph.NodeID]struct{}
}

// miGlobal is the cross-iterator state of one node: the best settled
// distance and owning iterator per keyword.
type miGlobal struct {
	dist        []float64
	it          []int32
	lastEmitSum float64
}

// miSearch is one MI-Backward search: the iterators, the global schedule
// over them, and the cross-iterator state of every reached node.
type miSearch struct {
	canceller

	g    graph.View
	opts Options
	nk   int
	kw   [][]graph.NodeID
	bits map[graph.NodeID]uint32

	iters []*miIterator
	glob  map[graph.NodeID]*miGlobal
	out   *outputHeap
	stats *Stats
	// sched orders iterators by the distance of their frontier heads.
	sched *pqueue.Heap[int]
}

func (m *miSearch) seed() {
	for i, si := range m.kw {
		for _, u := range si {
			it := &miIterator{
				origin:   u,
				kw:       i,
				frontier: pqueue.NewMin[graph.NodeID](),
				dist:     map[graph.NodeID]float64{u: 0},
				next:     map[graph.NodeID]graph.NodeID{u: graph.InvalidNode},
				depth:    map[graph.NodeID]int32{u: 0},
				settled:  make(map[graph.NodeID]struct{}),
			}
			it.frontier.Push(u, 0)
			m.stats.NodesTouched++
			m.sched.Push(len(m.iters), 0)
			m.iters = append(m.iters, it)
		}
	}
}

func (m *miSearch) empty() bool { return m.sched.Len() == 0 }

// step advances the iterator with the nearest frontier head and
// reschedules it.
func (m *miSearch) step() {
	idx, _, _ := m.sched.Pop()
	m.advance(idx)
	if _, d, ok := m.iters[idx].frontier.Peek(); ok {
		m.sched.Push(idx, d)
	}
}

// advance runs one getnext() of iterator idx (§3): settle the
// minimum-distance frontier node v, merge it into the cross-iterator
// state, and expand the frontier across v's incoming combined edges. The
// globally visible effects keep a fixed order: the explored counter first
// (answer generation stamps read it), then the reach recording and any
// emissions, then the expansion counters.
func (m *miSearch) advance(idx int) {
	it := m.iters[idx]
	v, d, _ := it.frontier.Pop() // scheduled iterators have a frontier head
	it.settled[v] = struct{}{}
	m.stats.NodesExplored++
	m.recordReach(v, d, idx)

	if int(it.depth[v]) >= m.opts.DMax {
		return
	}
	for _, h := range m.g.Neighbors(v) {
		if m.opts.EdgeFilter != nil && !m.opts.EdgeFilter(h.Type, h.Forward) {
			continue
		}
		u := h.To
		if _, done := it.settled[u]; done {
			continue
		}
		m.stats.EdgesRelaxed++
		nd := d + h.WIn
		old, seen := it.dist[u]
		if !seen || nd < old {
			it.dist[u] = nd
			it.next[u] = v
			it.depth[u] = it.depth[v] + 1
			if it.frontier.Contains(u) {
				it.frontier.Bump(u, nd)
			} else {
				it.frontier.Push(u, nd)
				m.stats.NodesTouched++
			}
		}
	}
}

func (m *miSearch) drain(score, edge float64) bool { return m.out.drain(score, edge) }

func (m *miSearch) flush() { m.out.flush() }

// recordReach merges a settled (node, dist) pair into the node's global
// state; if the node is now reached from every keyword, answers are
// emitted (the visited-list intersection test of §3). Unlike the
// single-iterator algorithms, Backward search generates a tree per
// iterator combination (§4.6: it "keeps shortest paths to each node
// containing the keyword"), so every settle of a complete node emits the
// combination routing its keyword through the settling iterator; the
// output heap filters duplicates and keeps the best-scoring variants.
func (m *miSearch) recordReach(v graph.NodeID, d float64, idx int) {
	gn, ok := m.glob[v]
	if !ok {
		gn = &miGlobal{
			dist:        make([]float64, m.nk),
			it:          make([]int32, m.nk),
			lastEmitSum: math.Inf(1),
		}
		for i := range gn.dist {
			gn.dist[i] = math.Inf(1)
			gn.it[i] = -1
		}
		m.glob[v] = gn
	}
	kw := m.iters[idx].kw
	if d < gn.dist[kw] {
		gn.dist[kw] = d
		gn.it[kw] = int32(idx)
	}
	m.maybeEmit(v, gn)
	// Emit the variant that reaches keyword kw through this specific
	// iterator even when it is not the closest origin — Backward search
	// keeps all such per-origin trees, and a longer path may end at a
	// higher-prestige leaf.
	if gn.it[kw] != int32(idx) {
		m.emitVariant(v, gn, kw, int32(idx))
	}
}

// emitVariant emits the tree rooted at v whose path for keyword kw goes
// through iterator override, with all other keywords routed through their
// best iterators. No-op while v is incomplete.
func (m *miSearch) emitVariant(v graph.NodeID, gn *miGlobal, kw int, override int32) {
	for i := 0; i < m.nk; i++ {
		if gn.it[i] < 0 {
			return
		}
	}
	its := make([]int32, m.nk)
	copy(its, gn.it)
	its[kw] = override
	m.emitCombination(v, its)
}

func (m *miSearch) maybeEmit(v graph.NodeID, gn *miGlobal) {
	sum := 0.0
	for i := 0; i < m.nk; i++ {
		if math.IsInf(gn.dist[i], 1) {
			return
		}
		sum += gn.dist[i]
	}
	if sum >= gn.lastEmitSum-1e-12 {
		return
	}
	gn.lastEmitSum = sum
	m.emitCombination(v, gn.it)
}

// emitCombination builds and buffers the answer rooted at v with keyword i
// reached through iterator its[i]. v is settled in every such iterator, and
// so is each hop of its next chain back to the origin; a settled node's
// next pointer never changes again, so the chains are final paths.
func (m *miSearch) emitCombination(v graph.NodeID, its []int32) {
	paths := make([][]graph.NodeID, m.nk)
	for i := 0; i < m.nk; i++ {
		it := m.iters[its[i]]
		path := []graph.NodeID{v}
		cur := v
		for cur != it.origin {
			nxt, ok := it.next[cur]
			if !ok || nxt == graph.InvalidNode {
				return // defensive: broken chain
			}
			path = append(path, nxt)
			cur = nxt
		}
		paths[i] = path
	}
	kwBits := func(u graph.NodeID) uint32 { return m.bits[u] }
	if a := buildAnswer(m.g, m.opts, v, paths, kwBits, m.nk); a != nil {
		m.out.add(a)
	}
}

// upperBound is the §4.5 bound adapted to multiple iterators: mᵢ is the
// smallest frontier-head distance among keyword i's iterators.
func (m *miSearch) upperBound() (score, edge float64) {
	mi := make([]float64, m.nk)
	for i := range mi {
		mi[i] = math.Inf(1)
	}
	for _, it := range m.iters {
		if _, d, ok := it.frontier.Peek(); ok && d < mi[it.kw] {
			mi[it.kw] = d
		}
	}
	h := 0.0
	for i := 0; i < m.nk; i++ {
		if math.IsInf(mi[i], 1) {
			// Keyword i's iterators are exhausted: existing distances are
			// final; future answers can only combine already-known reaches
			// for i, so treat its contribution as 0 (conservative).
			continue
		}
		h += mi[i]
	}
	if m.sched.Len() == 0 {
		return 0, math.Inf(1)
	}
	return scoreUpperBound(m.g, h, m.nk, m.opts.Lambda), h
}
