package core

import (
	"context"
	"math"
	"sort"
	"time"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// parentEdge is one entry of an explored-parents list P_u: the parent
// node and the combined-graph weight of the edge parent→u.
type parentEdge struct {
	node graph.NodeID
	w    float64
}

// Result is the outcome of one search.
type Result struct {
	// Answers in output order (relevance order up to the guarantees of the
	// bound mode, §4.5/§5.7).
	Answers []*Answer
	Stats   Stats
}

// nodeState holds the per-node bookkeeping of the single-iterator
// algorithms (Figure 2): per-keyword best distance dist_{u,i}, best child
// pointer sp_{u,i}, activation a_{u,i}, depth, explored-parent list P_u,
// and membership flags for Qin/Xin/Qout/Xout.
type nodeState struct {
	dist  []float64
	sp    []graph.NodeID
	act   []float64
	depth int32

	inXin  bool
	inXout bool

	// parents is P_u: nodes w that explored an edge (w,u), with the
	// combined edge weight w(w→u) captured at exploration time so Attach
	// propagation needs no adjacency rescan. Distance improvements at u
	// propagate to them (Attach, Figure 3).
	parents []parentEdge

	// lastEmitSum is Σᵢ dist at the last emission (or candidate update)
	// for this node as root; re-emission is attempted only when the sum
	// strictly improves.
	lastEmitSum float64
	// dirty marks the node as queued for deferred emission (strict mode).
	dirty bool
	// genAt/genExplored/genTouched snapshot the generation-time metrics at
	// the node's latest emission.
	genAt                   time.Duration
	genExplored, genTouched int

	// invIn/invOut cache Σ 1/w over allowed in-/out-edges (activation
	// spreading denominators); negative means not yet computed.
	invIn, invOut float64
}

// cancelEvery is how many node expansions pass between context checks.
// A check is an atomic load plus a clock read; amortizing it over a batch
// of pops keeps the overhead unmeasurable while still bounding
// post-cancellation work to microseconds.
const cancelEvery = 64

// canceller performs amortized cancellation checks against a context,
// recording expiry as Stats.Truncated (sticky: once observed, every later
// check is true without consulting the context again). The deadline is
// also compared against the clock directly rather than relying on
// ctx.Err() alone: a CPU-bound search goroutine can starve the runtime
// timer that would cancel the context (especially at GOMAXPROCS=1), and a
// deadline that has objectively passed must still truncate promptly.
type canceller struct {
	ctx         context.Context
	stats       *Stats
	deadline    time.Time
	hasDeadline bool
	// calls counts checks since the context was last consulted.
	calls int
}

func newCanceller(ctx context.Context, stats *Stats) canceller {
	d, ok := ctx.Deadline()
	return canceller{ctx: ctx, stats: stats, deadline: d, hasDeadline: ok}
}

// expired reports expiry immediately (no amortization), setting
// Stats.Truncated when it first observes it.
func (c *canceller) expired() bool {
	if c.stats.Truncated {
		return true
	}
	if c.ctx.Err() != nil || (c.hasDeadline && !time.Now().Before(c.deadline)) {
		c.stats.Truncated = true
		return true
	}
	return false
}

// cancelled reports expiry, consulting the context and clock only every
// cancelEvery calls.
func (c *canceller) cancelled() bool {
	if c.stats.Truncated {
		return true
	}
	c.calls++
	if c.calls < cancelEvery {
		return false
	}
	c.calls = 0
	return c.expired()
}

// searchContext is the shared state of SI-Backward and Bidirectional
// search over one query.
type searchContext struct {
	canceller

	g     graph.View
	opts  Options
	nk    int
	kw    [][]graph.NodeID
	bits  map[graph.NodeID]uint32 // keyword-match bitmask per matching node
	state map[graph.NodeID]*nodeState
	out   *outputHeap
	stats *Stats
	start time.Time
	// dirtyEmits queues completed nodes whose answers are built lazily at
	// the next drain point (strict-bound mode): distances of a node
	// typically improve many times in a burst during Attach propagation,
	// and building a tree per improvement would dominate the run time.
	// Generation counters are snapshotted at mark time so §5.2 metrics are
	// unaffected by the deferral.
	dirtyEmits []graph.NodeID
	// cands holds completed answer roots keyed by their distance sum (the
	// default heuristic-bound mode): trees are built only when the §4.5
	// edge bound releases the root, so a search producing k answers builds
	// O(k) trees no matter how many roots completed transiently.
	cands *pqueue.Heap[graph.NodeID]
	// lazy selects the candidate path (heuristic mode).
	lazy bool
	// now caches time.Since(start), refreshed once per node expansion, so
	// per-improvement snapshots avoid a clock read.
	now time.Duration
	// boundHeaps maintains, per keyword, a lazy min-heap over the known
	// distances of nodes not yet expanded backward (not in Xin). Its top
	// gives the §4.5 frontier minimum mᵢ in amortized O(1) instead of a
	// full frontier scan per drain. Entries are decrease-keyed on every
	// relaxation and lazily discarded once their node enters Xin.
	boundHeaps []*pqueue.Heap[graph.NodeID]
	// attach is the reusable work heap for best-first distance propagation
	// (Figure 3's Attach).
	attach *pqueue.Heap[graph.NodeID]
	// rekey, when set, is told of every explored parent whose distances
	// Attach lowered, before the parent is offered for emission.
	rekey func(graph.NodeID, *nodeState)
}

func newSearchContext(ctx context.Context, g graph.View, keywords [][]graph.NodeID, opts Options) *searchContext {
	start := time.Now()
	stats := &Stats{}
	sc := &searchContext{
		canceller: newCanceller(ctx, stats),
		g:         g,
		opts:      opts,
		nk:        len(keywords),
		kw:        keywords,
		bits:      make(map[graph.NodeID]uint32),
		state:     make(map[graph.NodeID]*nodeState),
		out:       newOutputHeap(opts.K, !opts.StrictBound, start, stats, opts.Emit),
		stats:     stats,
		start:     start,
		cands:     pqueue.NewMin[graph.NodeID](),
		lazy:      !opts.StrictBound,
	}
	sc.boundHeaps = make([]*pqueue.Heap[graph.NodeID], sc.nk)
	for i := range sc.boundHeaps {
		sc.boundHeaps[i] = pqueue.NewMin[graph.NodeID]()
	}
	for i, s := range keywords {
		for _, u := range s {
			sc.bits[u] |= 1 << i
		}
	}
	return sc
}

// tick refreshes the cached clock; called once per node expansion.
func (sc *searchContext) tick() { sc.now = time.Since(sc.start) }

// seedNodes returns the keyword-matching nodes in ascending NodeID order.
// Frontiers must be seeded in deterministic order: map iteration order
// would otherwise leak into heap tie-breaking and make equal-score answer
// orderings vary run to run, which the golden regression tests and the
// concurrent-vs-serial equivalence tests forbid.
func (sc *searchContext) seedNodes() []graph.NodeID {
	nodes := make([]graph.NodeID, 0, len(sc.bits))
	for u := range sc.bits {
		nodes = append(nodes, u)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// kwBits returns the keyword bitmask of node u.
func (sc *searchContext) kwBits(u graph.NodeID) uint32 { return sc.bits[u] }

// st returns (creating if needed) the state of node u.
func (sc *searchContext) st(u graph.NodeID) *nodeState {
	s, ok := sc.state[u]
	if !ok {
		s = &nodeState{
			dist:        make([]float64, sc.nk),
			sp:          make([]graph.NodeID, sc.nk),
			act:         make([]float64, sc.nk),
			depth:       -1,
			lastEmitSum: math.Inf(1),
			invIn:       -1,
			invOut:      -1,
		}
		for i := 0; i < sc.nk; i++ {
			s.dist[i] = math.Inf(1)
			s.sp[i] = graph.InvalidNode
		}
		if b := sc.bits[u]; b != 0 {
			for i := 0; i < sc.nk; i++ {
				if b&(1<<i) != 0 {
					// Seed distances do not enter the bound tracker: mᵢ is
					// the minimum over nodes reached by backward expansion
					// ("nodes in the backward search trees", §4.5), not
					// over still-unexpanded origin nodes — otherwise one
					// large origin set would pin the bound at zero until
					// fully expanded, blocking all output. This is part of
					// the paper's looser-heuristic trade-off (answers may
					// release slightly out of order; §5.7 measures the
					// effect as negligible).
					s.dist[i] = 0
				}
			}
		}
		sc.state[u] = s
	}
	return s
}

// peekState returns the state of u without creating it.
func (sc *searchContext) peekState(u graph.NodeID) (*nodeState, bool) {
	s, ok := sc.state[u]
	return s, ok
}

// noteDist records a distance relaxation with the bound tracker. Call
// after updating s.dist[i] for a node that has not been backward-expanded.
func (sc *searchContext) noteDist(u graph.NodeID, s *nodeState, i int) {
	if !s.inXin {
		sc.boundHeaps[i].Improve(u, s.dist[i])
	}
}

// frontierMin returns mᵢ: the smallest known distance to keyword i among
// nodes not yet backward-expanded (∞ when none).
func (sc *searchContext) frontierMin(i int) float64 {
	h := sc.boundHeaps[i]
	for {
		u, d, ok := h.Peek()
		if !ok {
			return math.Inf(1)
		}
		if s, exists := sc.state[u]; exists && s.inXin {
			h.Pop()
			continue
		}
		return d
	}
}

// allowEdge applies the optional edge-type filter.
func (sc *searchContext) allowEdge(h graph.Half) bool {
	return sc.opts.EdgeFilter == nil || sc.opts.EdgeFilter(h.Type, h.Forward)
}

// complete reports whether node u has a known path to every keyword.
func (sc *searchContext) complete(s *nodeState) bool {
	for i := 0; i < sc.nk; i++ {
		if math.IsInf(s.dist[i], 1) {
			return false
		}
	}
	return true
}

// distSum returns Σᵢ dist_{u,i} (∞ if incomplete).
func (sc *searchContext) distSum(s *nodeState) float64 {
	sum := 0.0
	for i := 0; i < sc.nk; i++ {
		sum += s.dist[i]
	}
	return sum
}

// maybeEmit schedules the answer rooted at u for emission if u is
// complete and improved since its last emission (Figure 3's Emit). Tree
// construction is deferred: in lazy (heuristic-bound) mode the root joins
// the candidate heap and is built only if the bound ever releases it; in
// strict mode it joins the dirty list built at the next drain point.
func (sc *searchContext) maybeEmit(u graph.NodeID) {
	s, ok := sc.peekState(u)
	if !ok || !sc.complete(s) {
		return
	}
	if sc.lazy {
		if sc.out.released(u) {
			return
		}
	} else if s.dirty {
		return
	}
	sum := sc.distSum(s)
	if sum >= s.lastEmitSum-1e-12 {
		return
	}
	s.genAt = sc.now
	s.genExplored = sc.stats.NodesExplored
	s.genTouched = sc.stats.NodesTouched
	if sc.lazy {
		s.lastEmitSum = sum
		sc.cands.Push(u, sum)
		return
	}
	s.dirty = true
	sc.dirtyEmits = append(sc.dirtyEmits, u)
}

// buildFor constructs the current answer tree rooted at u, stamped with
// u's generation snapshot. It returns nil for non-minimal or inconsistent
// trees.
func (sc *searchContext) buildFor(u graph.NodeID) *Answer {
	s, ok := sc.peekState(u)
	if !ok {
		return nil
	}
	paths := make([][]graph.NodeID, sc.nk)
	for i := 0; i < sc.nk; i++ {
		p := sc.followSP(u, i)
		if p == nil {
			return nil
		}
		paths[i] = p
	}
	a := buildAnswer(sc.g, sc.opts, u, paths, sc.kwBits, sc.nk)
	if a == nil {
		return nil
	}
	a.GeneratedAt = s.genAt
	a.ExploredAtGen = s.genExplored
	a.TouchedAtGen = s.genTouched
	return a
}

// drainCands releases candidate roots whose distance sum beats the §4.5
// edge bound (every root when final), building trees lazily, sorting each
// eligible batch by relevance score. It returns true when k answers are
// out.
func (sc *searchContext) drainCands(edgeBound float64, final bool) bool {
	var batch []*Answer
	// On the final flush, build a few extra candidates beyond k so that
	// the relevance sort can still reorder near the cut.
	budget := sc.out.k - sc.out.len() + 2
	if final {
		budget = 4*sc.out.k + 64
	}
	built := 0
	for sc.cands.Len() > 0 && len(batch) < budget {
		u, sum, _ := sc.cands.Peek()
		if !final && sum >= edgeBound {
			break
		}
		sc.cands.Pop()
		if sc.out.released(u) {
			continue
		}
		if a := sc.buildFor(u); a != nil {
			if a.Score > sc.stats.BestGeneratedScore {
				sc.stats.BestGeneratedScore = a.Score
			}
			batch = append(batch, a)
			built++
			// Tree building dominates large-k flushes; honour the deadline
			// here too so a cancelled search cannot stall in its epilogue.
			if built%32 == 0 && sc.expired() {
				break
			}
		}
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].Score > batch[j].Score })
	for _, a := range batch {
		sc.out.releaseBuilt(a)
	}
	return sc.out.full()
}

// flushEmits builds and buffers the answers of all queued emissions. It is
// called at every drain point and before final flush. Like drainCands it
// checks the deadline between tree builds.
func (sc *searchContext) flushEmits() {
	for n, u := range sc.dirtyEmits {
		if n%32 == 31 && sc.expired() {
			// Tree building dominates large flushes; honour the deadline
			// and abandon the un-built remainder (the search is ending).
			break
		}
		s := sc.state[u]
		s.dirty = false
		sum := sc.distSum(s)
		if sum >= s.lastEmitSum-1e-12 {
			continue
		}
		s.lastEmitSum = sum
		if a := sc.buildFor(u); a != nil {
			sc.out.add(a)
		}
	}
	sc.dirtyEmits = sc.dirtyEmits[:0]
}

// drain releases the answers the §4.5 bounds allow: candidate roots whose
// distance sum beats the edge bound in lazy mode, buffered answers scoring
// at least the score bound in strict mode.
func (sc *searchContext) drain(score, edge float64) bool {
	if sc.lazy {
		return sc.drainCands(edge, false)
	}
	sc.flushEmits()
	return sc.out.drain(score, edge)
}

// flush releases the remaining answers, best first.
func (sc *searchContext) flush() {
	if sc.lazy {
		sc.drainCands(0, true)
		return
	}
	sc.flushEmits()
	sc.out.flush()
}

// upperBound computes the §4.5 bounds on answers not yet generated. mᵢ is
// the minimum dist_{u,i} over the backward frontier; the best future
// aggregate edge score is edge = Σᵢ mᵢ (h in the paper), and the score
// bound combines it with the maximum node prestige. In strict mode the
// bound additionally considers every seen node's partial distances
// (Σᵢ min(dist_{u,i}, mᵢ)), NRA-style. empty reports that the frontier
// has no node left to expand.
func (sc *searchContext) upperBound(empty bool) (score, edge float64) {
	m := make([]float64, sc.nk)
	for i := range m {
		m[i] = sc.frontierMin(i)
	}
	h := 0.0
	for i := 0; i < sc.nk; i++ {
		if math.IsInf(m[i], 1) {
			// No frontier knowledge for keyword i: fall back to the
			// coarser overall-frontier minimum (§4.5); if the frontier is
			// empty no better answer can appear at all.
			if empty {
				return 0, math.Inf(1)
			}
			continue
		}
		h += m[i]
	}
	if sc.opts.StrictBound {
		best := math.Inf(1)
		for _, s := range sc.state {
			sum := 0.0
			for i := 0; i < sc.nk; i++ {
				sum += math.Min(s.dist[i], m[i])
			}
			if sum < best {
				best = sum
			}
		}
		if best < h {
			h = best
		}
	}
	return scoreUpperBound(sc.g, h, sc.nk, sc.opts.Lambda), h
}

// relax lowers u's keyword distances through its successor v on the
// combined edge u→v of weight w, making v the next hop for every keyword
// whose distance drops. It reports whether any did.
func (sc *searchContext) relax(u graph.NodeID, su *nodeState, v graph.NodeID, sv *nodeState, w float64) bool {
	improved := false
	for i := 0; i < sc.nk; i++ {
		if d := w + sv.dist[i]; d < su.dist[i]-1e-15 {
			su.dist[i] = d
			su.sp[i] = v
			sc.noteDist(u, su, i)
			improved = true
		}
	}
	return improved
}

// exploreEdge is Figure 3's ExploreEdge(u,v) without activation: u is the
// predecessor, v the successor of the combined edge u→v with weight w.
// u is recorded as an explored parent of v (P_v), so later distance
// improvements at v reach u (§4.2.2), and distance information flows v→u.
func (sc *searchContext) exploreEdge(u graph.NodeID, su *nodeState, v graph.NodeID, sv *nodeState, w float64) {
	sc.stats.EdgesRelaxed++
	sv.parents = append(sv.parents, parentEdge{node: u, w: w})
	if sc.relax(u, su, v, sv, w) {
		sc.maybeEmit(u)
		sc.attachPropagate(u)
	}
}

// attachPropagate propagates improved distances at u to its explored
// parents, best-first (Figure 3's Attach). Each improvement may complete
// ancestors, triggering emission.
func (sc *searchContext) attachPropagate(u graph.NodeID) {
	if sc.attach == nil {
		sc.attach = pqueue.NewMin[graph.NodeID]()
	}
	work := sc.attach
	work.Clear()
	work.Push(u, sc.distSum(sc.st(u)))
	for work.Len() > 0 {
		v, _, _ := work.Pop()
		sv := sc.st(v)
		for _, pe := range sv.parents {
			sp, ok := sc.peekState(pe.node)
			if !ok || !sc.relax(pe.node, sp, v, sv, pe.w) {
				continue
			}
			if sc.rekey != nil {
				sc.rekey(pe.node, sp)
			}
			sc.maybeEmit(pe.node)
			work.Push(pe.node, sc.distSum(sp))
		}
	}
}

// followSP follows sp pointers from u toward keyword i, returning the node
// sequence u..keyword-node. Distances strictly decrease along sp edges, so
// the walk terminates; a nil return signals corrupted state.
func (sc *searchContext) followSP(u graph.NodeID, i int) []graph.NodeID {
	path := []graph.NodeID{u}
	cur := u
	for hops := 0; hops <= 4*sc.opts.DMax+8; hops++ {
		s, ok := sc.peekState(cur)
		if !ok {
			return nil
		}
		if s.dist[i] == 0 {
			return path
		}
		next := s.sp[i]
		if next == graph.InvalidNode {
			return nil
		}
		path = append(path, next)
		cur = next
	}
	return nil
}

// invSumIn returns Σ 1/w over allowed incoming combined edges of v,
// cached. It is the denominator for backward activation spreading (§4.3).
func (sc *searchContext) invSumIn(v graph.NodeID, s *nodeState) float64 {
	if s.invIn >= 0 {
		return s.invIn
	}
	sum := 0.0
	for _, h := range sc.g.Neighbors(v) {
		if !sc.allowEdge(h) {
			continue
		}
		sum += 1 / h.WIn // in-edge (h.To → v) has weight WIn
	}
	s.invIn = sum
	return sum
}

// invSumOut returns Σ 1/w over allowed outgoing combined edges of u,
// cached (forward activation spreading denominator).
func (sc *searchContext) invSumOut(u graph.NodeID, s *nodeState) float64 {
	if s.invOut >= 0 {
		return s.invOut
	}
	sum := 0.0
	for _, h := range sc.g.Neighbors(u) {
		if !sc.allowEdge(h) {
			continue
		}
		sum += 1 / h.WOut
	}
	s.invOut = sum
	return sum
}

// edgePriority returns the optional activation multiplier for an edge.
func (sc *searchContext) edgePriority(h graph.Half) float64 {
	if sc.opts.EdgePriority == nil {
		return 1
	}
	if p := sc.opts.EdgePriority(h.Type, h.Forward); p > 0 {
		return p
	}
	return 1
}

// totalActivation is a_u = Σᵢ a_{u,i} (§4.3).
func totalActivation(s *nodeState) float64 {
	sum := 0.0
	for _, a := range s.act {
		sum += a
	}
	return sum
}

// anyEmptyKeyword reports whether some keyword matches no nodes (no
// answers can exist then).
func anyEmptyKeyword(keywords [][]graph.NodeID) bool {
	for _, s := range keywords {
		if len(s) == 0 {
			return true
		}
	}
	return false
}

// finishResult stamps duration and packages the result.
func (sc *searchContext) finishResult() *Result {
	// Past a full output a lazy flush would only build trees no one
	// receives; a strict one still buffers the pending emissions, which
	// Stats counts.
	if !sc.lazy || !sc.out.full() {
		sc.flush()
	}
	sc.stats.Duration = time.Since(sc.start)
	return &Result{Answers: sc.out.results(), Stats: *sc.stats}
}
