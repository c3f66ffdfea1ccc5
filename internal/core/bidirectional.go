package core

import (
	"context"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// Bidirectional runs the paper's Bidirectional expanding search (§4,
// Figure 3): a single incoming (backward) iterator seeded at all keyword
// nodes and a concurrent outgoing (forward) iterator over every node the
// incoming iterator reaches (each such node is a potential answer root).
// Both frontiers are prioritized by spreading activation (§4.3), so
// iterators with small origin sets and less bushy subtrees are expanded
// preferentially, and forward search connects high-activation potential
// roots to frequent keywords cheaply.
//
// ctx bounds the search: on cancellation or deadline expiry the loop stops
// at the next amortized check, flushes the answers generated so far as a
// partial top-k, and returns them with Stats.Truncated set (no error).
func Bidirectional(ctx context.Context, g graph.View, keywords [][]graph.NodeID, opts Options) (*Result, error) {
	return runSearch(ctx, g, keywords, opts, func(sc *searchContext) frontier {
		b := &bidirSearch{
			searchContext: sc,
			qin:           pqueue.NewMax[graph.NodeID](),
			qout:          pqueue.NewMax[graph.NodeID](),
		}
		b.seed()
		return b
	})
}

// bidirSearch is Bidirectional search's frontier: the incoming and the
// outgoing iterator's queues, both keyed by activation.
type bidirSearch struct {
	*searchContext
	qin  *pqueue.Heap[graph.NodeID]
	qout *pqueue.Heap[graph.NodeID]
	// activate is the reusable work heap for best-first activation
	// propagation (Figure 3's Activate).
	activate *pqueue.Heap[graph.NodeID]
}

// seed inserts every keyword node into Qin with initial activation
// a_{u,i} = prestige(u)/|Sᵢ| (§4.3 eq. 1) and emits degenerate single-node
// answers for nodes that already cover every keyword.
func (b *bidirSearch) seed() {
	for i, si := range b.kw {
		sz := float64(len(si))
		for _, u := range si {
			s := b.st(u)
			s.depth = 0
			a := b.g.Prestige(u) / sz
			if b.opts.ActivationSum {
				s.act[i] += a
			} else if a > s.act[i] {
				s.act[i] = a
			}
		}
	}
	for _, u := range b.seedNodes() {
		s := b.st(u)
		b.qin.Push(u, totalActivation(s))
		b.stats.NodesTouched++
		b.maybeEmit(u)
	}
}

func (b *bidirSearch) empty() bool { return b.qin.Len() == 0 && b.qout.Len() == 0 }

func (b *bidirSearch) upperBound() (score, edge float64) {
	return b.searchContext.upperBound(b.empty())
}

// step expands whichever iterator holds the higher-activation node
// (Figure 3 lines 5–23).
func (b *bidirSearch) step() {
	_, ain, okIn := b.qin.Peek()
	_, aout, okOut := b.qout.Peek()
	if okIn && (!okOut || ain >= aout) {
		v, _, _ := b.qin.Pop()
		b.expandIncoming(v)
	} else {
		u, _, _ := b.qout.Pop()
		b.expandOutgoing(u)
	}
}

// expandIncoming pops v from the backward frontier: explores incoming
// combined edges (u,v), propagating distances and activation to the
// predecessors u, and registers v with the outgoing iterator as a
// potential answer root.
func (b *bidirSearch) expandIncoming(v graph.NodeID) {
	b.stats.NodesExplored++
	b.tick()
	sv := b.st(v)
	sv.inXin = true
	b.maybeEmit(v)

	if int(sv.depth) < b.opts.DMax {
		invSum := b.invSumIn(v, sv)
		for _, h := range b.g.Neighbors(v) {
			if !b.allowEdge(h) {
				continue
			}
			u := h.To
			// Combined in-edge u→v has weight h.WIn.
			su := b.st(u)
			prio := b.edgePriority(h)
			share := 0.0
			if invSum > 0 {
				// v spreads activation to its in-neighbour u, divided in
				// inverse proportion to the in-edge weights (§4.3).
				share = (1 / h.WIn) / invSum * prio
			}
			b.exploreEdge(u, su, v, sv, h.WIn)
			if share > 0 {
				b.receiveActivation(u, su, sv, b.opts.Mu*share)
			}
			if !su.inXin {
				if su.depth < 0 {
					su.depth = sv.depth + 1
				}
				if b.qin.PushIfAbsent(u, totalActivation(su)) {
					b.stats.NodesTouched++
				}
			}
		}
	}
	if !sv.inXout && b.qout.PushIfAbsent(v, totalActivation(sv)) {
		b.stats.NodesTouched++
	}
}

// expandOutgoing pops u from the forward frontier: explores outgoing
// combined edges (u,v), pulling distance information from v back into u
// and pushing activation forward into v.
func (b *bidirSearch) expandOutgoing(u graph.NodeID) {
	b.stats.NodesExplored++
	b.tick()
	su := b.st(u)
	su.inXout = true
	b.maybeEmit(u)

	if int(su.depth) >= b.opts.DMax {
		return
	}
	invSum := b.invSumOut(u, su)
	for _, h := range b.g.Neighbors(u) {
		if !b.allowEdge(h) {
			continue
		}
		v := h.To
		sv := b.st(v)
		prio := b.edgePriority(h)
		share := 0.0
		if invSum > 0 {
			// u spreads activation forward to v across out-edges.
			share = (1 / h.WOut) / invSum * prio
		}
		b.exploreEdge(u, su, v, sv, h.WOut)
		if share > 0 {
			b.receiveActivation(v, sv, su, b.opts.Mu*share)
		}
		if !sv.inXout {
			if sv.depth < 0 {
				sv.depth = su.depth + 1
			}
			if b.qout.PushIfAbsent(v, totalActivation(sv)) {
				b.stats.NodesTouched++
			}
		}
	}
}

// activationRespreadGain is the minimum relative activation improvement
// that re-triggers propagation through already-expanded nodes. Activation
// only steers search order (never correctness), so re-spreading on
// marginal changes would buy nothing while rescanning hub neighbourhoods;
// the paper's Activate procedure leaves this engineering threshold open.
const activationRespreadGain = 1.10

// receiveActivation updates dst's per-keyword activation with the portion
// arriving from src, re-prioritizes dst in the frontier queues, and
// propagates onward if dst has already spread before and the change is
// substantial (Figure 3's Activate).
func (b *bidirSearch) receiveActivation(dst graph.NodeID, sdst, ssrc *nodeState, factor float64) {
	improved := false
	big := false
	for i := 0; i < b.nk; i++ {
		a := ssrc.act[i] * factor
		if a <= 0 {
			continue
		}
		if b.opts.ActivationSum {
			sdst.act[i] += a
			improved = true
			big = true
		} else if a > sdst.act[i] {
			if a > sdst.act[i]*activationRespreadGain {
				big = true
			}
			sdst.act[i] = a
			improved = true
		}
	}
	if !improved {
		return
	}
	total := totalActivation(sdst)
	b.qin.Bump(dst, total)  // no-op if not queued
	b.qout.Bump(dst, total) // no-op if not queued
	if big && (sdst.inXin || sdst.inXout) {
		b.activatePropagate(dst)
	}
}

// activatePropagate re-spreads improved activation from nodes that have
// already been expanded, best-first (Figure 3's Activate). Attenuation µ
// guarantees geometric decay, so propagation terminates quickly.
func (b *bidirSearch) activatePropagate(from graph.NodeID) {
	if b.activate == nil {
		b.activate = pqueue.NewMax[graph.NodeID]()
	}
	work := b.activate
	work.Clear()
	work.Push(from, totalActivation(b.st(from)))
	for work.Len() > 0 {
		v, _, _ := work.Pop()
		sv := b.st(v)
		mu := b.opts.Mu
		if sv.inXin {
			invSum := b.invSumIn(v, sv)
			if invSum > 0 {
				for _, h := range b.g.Neighbors(v) {
					if !b.allowEdge(h) {
						continue
					}
					share := (1 / h.WIn) / invSum * b.edgePriority(h)
					b.respread(work, h.To, sv, mu*share)
				}
			}
		}
		if sv.inXout {
			invSum := b.invSumOut(v, sv)
			if invSum > 0 {
				for _, h := range b.g.Neighbors(v) {
					if !b.allowEdge(h) {
						continue
					}
					share := (1 / h.WOut) / invSum * b.edgePriority(h)
					b.respread(work, h.To, sv, mu*share)
				}
			}
		}
	}
}

// respread applies one hop of re-spreading during activatePropagate.
func (b *bidirSearch) respread(work *pqueue.Heap[graph.NodeID], dst graph.NodeID, ssrc *nodeState, factor float64) {
	sdst, ok := b.peekState(dst)
	if !ok {
		return // never touched: will receive activation when explored
	}
	improved := false
	big := false
	for i := 0; i < b.nk; i++ {
		a := ssrc.act[i] * factor
		if a > sdst.act[i] {
			if a > sdst.act[i]*activationRespreadGain {
				big = true
			}
			sdst.act[i] = a
			improved = true
		}
	}
	if !improved {
		return
	}
	total := totalActivation(sdst)
	b.qin.Bump(dst, total)
	b.qout.Bump(dst, total)
	if big && (sdst.inXin || sdst.inXout) {
		work.Push(dst, total)
	}
}
