package core

import (
	"context"
	"math"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// SIBackward runs single-iterator Backward expanding search (§4.6): all
// per-keyword-node Dijkstra iterators of the original Backward search are
// merged into one backward iterator, prioritized purely by distance from
// the nearest keyword node — no forward iterator and no spreading
// activation. The paper introduces it to separate the effect of merging
// iterators from the other effects of Bidirectional search.
//
// ctx bounds the search exactly as in Bidirectional: on expiry the partial
// top-k accumulated so far is returned with Stats.Truncated set.
func SIBackward(ctx context.Context, g graph.View, keywords [][]graph.NodeID, opts Options) (*Result, error) {
	return runSearch(ctx, g, keywords, opts, func(sc *searchContext) frontier {
		s := &siSearch{searchContext: sc, qin: pqueue.NewMin[graph.NodeID]()}
		// Attach lowers distances, and with them the queue keys.
		sc.rekey = func(u graph.NodeID, st *nodeState) { s.qin.Bump(u, s.minDist(st)) }
		s.seed()
		return s
	})
}

// siSearch is SI-Backward's frontier: one backward queue keyed by the
// smallest known distance to any keyword.
type siSearch struct {
	*searchContext
	qin *pqueue.Heap[graph.NodeID]
}

func (s *siSearch) seed() {
	for _, u := range s.seedNodes() {
		st := s.st(u)
		st.depth = 0
		s.qin.Push(u, s.minDist(st))
		s.stats.NodesTouched++
		s.maybeEmit(u)
	}
}

// minDist is the queue priority: the smallest known distance to any
// keyword.
func (s *siSearch) minDist(st *nodeState) float64 {
	best := math.Inf(1)
	for i := 0; i < s.nk; i++ {
		if st.dist[i] < best {
			best = st.dist[i]
		}
	}
	return best
}

func (s *siSearch) empty() bool { return s.qin.Len() == 0 }

func (s *siSearch) upperBound() (score, edge float64) { return s.searchContext.upperBound(s.empty()) }

// step pops the nearest node v and relaxes its incoming combined edges,
// exactly like the Bidirectional incoming iterator but without activation.
func (s *siSearch) step() {
	v, _, _ := s.qin.Pop()
	s.stats.NodesExplored++
	s.tick()
	sv := s.st(v)
	sv.inXin = true
	s.maybeEmit(v)

	if int(sv.depth) >= s.opts.DMax {
		return
	}
	for _, h := range s.g.Neighbors(v) {
		if !s.allowEdge(h) {
			continue
		}
		u := h.To
		su := s.st(u)
		s.exploreEdge(u, su, v, sv, h.WIn)
		if !su.inXin {
			if su.depth < 0 {
				su.depth = sv.depth + 1
			}
			if s.qin.PushIfAbsent(u, s.minDist(su)) {
				s.stats.NodesTouched++
			} else {
				s.qin.Bump(u, s.minDist(su))
			}
		}
	}
}
