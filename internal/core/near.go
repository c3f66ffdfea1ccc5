package core

import (
	"context"
	"sort"
	"time"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// NearResult is one node of a near-query response, ranked by accumulated
// activation.
type NearResult struct {
	Node       graph.NodeID
	Activation float64
}

// Near implements the "near queries" extension (§4.3, footnote 6): instead
// of connecting trees, the response is a ranked list of nodes close to the
// keyword nodes, with per-keyword activations combined by summation so
// that multiple short paths reinforce each other (the aggregation used by
// ObjectRank-style scoring). Example: "papers near ‘recovery’ and
// ‘Gray’".
//
// The search runs the backward activation-spreading machinery alone: seed
// activation prestige(u)/|Sᵢ| at the keyword nodes, spread with
// attenuation µ across incoming edges in activation order, and return the
// k nodes with the highest total activation that were reached from every
// keyword.
//
// ctx bounds the spreading loop: on expiry the nodes activated so far are
// ranked and returned with Stats.Truncated set.
func Near(ctx context.Context, g graph.View, keywords [][]graph.NodeID, opts Options) ([]NearResult, Stats, error) {
	opts = opts.withDefaults()
	opts.ActivationSum = true
	if err := opts.validate(); err != nil {
		return nil, Stats{}, err
	}
	if err := validateInput(g, keywords); err != nil {
		return nil, Stats{}, err
	}
	sc := newSearchContext(orBackground(ctx), g, keywords, opts)
	if anyEmptyKeyword(keywords) || sc.expired() {
		return nil, *sc.stats, nil
	}

	q := pqueue.NewMax[graph.NodeID]()
	for i, si := range keywords {
		sz := float64(len(si))
		for _, u := range si {
			s := sc.st(u)
			s.depth = 0
			s.act[i] += g.Prestige(u) / sz
		}
	}
	for _, u := range sc.seedNodes() {
		q.Push(u, totalActivation(sc.st(u)))
		sc.stats.NodesTouched++
	}

	for q.Len() > 0 {
		if opts.MaxNodes > 0 && sc.stats.NodesExplored >= opts.MaxNodes {
			sc.stats.BudgetExhausted = true
			break
		}
		if sc.cancelled() {
			break
		}
		v, _, _ := q.Pop()
		sv := sc.st(v)
		sv.inXin = true
		sc.stats.NodesExplored++
		if int(sv.depth) >= opts.DMax {
			continue
		}
		invSum := sc.invSumIn(v, sv)
		if invSum <= 0 {
			continue
		}
		for _, h := range sc.g.Neighbors(v) {
			if !sc.allowEdge(h) {
				continue
			}
			u := h.To
			sc.stats.EdgesRelaxed++
			su := sc.st(u)
			share := (1 / h.WIn) / invSum * sc.edgePriority(h)
			improved := false
			for i := 0; i < sc.nk; i++ {
				if a := sv.act[i] * opts.Mu * share; a > 0 {
					su.act[i] += a
					improved = true
				}
			}
			if su.inXin {
				continue // spread once per node; sums stay bounded
			}
			if su.depth < 0 {
				su.depth = sv.depth + 1
			}
			if q.Contains(u) {
				if improved {
					q.Bump(u, totalActivation(su))
				}
			} else {
				q.Push(u, totalActivation(su))
				sc.stats.NodesTouched++
			}
		}
	}

	// Rank reached nodes that accumulated activation from every keyword.
	var out []NearResult
	for u, s := range sc.state {
		ok := true
		for i := 0; i < sc.nk; i++ {
			if s.act[i] <= 0 {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, NearResult{Node: u, Activation: totalActivation(s)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Activation != out[j].Activation {
			return out[i].Activation > out[j].Activation
		}
		return out[i].Node < out[j].Node
	})
	if opts.K > 0 && len(out) > opts.K {
		out = out[:opts.K]
	}
	if opts.EmitNear != nil {
		// Emission happens before Duration is stamped so every OutputAt
		// offset lies inside the reported search duration.
		for i, nr := range out {
			opts.EmitNear(EmittedNear{Result: nr, Rank: i + 1, OutputAt: time.Since(sc.start)})
		}
	}
	res := sc.finishResult() // stamps Duration
	return out, res.Stats, nil
}
