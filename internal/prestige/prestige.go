// Package prestige computes node-prestige scores (§2.3).
//
// BANKS-II determines prestige "using a biased version of the Pagerank
// random walk, similar to the computation of global ObjectRank, except
// that ... the probability of following an edge is inversely proportional
// to its edge weight taken from the data graph instead of the schema
// graph." The walk runs over the combined graph G′ (forward edges plus the
// derived backward edges), so hub shortcuts — whose backward edges carry
// large weights — are followed with proportionally small probability.
//
// The package also provides the cheaper indegree-based prestige of BANKS-I
// as an alternative for very large graphs.
package prestige

import (
	"errors"
	"math"

	"banks/internal/graph"
)

// Options configures the random-walk computation.
type Options struct {
	// Damping is the probability of following an edge rather than
	// teleporting. Defaults to 0.85.
	Damping float64
	// Tolerance is the L1 convergence threshold. Defaults to 1e-9.
	Tolerance float64
	// MaxIterations bounds the power iteration. Defaults to 100.
	MaxIterations int
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 100
	}
	return o
}

// Compute runs the biased PageRank power iteration and returns one score
// per node. Scores are normalized to sum to the number of nodes, so the
// average prestige is 1 (this keeps activation seeds and tree node-scores
// on a scale independent of graph size). The paper reports prestige
// computation "takes about a minute" on 2M-node graphs and is precomputed;
// callers should compute once per dataset and attach via Graph.SetPrestige.
func Compute(g graph.View, opts Options) ([]float64, error) {
	opts = opts.withDefaults()
	if opts.Damping < 0 || opts.Damping >= 1 {
		return nil, errors.New("prestige: damping must be in [0,1)")
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("prestige: empty graph")
	}

	// Precompute, per node, the sum of inverse outgoing weights in G′, and
	// keep each adjacency slice: a View such as the live overlay answers
	// Neighbors with a map probe, which the power iteration would otherwise
	// repeat for every node on every pass.
	invSum := make([]float64, n)
	adj := make([][]graph.Half, n)
	for u := 0; u < n; u++ {
		adj[u] = g.Neighbors(graph.NodeID(u))
		s := 0.0
		for _, h := range adj[u] {
			s += 1 / h.WOut
		}
		invSum[u] = s
	}

	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}

	d := opts.Damping
	base := (1 - d) / float64(n)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for u := 0; u < n; u++ {
			ru := rank[u]
			if invSum[u] == 0 {
				dangling += ru
				continue
			}
			scale := d * ru / invSum[u]
			for _, h := range adj[u] {
				next[h.To] += scale / h.WOut
			}
		}
		// Dangling mass and teleportation are spread uniformly.
		add := base + d*dangling/float64(n)
		diff := 0.0
		for i := range next {
			next[i] += add
			diff += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if diff < opts.Tolerance {
			break
		}
	}

	// Normalize so scores sum to n (average prestige 1).
	sum := 0.0
	for _, v := range rank {
		sum += v
	}
	if sum <= 0 {
		return nil, errors.New("prestige: ranks vanished (numerical failure)")
	}
	scale := float64(n) / sum
	for i := range rank {
		rank[i] *= scale
	}
	return rank, nil
}

// Indegree returns the BANKS-I style prestige: log2(1+indegree) over the
// original directed graph, normalized to average 1. It is a cheap
// substitute for the random-walk prestige on very large graphs.
func Indegree(g graph.View) []float64 {
	n := g.NumNodes()
	p := make([]float64, n)
	for u := 0; u < n; u++ {
		indeg := 0
		for _, h := range g.Neighbors(graph.NodeID(u)) {
			// A half-edge with Forward=false means the original edge points
			// from h.To into u.
			if !h.Forward {
				indeg++
			}
		}
		p[u] = math.Log2(1 + float64(indeg))
	}
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum == 0 {
		for i := range p {
			p[i] = 1
		}
		return p
	}
	scale := float64(n) / sum
	for i := range p {
		p[i] *= scale
	}
	return p
}
