package prestige

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"banks/internal/graph"
)

func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder()
	b.AddNodes("t", n)
	for i := 0; i < n-1; i++ {
		_ = b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1, 0)
	}
	return b.Build()
}

func TestComputeSumsToN(t *testing.T) {
	g := lineGraph(10)
	p, err := Compute(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative prestige %v", v)
		}
		sum += v
	}
	if math.Abs(sum-10) > 1e-6 {
		t.Fatalf("prestige sum = %v, want 10", sum)
	}
}

func TestComputeEmptyGraphFails(t *testing.T) {
	b := graph.NewBuilder()
	g := b.Build()
	if _, err := Compute(g, Options{}); err == nil {
		t.Fatal("Compute on empty graph should fail")
	}
}

func TestBadDamping(t *testing.T) {
	g := lineGraph(3)
	if _, err := Compute(g, Options{Damping: 1.5}); err == nil {
		t.Fatal("Compute with damping ≥ 1 should fail")
	}
	if _, err := Compute(g, Options{Damping: -0.1}); err == nil {
		t.Fatal("Compute with negative damping should fail")
	}
}

func TestPopularNodeGetsHigherPrestige(t *testing.T) {
	// A "highly cited paper": many nodes point to node 0; node 1 is cited
	// once. Prestige(0) must exceed Prestige(1).
	b := graph.NewBuilder()
	star := b.AddNode("paper")  // 0
	other := b.AddNode("paper") // 1
	first := b.AddNodes("paper", 40)
	for i := 0; i < 40; i++ {
		_ = b.AddEdge(first+graph.NodeID(i), star, 1, 0)
	}
	_ = b.AddEdge(first, other, 1, 0)
	g := b.Build()
	p, err := Compute(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p[star] <= p[other] {
		t.Fatalf("prestige(star)=%v not greater than prestige(other)=%v", p[star], p[other])
	}
}

func TestEdgeWeightBiasesWalk(t *testing.T) {
	// From node 0 there are two targets: cheap (weight 1) and expensive
	// (weight 8). The walk follows edges with probability inversely
	// proportional to weight, so the cheap target accumulates more rank.
	b := graph.NewBuilder()
	src := b.AddNode("t")
	cheap := b.AddNode("t")
	dear := b.AddNode("t")
	_ = b.AddEdge(src, cheap, 1, 0)
	_ = b.AddEdge(src, dear, 8, 0)
	g := b.Build()
	p, err := Compute(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p[cheap] <= p[dear] {
		t.Fatalf("prestige(cheap)=%v not greater than prestige(dear)=%v", p[cheap], p[dear])
	}
}

func TestIndegreePrestige(t *testing.T) {
	b := graph.NewBuilder()
	hub := b.AddNode("t")
	leaf := b.AddNode("t")
	first := b.AddNodes("t", 10)
	for i := 0; i < 10; i++ {
		_ = b.AddEdge(first+graph.NodeID(i), hub, 1, 0)
	}
	_ = b.AddEdge(first, leaf, 1, 0)
	g := b.Build()
	p := Indegree(g)
	if p[hub] <= p[leaf] {
		t.Fatalf("indegree prestige hub=%v leaf=%v", p[hub], p[leaf])
	}
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-float64(g.NumNodes())) > 1e-9 {
		t.Fatalf("indegree prestige sum = %v, want %d", sum, g.NumNodes())
	}
}

func TestIndegreeNoEdges(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNodes("t", 4)
	g := b.Build()
	p := Indegree(g)
	for _, v := range p {
		if v != 1 {
			t.Fatalf("isolated-node prestige = %v, want 1", v)
		}
	}
}

// Property: prestige is non-negative and sums to n on random graphs,
// regardless of topology (dangling nodes, hubs, cycles).
func TestQuickPrestigeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder()
		b.AddNodes("t", n)
		for i := 0; i < rng.Intn(120); i++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u != v {
				_ = b.AddEdge(u, v, 0.25+rng.Float64()*4, 0)
			}
		}
		g := b.Build()
		p, err := Compute(g, Options{MaxIterations: 60})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-float64(n)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPrestige10k(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	bl := graph.NewBuilder()
	bl.AddNodes("t", 10_000)
	for i := 0; i < 40_000; i++ {
		u := graph.NodeID(rng.Intn(10_000))
		v := graph.NodeID(rng.Intn(10_000))
		if u != v {
			_ = bl.AddEdge(u, v, 1, 0)
		}
	}
	g := bl.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(g, Options{Tolerance: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// countingView is a graph.View that is not a *graph.Graph and counts its
// Neighbors calls.
type countingView struct {
	*graph.Graph
	neighbors int
}

func (v *countingView) Neighbors(u graph.NodeID) []graph.Half {
	v.neighbors++
	return v.Graph.Neighbors(u)
}

// TestComputeReadsEachAdjacencyOnce pins that the power iteration reuses
// the adjacency it read for the inverse-weight sums: a View whose
// Neighbors is costly is asked once per node, and the scores are
// bit-equal to Compute over the plain graph.
func TestComputeReadsEachAdjacencyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := graph.NewBuilder()
	b.AddNodes("t", 200)
	for i := 0; i < 600; i++ {
		u, v := rng.Intn(200), rng.Intn(200)
		if u != v {
			_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.5+rng.Float64()*2, 0)
		}
	}
	g := b.Build()
	want, err := Compute(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cv := &countingView{Graph: g}
	got, err := Compute(cv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cv.neighbors != g.NumNodes() {
		t.Fatalf("Neighbors called %d times, want %d (once per node)", cv.neighbors, g.NumNodes())
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("node %d: prestige %v over the view, %v over the graph", i, got[i], want[i])
		}
	}
}
