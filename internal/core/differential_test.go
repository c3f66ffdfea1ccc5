package core

// Pinned differential oracle: randomized graphs swept over every algorithm
// (and Near), a set of option shapes, and deterministic mid-search
// cancellation. Each sweep's output is reduced to one SHA-256 per
// algorithm over the concatenated diffSignature of every case, and those
// digests are frozen constants. Any change to answers, score bits, tie
// order or the deterministic Stats counters moves a digest, so a rewrite
// of the search internals (heaps, per-node state, expansion loops) is
// proven output-preserving by these tests passing unchanged.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"banks/internal/graph"
)

// randomGraphSpec seeds one property-test case.
type randomGraphSpec struct {
	seed int64
	// hub adds one node with ~48 extra out-edges, so the corpus covers
	// high-degree expansions.
	hub bool
}

// buildRandomGraph generates a random graph with varied fan-out, edge
// types, weights and prestige distributions, plus a random multi-keyword
// query over it. All randomness is drawn from the seeded rng, so each
// spec is fully reproducible.
func buildRandomGraph(t testing.TB, spec randomGraphSpec) (*graph.Graph, [][]graph.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(spec.seed))
	n := 30 + rng.Intn(120)
	b := graph.NewBuilder()
	tables := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		b.AddNode(tables[rng.Intn(len(tables))])
	}
	addEdge := func(u, v int) {
		if u == v {
			return
		}
		w := 0.25 + rng.Float64()*3
		if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v), w, graph.EdgeType(rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	// Base fan-out: skewed out-degrees (most nodes sparse, some bushy).
	for u := 0; u < n; u++ {
		deg := rng.Intn(3)
		if rng.Intn(8) == 0 {
			deg += 3 + rng.Intn(6)
		}
		for j := 0; j < deg; j++ {
			addEdge(u, rng.Intn(n))
		}
	}
	if spec.hub {
		hub := rng.Intn(n)
		for j := 0; j < 48; j++ {
			if other := rng.Intn(n); other != hub {
				addEdge(hub, other)
			}
		}
	}
	g := b.Build()

	// Prestige: uniform, uniform-random, or power-law-ish, per seed.
	p := make([]float64, g.NumNodes())
	switch rng.Intn(3) {
	case 0:
		for i := range p {
			p[i] = 1
		}
	case 1:
		for i := range p {
			p[i] = 0.05 + rng.Float64()
		}
	default:
		for i := range p {
			p[i] = 0.05 + math.Pow(rng.Float64(), 4)*8
		}
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}

	// Query: 2–4 keywords, 1–4 distinct matching nodes each.
	nk := 2 + rng.Intn(3)
	kw := make([][]graph.NodeID, nk)
	for i := range kw {
		seen := map[graph.NodeID]bool{}
		for len(kw[i]) < 1+rng.Intn(4) {
			u := graph.NodeID(rng.Intn(n))
			if !seen[u] {
				seen[u] = true
				kw[i] = append(kw[i], u)
			}
		}
	}
	return g, kw
}

// diffSignature renders everything deterministic about a result: the full
// answer structure with exact float bits, plus every deterministic Stats
// field. Wall-clock fields (Duration, GeneratedAt, OutputAt) are excluded.
func diffSignature(res *Result) string {
	var sb strings.Builder
	s := res.Stats
	fmt.Fprintf(&sb, "explored=%d touched=%d relaxed=%d generated=%d best=%x budget=%v truncated=%v\n",
		s.NodesExplored, s.NodesTouched, s.EdgesRelaxed, s.AnswersGenerated,
		math.Float64bits(s.BestGeneratedScore), s.BudgetExhausted, s.Truncated)
	for i, a := range res.Answers {
		fmt.Fprintf(&sb, "%d: root=%d score=%x edge=%x node=%x nodes=%v kw=%v explG=%d touchG=%d explO=%d touchO=%d\n",
			i, a.Root, math.Float64bits(a.Score), math.Float64bits(a.EdgeScore), math.Float64bits(a.NodeScore),
			a.Nodes, a.KeywordNodes, a.ExploredAtGen, a.TouchedAtGen, a.ExploredAtOut, a.TouchedAtOut)
		for _, e := range a.Edges {
			fmt.Fprintf(&sb, "   %d->%d w=%x t=%d f=%v\n", e.From, e.To, math.Float64bits(e.Weight), e.Type, e.Forward)
		}
		for _, w := range a.PathWeights {
			fmt.Fprintf(&sb, "   pw=%x\n", math.Float64bits(w))
		}
	}
	return sb.String()
}

// diffOptVariants are the option shapes each random case is swept over.
func diffOptVariants() []Options {
	return []Options{
		{K: 8},
		{K: 8, StrictBound: true},
		{K: 8, ActivationSum: true},
		{K: 8, MaxNodes: 40},
		{K: 8, EdgeFilter: func(t graph.EdgeType, forward bool) bool { return forward || t != 2 }},
	}
}

// pinnedSearch runs one case of a pinned sweep and returns its signature.
// "near" selects Near, whose ranked nodes are appended to the signature of
// its Stats; any other name is a tree-search Algo.
func pinnedSearch(t *testing.T, ctx context.Context, g *graph.Graph, algo string, kw [][]graph.NodeID, opts Options) string {
	t.Helper()
	if algo == "near" {
		res, stats, err := Near(ctx, g, kw, opts)
		if err != nil {
			t.Fatalf("near: %v", err)
		}
		var sb strings.Builder
		sb.WriteString(diffSignature(&Result{Stats: stats}))
		for i, r := range res {
			fmt.Fprintf(&sb, "%d: node=%d act=%x\n", i, r.Node, math.Float64bits(r.Activation))
		}
		return sb.String()
	}
	res, err := Search(ctx, g, Algo(algo), kw, opts)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return diffSignature(res)
}

// pinnedAlgos are the sweeps' algorithm dimension: the three tree
// searches and Near.
func pinnedAlgos() []string {
	var names []string
	for _, a := range Algos() {
		names = append(names, string(a))
	}
	return append(names, "near")
}

// pinnedDigest is the frozen output of one algorithm over a corpus. all
// is the SHA-256 of every case's signature concatenated in sweep order;
// graphs lists (whitespace-separated), per graph, the first 8 hex digits
// of the SHA-256 of that graph's signatures, so a mismatch can name the
// first graph that moved.
type pinnedDigest struct {
	all    string
	graphs string
}

// checkPinned compares sigs (per graph, the signatures of its cases in
// sweep order) against want. On a mismatch it prints the first diverging
// graph's current signatures and the digest literal that would re-pin the
// sweep, for a change that moves output on purpose.
func checkPinned(t *testing.T, label string, want pinnedDigest, sigs [][]string) {
	t.Helper()
	all := sha256.New()
	wantGraphs := strings.Fields(want.graphs)
	gotGraphs := make([]string, len(sigs))
	reported := false
	for gi, gs := range sigs {
		gh := sha256.New()
		for _, s := range gs {
			all.Write([]byte(s))
			gh.Write([]byte(s))
		}
		gotGraphs[gi] = hex.EncodeToString(gh.Sum(nil))[:8]
		if !reported && (gi >= len(wantGraphs) || gotGraphs[gi] != wantGraphs[gi]) {
			reported = true
			t.Errorf("%s: graph %d is the first to diverge from the pinned output; its signatures now:\n%s",
				label, gi, strings.Join(gs, "--- next case ---\n"))
		}
	}
	gotAll, gotList := hex.EncodeToString(all.Sum(nil)), strings.Join(gotGraphs, " ")
	if gotAll != want.all || gotList != strings.Join(wantGraphs, " ") {
		t.Errorf("%s: corpus digest %s, pinned %s; current value:\n{all: %q, graphs: %q}",
			label, gotAll, want.all, gotAll, gotList)
	}
}

// pinnedCorpus holds the digests of TestDifferentialPinnedCorpus: 60
// random graphs (seeds 1000–1059, every other one with a hub) × the five
// diffOptVariants.
var pinnedCorpus = map[string]pinnedDigest{
	"bidirectional": {
		all: "7b2365b52ed97e80e016ecbb544f85469a4736c4423448b2f3eebf47f9041d8c",
		graphs: `
			7206a3c3 181a88b4 d2b75ab0 1f9f9323 d3aebde7 d960a12c 0f62bec1 17497c86 7b6dff8c 3e87a2b5
			651c2c00 7b091d5b 107ac1fb 5690f37e fe265127 1a3bc6ff c6348f9e 8b2aa7d3 9bb99e0b b8feb321
			829e96e4 67820be0 c56afb53 872b0dfa 50b33f7d ecebcabe 9fb61633 f6455a29 a0e83834 c7e952fc
			2e864115 0b733b75 962c2310 412bcd82 4f40a659 c62c5a99 bfad355e 992079fb c463c8e1 8abe65b1
			332bf1d9 3404f4aa 84a4fdd0 5974a645 de29272a 53c2f2b9 cd1b7394 393e8b47 199c61f0 67c1f086
			d036bcb0 8b6d6b1d b5e87415 eb2ecdbd b4beec22 20c5ead1 10c4afaf cb2e791e 8cbc9d88 37dd2c7f
		`,
	},
	"si-backward": {
		all: "a47faaeee7923bd84ba41ae23f9734944c1e9dd68388677265ed77ff958ec107",
		graphs: `
			e0dbc138 d5ea0f68 2bb980c7 6bdb84a2 e6521c0e 03c95f5e 0731274d 85b64046 b4354534 6854416e
			3e7e691b 0368e94a 48fe0887 3876c10c 1de852ed 32c4409e c571c413 a027a593 50105728 07d8e93e
			6aa266db 7979374e 8ec01e9c c54899da 02642a2c fe46e1d0 ac4faa2f c105e608 ee22bf7f 6d1b3d62
			10c34f0b bff1586f 1ef82318 dd017705 27d95a11 240d7465 7a473cd0 637421eb 1925018b 6a397a1b
			f2df03d8 9c804607 d2d09d4d 69e34c2f 348977c8 744d4be4 12231aa9 c5eaa17d 47e0310a 2c7e7e58
			39de978e 78bb1671 b9d23876 1d79d000 255c597c e0292ef4 9b0550fb 1afcd15f 091afa3a 2a12b19c
		`,
	},
	"mi-backward": {
		all: "3bb0f5812fd0068c6d55f76f81de9389c8dcba7ceb4526b75802ff517ded32c6",
		graphs: `
			78f1a67c 7ac22e38 2cb55051 9149bc23 1d63c9a8 92573987 75b9b04f a2f9f5bf 6410019e e28cad6f
			25d581af ed3ff93b fadef532 8d0eb320 49ceb42f e71732c6 88bbbb92 9a67f05f c1913d8e 848430fb
			a7fac7ec 7d48cbb6 61f921fc eefd5940 6c06f99a 58f75666 5421577f 8264ebd1 d4bdb19d f6f3f74d
			a794d26c 7a9e6ec9 6184aa3f 303e2566 8c1db085 02297277 38072121 cb654c52 3507f740 158785b9
			fdbb5297 c9f3a0f9 ffb141c0 7ea7a60b a8afaf35 4e2b1d48 f4288646 980938d9 51f36109 fa121cba
			9f7dad2d 2bc20e0d d649aa0f f6120f4f c83ee032 7b136041 19829969 057afd95 f179016d 115d4cfe
		`,
	},
	"near": {
		all: "0fe41aebfb8c1f6cd0236eb76501a2ee4f1bea454a5e53abd56ed1f5c03d0367",
		graphs: `
			90528221 16f75159 6ac2d547 01a90ab5 b1d8aad6 45d3947e 096d58cd b1a7f35d 4a1ecccc faaa1cbd
			03644d6f 19185b39 5271a817 081e855d 07d2d3ea 92dd3d7b e9deff64 31ce030d 0ce4ccd6 795df16c
			46bcc5f1 b5cb060b 6ca690c3 0adcf92d 347110c5 5c7ea80e 0c8e97cb e2fb72c3 46a4c19f b2da75fb
			420ca8ef de53108b a7723c42 add63222 4ee031a0 b5b91b56 400a6631 e447611a ac05da10 056ebaf4
			2f434cb2 4c284a5d 3060f871 97b4d4c1 401cfd4c caed3860 5e83430e 25bfa15e 47e0310a 05058c76
			a4966e1e 1b74baea 29bf9626 68b1362e 671b9559 959df9f4 d811a9a5 502f3d34 47267815 fe021074
		`,
	},
}

// TestDifferentialPinnedCorpus sweeps every algorithm over the random
// corpus and option shapes and asserts the frozen digests.
func TestDifferentialPinnedCorpus(t *testing.T) {
	const numGraphs = 60
	for _, algo := range pinnedAlgos() {
		sigs := make([][]string, numGraphs)
		for gi := range sigs {
			g, kw := buildRandomGraph(t, randomGraphSpec{seed: int64(1000 + gi), hub: gi%2 == 0})
			for _, opts := range diffOptVariants() {
				sigs[gi] = append(sigs[gi], pinnedSearch(t, nil, g, algo, kw, opts))
			}
		}
		checkPinned(t, algo, pinnedCorpus[algo], sigs)
	}
}

// TestDifferentialPinnedCorpusEdge sweeps the three tree searches over the
// pinned corpus with the edgeOptVariants and asserts the frozen digests,
// so the loop's early full-output exit and the depth cut stay pinned.
func TestDifferentialPinnedCorpusEdge(t *testing.T) {
	const numGraphs = 60
	for _, algo := range Algos() {
		sigs := make([][]string, numGraphs)
		for gi := range sigs {
			g, kw := buildRandomGraph(t, randomGraphSpec{seed: int64(1000 + gi), hub: gi%2 == 0})
			for _, opts := range edgeOptVariants() {
				sigs[gi] = append(sigs[gi], pinnedSearch(t, nil, g, string(algo), kw, opts))
			}
		}
		checkPinned(t, string(algo), pinnedCorpusEdge[string(algo)], sigs)
	}
}

// edgeOptVariants are the option shapes of TestDifferentialPinnedCorpusEdge,
// one per exit of the expansion loop the default sweep does not reach:
// K=1 stops on a full output at the first drain, and DMax=2 hits the depth
// cut in every expansion.
func edgeOptVariants() []Options {
	return []Options{
		{K: 1},
		{K: 8, DMax: 2},
	}
}

// pinnedCorpusEdge holds the digests of TestDifferentialPinnedCorpusEdge:
// the 60 graphs of pinnedCorpus × the two edgeOptVariants, for the three
// tree searches.
var pinnedCorpusEdge = map[string]pinnedDigest{
	"bidirectional": {
		all: "2bb754604380f88c169904432bf6f5f67bc1aa73a09551eafb205b4b58f546cd",
		graphs: `
			4a969ea0 784d42e3 1382c92a 7a5e2f68 73d01fda 5d9061da f48372e2 53f6014c 650bd598 b215b920
			697afb7c 98b92cf4 4430c147 0a75c3e1 30be765b 174aedf5 85127b4e 011cf449 b9a53c18 402c15cb
			13614b2e 62e94e4d c163f6fb fa794c16 e420872d cd70b41b da169906 e6e0ffcd 59bcb529 5d36d4f9
			6cacb46c b47184b4 5c107e11 f91a1697 365dc9b6 dbb609da 65d5567f 54b883ba 65af7371 aa0aaa0a
			0d4379cc eb64a553 d1a57197 d5bc8308 b9c32494 426c74bf e1e2c060 b2ace9c7 a8c2188f bea8f32e
			afa4da0e 0e708413 339c1eb3 b12e4fe5 38f1ccd8 95de63c0 23f5e6f4 3025edea d747378c 416d8381
		`,
	},
	"si-backward": {
		all: "e00ca26227c309b11fee289eb8b40ece17420ed9824f09eb18613dfbd9055994",
		graphs: `
			fd136630 1a12a974 5bae91ed 27d44274 f387460f 58c038bb d1eca9cb 79d7c483 386970e8 2d9832b5
			60bdc058 8ed6f7ee 49ce07dc aa935f7e 78f63320 651bfcfe 75d12992 c3ee9ea2 5b344e74 22800518
			0a6d93e9 c449216e e60d20ed efe3d35a 97b50ef1 9b754d51 a3ac366a e4a66e0e eabdd696 16fbf6cf
			b6685517 1265c87e a91d6186 f2dc365b a12420ff 6c6a25b7 86b5501f b8b2e27a 0b94b08f 14c291ee
			6d717f9c b6667b7f d70cef25 afb4d43b 4ee2c502 f840ce21 0a01e0d0 4372dfd9 61a098d6 38d0e37d
			76e1681c 6074c429 a28db121 12f8e7fb f04b2022 f47e929c 1ade5955 bb5163c5 c1a84191 c66b4f96
		`,
	},
	"mi-backward": {
		all: "38d5c2cb4f730a8417aafab83a0d3fe61aa7449e883a64b02ba362bc2a5a0a45",
		graphs: `
			7aee295f 804cdd37 34c78cd3 335fcff5 6eb8bd5e 9b053a78 5834954f 29682ce4 a318677b f3eb84da
			c9157216 1c59332e 2157776f d95818be 4c62e692 5cb1a349 d81eb15f 37f1f485 1f17d916 f438add1
			d93702aa 63a8084f 62d81057 78b67051 764c2a9a de2b1e96 d90cd7ae e616efd3 244e0883 32dcbff2
			b75a8e2b 6e4361cb b3ee6cf5 0e902318 722c4734 a243b329 5626ec42 e305cd1e a794b3b7 338318f0
			ddabea5c 9cb7bbfd 6bf994f9 ebe5acbf 238edbdc 3764934b 9a755ab4 1c68ec78 d27393d1 69c259c5
			4f971342 a30e9bf2 e8262232 2eab2122 f9af5cf0 18ed6b09 740a903f 0ea4380d 21ffc678 a2e8b1af
		`,
	},
}

// countingCtx is a context whose Err flips to Canceled after a fixed
// number of Err consultations. The search cancellers consult Err at a
// deterministic, data-dependent cadence, so a countingCtx cancels a
// search at exactly the same point on every run — which is what makes
// truncated output comparable, where a wall-clock deadline would be racy.
type countingCtx struct {
	calls atomic.Int64
	limit int64
}

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}       { return nil }
func (c *countingCtx) Value(any) any               { return nil }
func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// buildCancellationGraph makes a denser, larger graph so searches run for
// hundreds of expansions — enough to cross several amortized cancellation
// checks before exhausting the frontier.
func buildCancellationGraph(t testing.TB, seed int64) (*graph.Graph, [][]graph.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 400
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("t")
	}
	for u := 0; u < n; u++ {
		for j := 0; j < 2+rng.Intn(4); j++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.5+rng.Float64()*2, graph.EdgeType(rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.1 + rng.Float64()
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}
	kw := [][]graph.NodeID{
		{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))},
		{graph.NodeID(rng.Intn(n))},
		{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))},
	}
	return g, kw
}

// pinnedCancellation holds the digests of TestDifferentialCancellation: 6
// cancellation graphs (seeds 9000–9005) × countingCtx limits {0,1,2,4,8}.
var pinnedCancellation = map[string]pinnedDigest{
	"bidirectional": {
		all:    "e0225e87e43632c0c4041902e8c2c2fde1d6b7ac0a2ae08ffbc152a94c0b6200",
		graphs: "2667d5c5 22177c11 08197458 5ee29274 8f5933bd b637d5f1",
	},
	"si-backward": {
		all:    "8e12ea9e0054f76227e62ecb146f7a872f7242d6527662499110ce48657f3a6a",
		graphs: "b21e9e73 c7eca073 3810cd32 65fb35a0 18a255d3 bc903488",
	},
	"mi-backward": {
		all:    "a6a82994d43c176993d3c0f7e1d0dbcc1d81640b691d24be8c0a2e4c768c5937",
		graphs: "bf82377b 98a0caca b6db8f7c eea2c7a3 1c37ca35 7147f638",
	},
	"near": {
		all:    "31f3c5a652b4f938467b6d9c17debdd951d60fc1e2aa469ea0afdcd0132885b9",
		graphs: "2e5c9b05 9d5d0ad8 779137df e657672a e5a30332 0ce47711",
	},
}

// TestDifferentialCancellation pins the Truncated-prefix contract under
// mid-search cancellation: at each deterministic cancellation point, the
// Truncated flag, the partial top-k prefix and the counters must match
// the frozen digests.
func TestDifferentialCancellation(t *testing.T) {
	const numGraphs = 6
	graphs := make([]*graph.Graph, numGraphs)
	kws := make([][][]graph.NodeID, numGraphs)
	for gi := range graphs {
		graphs[gi], kws[gi] = buildCancellationGraph(t, int64(9000+gi))
	}
	for _, algo := range pinnedAlgos() {
		sigs := make([][]string, numGraphs)
		for gi, g := range graphs {
			for _, limit := range []int64{0, 1, 2, 4, 8} {
				sigs[gi] = append(sigs[gi], pinnedSearch(t, &countingCtx{limit: limit}, g, algo, kws[gi], Options{K: 10}))
			}
		}
		checkPinned(t, algo, pinnedCancellation[algo], sigs)
	}
	// Sanity: a small limit must actually truncate mid-search and a huge
	// one must not, so the sweep covers both regimes.
	for gi, g := range graphs {
		for _, algo := range Algos() {
			full, err := Search(context.Background(), g, algo, kws[gi], Options{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			cut, err := Search(&countingCtx{limit: 1}, g, algo, kws[gi], Options{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			if !cut.Stats.Truncated {
				t.Fatalf("graph %d %s: limit-1 run was not truncated (graph too small for the harness?)", gi, algo)
			}
			if full.Stats.Truncated {
				t.Fatalf("graph %d %s: uncancelled run reports Truncated", gi, algo)
			}
		}
	}
}
