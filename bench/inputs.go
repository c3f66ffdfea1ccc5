package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"banks"
	"banks/internal/convert"
	"banks/internal/datagen"
	"banks/internal/graph"
	"banks/internal/workload"
)

// Every search in the benchmark asks for the same top-k under the same
// expansion budget, so latencies are comparable across workloads. The
// budget is the one the repo's own go-test benchmarks use: it keeps a
// pathological MI-Backward run bounded without truncating the others.
const (
	searchK        = 10
	searchMaxNodes = 120_000
)

// sizes fixes how much input each workload gets. The lib_mix and
// route_scatter lists are sized to about what a 20 s run on the reference
// host gets through once, so a run measures the whole balanced list (see
// spreadByOrigin) rather than a prefix of it; a faster system wraps around.
type sizes struct {
	factor        float64 // DBLP scale factor
	mixPerCell    int     // lib_mix: queries per (keywords, origin) cell
	hotQueries    int     // serve_hot: distinct queries
	hotDraws      int     // serve_hot: length of the pre-drawn Zipf sequence
	routePerCell  int     // route_scatter: queries per cell
	readerQueries int     // mutate_mixed: reader's query set
	batches       int     // mutate_mixed: pre-generated mutation batches
	warm          int     // serve_hot: warm-pass requests during set-up
	ladderPerCell int     // read ladder: queries per cell
	ladderBatches int     // write ladder: batches per rung
	probes        int     // follower / recovery probe queries
}

var (
	fullSizes = sizes{
		factor: 0.25, mixPerCell: 20, hotQueries: 1024, hotDraws: 1 << 17,
		routePerCell: 96, readerQueries: 64, batches: 4096, warm: 160,
		ladderPerCell: 1, ladderBatches: 8, probes: 16,
	}
	// quickSizes is the -quick mode go test drives: every code path, a
	// dataset small enough to build in milliseconds.
	quickSizes = sizes{
		factor: 0.05, mixPerCell: 2, hotQueries: 48, hotDraws: 1 << 10,
		routePerCell: 3, readerQueries: 8, batches: 1024, warm: 16,
		ladderPerCell: 1, ladderBatches: 3, probes: 4,
	}
)

// Zipf exponent of the serve_hot draw. With the engine's 256-entry cache
// under 1024 distinct queries this keeps the hit ratio near 0.8, so the
// median request is a hit and the 90th percentile sits well inside the
// miss population rather than on the boundary between the two.
const hotZipfS = 1.1

// batchOps is the size of one mutation batch.
const batchOps = 8

// searchOp is one search the harness issues. Keywords are the
// pre-resolved node sets for the rungs of the ladder that enter below the
// index.
type searchOp struct {
	Terms    []string
	Keywords [][]graph.NodeID
	Algo     banks.Algorithm
	Cell     string // "<keywords>/<origin class>"
	Relevant map[workload.NodeSet]bool
	Stream   bool // route_scatter: use /v1/search/stream
}

func (o searchOp) query() string { return strings.Join(o.Terms, " ") }

// inputs is everything a run feeds the system, derived from the seed and
// nothing else.
type inputs struct {
	seed int64
	sz   sizes

	mix     []searchOp           // lib_mix
	hot     []searchOp           // serve_hot distinct queries
	hotSeq  []int32              // serve_hot Zipf draws, indexes into hot
	route   []searchOp           // route_scatter
	reader  []searchOp           // mutate_mixed reader
	ladder  []searchOp           // read ladder sample
	batches [][]banks.MutationOp // mutate_mixed writer trace
	probes  []searchOp           // follower / recovery equality probes
	nodes   int                  // dataset node count (trace IDs start here)
	edges   int
}

// generateDataset produces the seeded DBLP stand-in.
func generateDataset(seed int64, factor float64) (*datagen.Dataset, error) {
	cfg := datagen.DefaultDBLP(factor)
	cfg.Seed = seed
	return datagen.DBLP(cfg)
}

type cell struct {
	nk    int
	class workload.OriginClass
}

func (c cell) String() string { return fmt.Sprintf("%d/%s", c.nk, c.class) }

func cells(keywords ...int) []cell {
	var out []cell
	for _, nk := range keywords {
		for _, class := range []workload.OriginClass{workload.OriginSmall, workload.OriginLarge} {
			out = append(out, cell{nk, class})
		}
	}
	return out
}

// subRNG derives an independent stream per purpose, so adding a consumer
// never shifts the draws of another.
func subRNG(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// oversample is how many candidates are drawn per query kept in a
// balanced cell.
const oversample = 4

// spreadByOrigin keeps n of the candidates, evenly spaced by origin size,
// in seeded random order. Within a cell a query's cost follows its origin
// size, which spans 30× in the large-origin cells; an unbalanced draw of a
// few dozen queries then moves the mean and the tail by tens of percent
// from seed to seed. Systematic sampling over the sorted candidates gives
// every seed the same origin-size profile with different queries.
func spreadByOrigin(rng *rand.Rand, cands []*workload.Query, n int) []*workload.Query {
	if len(cands) <= n {
		return cands
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].UnionOrigin < cands[j].UnionOrigin })
	out := make([]*workload.Query, n)
	for i := range out {
		out[i] = cands[(2*i+1)*len(cands)/(2*n)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// drawQueries returns n distinct queries of one cell, fewer if the
// dataset cannot supply them within the try budget.
func drawQueries(gen *workload.Generator, rng *rand.Rand, c cell, n int, seen map[string]bool) []*workload.Query {
	var out []*workload.Query
	for tries := 0; tries < 400*n+2000 && len(out) < n; tries++ {
		q, ok := gen.SizeFive(rng, c.nk, c.class)
		if !ok {
			continue
		}
		key := strings.Join(q.Terms, " ")
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, q)
	}
	return out
}

// interleave builds an op list that visits cells (and algorithms) round
// robin, so every prefix of it has the same composition as the whole.
func interleave(perCell [][]*workload.Query, cs []cell, algos []banks.Algorithm) []searchOp {
	var ops []searchOp
	for i := 0; ; i++ {
		added := false
		for ci, qs := range perCell {
			if i >= len(qs) {
				continue
			}
			added = true
			for _, a := range algos {
				ops = append(ops, searchOp{Terms: qs[i].Terms, Keywords: qs[i].Keywords, Algo: a,
					Cell: cs[ci].String(), Relevant: qs[i].Relevant})
			}
		}
		if !added {
			return ops
		}
	}
}

// cellOps draws perCell queries for each cell and interleaves them; with
// balanced set, each cell's queries are spread evenly over origin size.
func cellOps(gen *workload.Generator, rng *rand.Rand, cs []cell, perCell int, algos []banks.Algorithm, balanced bool) ([]searchOp, error) {
	seen := make(map[string]bool)
	lists := make([][]*workload.Query, len(cs))
	for i, c := range cs {
		if balanced {
			lists[i] = spreadByOrigin(rng, drawQueries(gen, rng, c, perCell*oversample, seen), perCell)
		} else {
			lists[i] = drawQueries(gen, rng, c, perCell, seen)
		}
		if len(lists[i]) == 0 {
			return nil, fmt.Errorf("inputs: no %s query could be generated", c)
		}
	}
	return interleave(lists, cs, algos), nil
}

// makeInputs derives every op list from the seed. It builds its own copy
// of the dataset: input generation is the benchmark's work, not the
// system's, and is kept out of set-up time.
func makeInputs(seed int64, sz sizes) (*inputs, error) {
	ds, err := generateDataset(seed, sz.factor)
	if err != nil {
		return nil, err
	}
	db, err := banks.Build(ds.DB, banks.BuildOptions{})
	if err != nil {
		return nil, err
	}
	gen := workload.New(ds, &convert.Result{Graph: db.Graph, Index: db.Index, Mapping: db.Mapping, EdgeTypes: db.EdgeTypes})
	in := &inputs{seed: seed, sz: sz, nodes: db.Graph.NumNodes(), edges: db.Graph.NumEdges()}

	all := banks.Algorithms()
	bidir := []banks.Algorithm{banks.Bidirectional}
	twoSmall := []cell{{2, workload.OriginSmall}}

	if in.mix, err = cellOps(gen, subRNG(seed, 1), cells(2, 3, 4), sz.mixPerCell, all, true); err != nil {
		return nil, err
	}
	if in.hot, err = cellOps(gen, subRNG(seed, 2), twoSmall, sz.hotQueries, bidir, false); err != nil {
		return nil, err
	}
	zipf := rand.NewZipf(subRNG(seed, 3), hotZipfS, 1, uint64(len(in.hot)-1))
	in.hotSeq = make([]int32, sz.hotDraws)
	for i := range in.hotSeq {
		in.hotSeq[i] = int32(zipf.Uint64())
	}
	if in.route, err = cellOps(gen, subRNG(seed, 4), cells(2, 3), sz.routePerCell, bidir, true); err != nil {
		return nil, err
	}
	for i := range in.route {
		in.route[i].Stream = i%2 == 1
	}
	if in.reader, err = cellOps(gen, subRNG(seed, 5), twoSmall, sz.readerQueries, bidir, false); err != nil {
		return nil, err
	}
	if in.ladder, err = cellOps(gen, subRNG(seed, 6), cells(2, 3, 4), sz.ladderPerCell, all, false); err != nil {
		return nil, err
	}
	tg := newTraceGen(subRNG(seed, 7), int64(in.nodes))
	in.batches = make([][]banks.MutationOp, sz.batches)
	for i := range in.batches {
		in.batches[i] = tg.batch(batchOps)
	}
	// Probes: half ordinary dataset queries, half pairs of trace words,
	// whose answers exist only because of the mutations.
	half := sz.probes / 2
	in.probes = append(in.probes, in.reader[:min(half, len(in.reader))]...)
	prng := subRNG(seed, 8)
	for len(in.probes) < sz.probes {
		a, b := traceWords[prng.Intn(len(traceWords))], traceWords[prng.Intn(len(traceWords))]
		if a == b {
			continue
		}
		in.probes = append(in.probes, searchOp{Terms: []string{a, b}, Algo: banks.Bidirectional, Cell: "probe"})
	}
	return in, nil
}

// traceWords is the vocabulary of inserted text. Trace words do not occur
// in the generated dataset, so a query for two of them is answered from
// mutated state only.
var traceWords = []string{
	"mutatetrace", "overlayword", "deltaword", "generationword", "compactionword",
	"replicaword", "followerword", "tailword", "proximityword", "backwardword",
}

// traceGen deterministically generates mutation batches: the recipe of
// scripts/loadgen -mutate (insert_node / insert_edge / insert_term, IDs
// predicted from the node count) plus deletes of earlier inserts. Every
// op is valid by construction when batches are applied in order to a
// dataset that had base nodes before the first one.
type traceGen struct {
	rng        *rand.Rand
	base, next int64
	seq        int
	edges      [][2]int64 // live inserted edges
	edgeSet    map[[2]int64]bool
	terms      []termAt // live inserted terms
}

type termAt struct {
	node int64
	term string
}

func newTraceGen(rng *rand.Rand, baseNodes int64) *traceGen {
	return &traceGen{rng: rng, base: baseNodes, next: baseNodes, edgeSet: make(map[[2]int64]bool)}
}

func (g *traceGen) batch(n int) []banks.MutationOp {
	ops := make([]banks.MutationOp, 0, n)
	for len(ops) < n {
		inserted := func() int64 { return g.base + g.rng.Int63n(g.next-g.base) }
		switch r := g.rng.Intn(10); {
		case g.next == g.base || r < 3:
			text := fmt.Sprintf("mutatetrace%d %s %s", g.next-g.base,
				traceWords[g.rng.Intn(len(traceWords))], traceWords[g.rng.Intn(len(traceWords))])
			ops = append(ops, banks.MutationOp{Kind: banks.OpInsertNode, Table: "paper", Text: text})
			g.next++
		case r < 6:
			e := [2]int64{inserted(), g.rng.Int63n(g.base)}
			if g.edgeSet[e] {
				continue
			}
			g.edgeSet[e] = true
			g.edges = append(g.edges, e)
			ops = append(ops, banks.MutationOp{Kind: banks.OpInsertEdge,
				From: graph.NodeID(e[0]), To: graph.NodeID(e[1]), Weight: 1 + g.rng.Float64()})
		case r < 8:
			g.seq++
			t := termAt{inserted(), fmt.Sprintf("%s%d", traceWords[g.rng.Intn(len(traceWords))], g.seq)}
			g.terms = append(g.terms, t)
			ops = append(ops, banks.MutationOp{Kind: banks.OpInsertTerm, Node: graph.NodeID(t.node), Term: t.term})
		case r < 9 && len(g.edges) > 0:
			i := g.rng.Intn(len(g.edges))
			e := g.edges[i]
			g.edges = append(g.edges[:i], g.edges[i+1:]...)
			delete(g.edgeSet, e)
			ops = append(ops, banks.MutationOp{Kind: banks.OpDeleteEdge, From: graph.NodeID(e[0]), To: graph.NodeID(e[1])})
		case r == 9 && len(g.terms) > 0:
			i := g.rng.Intn(len(g.terms))
			t := g.terms[i]
			g.terms = append(g.terms[:i], g.terms[i+1:]...)
			ops = append(ops, banks.MutationOp{Kind: banks.OpDeleteTerm, Node: graph.NodeID(t.node), Term: t.term})
		}
	}
	return ops
}

// Digests: one per workload, over exactly what that workload will send.

func digestOps(w io.Writer, ops []searchOp) {
	for _, o := range ops {
		fmt.Fprintf(w, "%s|%s|%s|%v\n", o.Algo, o.query(), o.Cell, o.Stream)
	}
}

func (in *inputs) digest(workloadName string) string {
	h := sha256.New()
	switch workloadName {
	case "lib_mix":
		digestOps(h, in.mix)
	case "serve_hot":
		digestOps(h, in.hot)
		fmt.Fprint(h, in.hotSeq)
	case "route_scatter":
		digestOps(h, in.route)
	case "mutate_mixed":
		digestOps(h, in.reader)
		digestOps(h, in.probes)
		for _, b := range in.batches {
			fmt.Fprintf(h, "%+v\n", b)
		}
	}
	digestOps(h, in.ladder)
	return hex.EncodeToString(h.Sum(nil))
}
