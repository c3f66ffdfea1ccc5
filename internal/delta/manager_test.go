package delta

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"banks/internal/core"
	"banks/internal/engine"
	"banks/internal/graph"
	"banks/internal/index"
	"banks/internal/prestige"
)

// newManagerWorld builds a small base graph + index, an engine over it,
// and a Manager (compaction enabled iff snapshotPath is non-empty).
func newManagerWorld(t *testing.T, snapshotPath string) (*Manager, *engine.Engine) {
	t.Helper()
	return newManagerWorldLog(t, snapshotPath, nil)
}

// newManagerWorldLog is newManagerWorld with a write-ahead log wired in.
func newManagerWorldLog(t *testing.T, snapshotPath string, log LogAppender) (*Manager, *engine.Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	b := graph.NewBuilder()
	ix := index.New()
	const n = 60
	for i := 0; i < n; i++ {
		b.AddNode(diffTables[i%len(diffTables)])
		for _, term := range pickTerms(rng, 2) {
			ix.AddTerm(graph.NodeID(i), term)
		}
	}
	for u := 0; u < n; u++ {
		for j := 0; j < 2; j++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+rng.Float64(), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	p := make([]float64, g.NumNodes())
	for i := range p {
		p[i] = 1
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}
	ix.Freeze(g)

	eng, err := engine.New(g, ix, engine.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{
		Engine:       eng,
		Graph:        g,
		Index:        ix,
		SnapshotPath: snapshotPath,
		Mode:         PrestigeUniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	if log != nil {
		m.SetLog(log)
	}
	return m, eng
}

// TestMutateWhileSearchHammer is the race-detector acceptance test:
// writers apply mutation batches (each one an atomic source swap) while
// eight reader goroutines stream queries through the engine. Every query
// must succeed against whichever source it bound — an answer referencing
// a node the bound generation does not have would fail inside core with
// an out-of-range panic, and any unsynchronized access trips -race.
func TestMutateWhileSearchHammer(t *testing.T) {
	m, eng := newManagerWorld(t, "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	var queries, batches atomic.Uint64
	errs := make(chan error, 16)

	// One writer: randomized valid batches, as fast as Apply allows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for ctx.Err() == nil {
			v := m.View()
			var ops []Op
			for i := 0; i < 3; i++ {
				switch rng.Intn(3) {
				case 0:
					ops = append(ops, Op{Kind: OpInsertNode, Table: diffTables[rng.Intn(len(diffTables))],
						Text: diffVocab[rng.Intn(len(diffVocab))]})
				case 1:
					u := graph.NodeID(rng.Intn(v.NumNodes()))
					w := graph.NodeID(rng.Intn(v.NumNodes()))
					if u == w || v.Deleted(u) || v.Deleted(w) {
						continue
					}
					ops = append(ops, Op{Kind: OpInsertEdge, From: u, To: w, Weight: 1 + rng.Float64()})
				default:
					u := graph.NodeID(rng.Intn(v.NumNodes()))
					if v.Deleted(u) {
						continue
					}
					ops = append(ops, Op{Kind: OpInsertTerm, Node: u, Term: diffVocab[rng.Intn(len(diffVocab))]})
				}
			}
			if len(ops) == 0 {
				continue
			}
			if _, err := m.Apply(ops); err != nil {
				select {
				case errs <- err:
				default:
				}
				return
			}
			batches.Add(1)
		}
	}()

	// Eight readers hammering all three algorithms.
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			algos := core.Algos()
			for ctx.Err() == nil {
				q := engine.Query{
					Terms: pickTerms(rng, 2),
					Algo:  algos[rng.Intn(len(algos))],
					Opts:  core.Options{K: 3},
				}
				res, err := eng.Search(ctx, q)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					select {
					case errs <- err:
					default:
					}
					return
				}
				_ = res
				queries.Add(1)
			}
		}(int64(100 + r))
	}

	time.Sleep(600 * time.Millisecond)
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("hammer error: %v", err)
	}
	if queries.Load() == 0 || batches.Load() == 0 {
		t.Fatalf("hammer made no progress: %d queries, %d batches", queries.Load(), batches.Load())
	}
	t.Logf("hammer: %d queries over %d mutation batches", queries.Load(), batches.Load())
}

// TestCompactUnderLoad proves the hot-swap drops zero in-flight queries:
// readers stream queries continuously while mutations accumulate and
// Compact runs repeatedly. Every query must complete without error, and
// each compaction must advance the generation and reset the delta.
func TestCompactUnderLoad(t *testing.T) {
	dir := t.TempDir()
	m, eng := newManagerWorld(t, filepath.Join(dir, "live.banksnap"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	var queries atomic.Uint64
	errs := make(chan error, 16)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil {
				q := engine.Query{Terms: pickTerms(rng, 2), Algo: core.AlgoBidirectional, Opts: core.Options{K: 3}}
				if _, err := eng.Search(ctx, q); err != nil {
					if ctx.Err() != nil {
						return
					}
					select {
					case errs <- err:
					default:
					}
					return
				}
				queries.Add(1)
			}
		}(int64(200 + r))
	}

	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 3; round++ {
		// Make sure readers are actively querying before the swap so the
		// compaction genuinely races live load.
		qBefore := queries.Load()
		for deadline := time.Now().Add(5 * time.Second); queries.Load() == qBefore && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		for b := 0; b < 4; b++ {
			ops := []Op{
				{Kind: OpInsertNode, Table: "paper", Text: "compaction survivor " + diffVocab[rng.Intn(len(diffVocab))]},
			}
			if _, err := m.Apply(ops); err != nil {
				t.Fatalf("round %d apply: %v", round, err)
			}
		}
		before := m.Stats()
		cres, err := m.Compact(ctx)
		if err != nil {
			t.Fatalf("round %d compact: %v", round, err)
		}
		gen := cres.Generation
		after := m.Stats()
		if gen != before.Generation+1 || after.Generation != gen {
			t.Fatalf("round %d: generation %d -> %d (compact returned %d)", round, before.Generation, after.Generation, gen)
		}
		if after.DeltaVersion != 0 || after.DeltaNodes != 0 || after.Tombstones != 0 {
			t.Fatalf("round %d: delta not reset after compaction: %+v", round, after)
		}
		if want := m.CompactPath(gen); cres.Path != want {
			t.Fatalf("round %d: compacted to %q, want %q", round, cres.Path, want)
		}
	}

	// Compaction is fast on this small graph; let the readers overlap with
	// at least a little steady-state load before stopping.
	deadline := time.Now().Add(5 * time.Second)
	for queries.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query failed during compaction: %v", err)
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed")
	}
	stats := m.Stats()
	if stats.CompactionsTotal != 3 {
		t.Fatalf("CompactionsTotal = %d, want 3", stats.CompactionsTotal)
	}
	if stats.LastCompactionSeconds <= 0 || stats.CompactionSecondsSum < stats.LastCompactionSeconds {
		t.Fatalf("compaction duration accounting off: %+v", stats)
	}
	t.Logf("compaction under load: %d queries, 3 generations", queries.Load())
}

// TestCompactPreservesSearch pins that a compaction is semantically
// invisible: the same query returns bit-identical answers immediately
// before and after the swap (modulo the result cache, which is keyed by
// generation and so cannot serve stale state).
func TestCompactPreservesSearch(t *testing.T) {
	dir := t.TempDir()
	m, eng := newManagerWorld(t, filepath.Join(dir, "live.banksnap"))
	if _, err := m.Apply([]Op{
		{Kind: OpInsertNode, Table: "paper", Text: "steiner tree search"},
		{Kind: OpInsertEdge, From: 0, To: 60, Weight: 1.5},
		{Kind: OpDeleteNode, Node: 5},
	}); err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Terms: []string{"steiner", "search"}, Algo: core.AlgoBidirectional, Opts: core.Options{K: 5}}
	before, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if so, sa := diffSignature(before), diffSignature(after); so != sa {
		t.Fatalf("compaction changed answers:\nbefore:\n%s\nafter:\n%s", so, sa)
	}
}

// TestCompactDisabled pins the error path when no snapshot path is set.
func TestCompactDisabled(t *testing.T) {
	m, _ := newManagerWorld(t, "")
	if _, err := m.Compact(context.Background()); err == nil {
		t.Fatal("Compact succeeded without a snapshot path")
	}
	if p := m.CompactPath(1); p != "" {
		t.Fatalf("CompactPath = %q, want empty", p)
	}
}

// TestPrestigeRecomputeAcrossApply pins that RandomWalk prestige is
// recomputed over the mutated graph, not frozen at base values: adding
// in-edges to a node must change its prestige.
func TestPrestigeRecomputeAcrossApply(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode("paper")
	}
	for i := 1; i < 6; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(0), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	p, err := prestige.Compute(g, prestige.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}
	ix := index.New()
	ix.AddTerm(0, "hub")
	ix.Freeze(g)

	v := NewView(g, ix, 0, PrestigeRandomWalk, prestige.Options{})
	nv, _, err := v.Apply([]Op{
		{Kind: OpInsertNode, Table: "paper", Text: "newcomer"},
		{Kind: OpInsertEdge, From: 0, To: 6, Weight: 1},
		{Kind: OpInsertEdge, From: 1, To: 6, Weight: 1},
		{Kind: OpInsertEdge, From: 2, To: 6, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nv.Prestige(6) <= 0 {
		t.Fatalf("appended node prestige = %v, want > 0 under random walk", nv.Prestige(6))
	}
	if nv.Prestige(0) == g.Prestige(0) && nv.Prestige(1) == g.Prestige(1) {
		t.Fatal("prestige unchanged after mutation; expected recompute over the mutated graph")
	}
}
