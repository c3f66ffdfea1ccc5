package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"banks/internal/core"
	"banks/internal/graph"
	"banks/internal/index"
)

// testGraph builds a simple chain graph 0→1→…→n-1 with keyword "alpha" on
// node 0, "omega" on node n-1, and "mid" on the middle node, all with
// uniform prestige.
func testGraph(t testing.TB, n int) (*graph.Graph, *index.Index) {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNodes("row", n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	p := make([]float64, n)
	for i := range p {
		p[i] = 1
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}
	ix := index.New()
	ix.AddText(0, "alpha")
	ix.AddText(graph.NodeID(n/2), "mid")
	ix.AddText(graph.NodeID(n-1), "omega")
	ix.Freeze(g)
	return g, ix
}

func TestNewValidation(t *testing.T) {
	g, ix := testGraph(t, 4)
	if _, err := New(nil, ix, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New(g, nil, Options{}); err == nil {
		t.Fatal("nil index accepted")
	}
	if _, err := New(g, ix, Options{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := New(g, ix, Options{DefaultTimeout: -time.Second}); err == nil {
		t.Fatal("negative timeout accepted")
	}
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() < 1 {
		t.Fatalf("defaulted workers = %d", e.Workers())
	}
}

func TestSearchBasic(t *testing.T) {
	g, ix := testGraph(t, 8)
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(context.Background(), Query{
		Terms: []string{"Alpha", "MID."}, // normalization is the engine's job
		Algo:  core.AlgoBidirectional,
		Opts:  core.Options{K: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	if _, err := e.Search(nil, Query{Terms: []string{"..."}, Algo: core.AlgoBidirectional}); err == nil {
		t.Fatal("keyword-free query accepted")
	}
	if _, err := e.Search(nil, Query{Terms: []string{"alpha"}, Algo: core.Algo("nope")}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestNear(t *testing.T) {
	g, ix := testGraph(t, 8)
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := e.Near(context.Background(), []string{"alpha", "mid"}, core.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || stats.NodesExplored == 0 {
		t.Fatalf("near query empty: %v %+v", res, stats)
	}
}

func TestCacheHit(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoSIBackward, Opts: core.Options{K: 2}}
	first, err := e.Search(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	// Same query with differently-cased terms and equivalent (defaulted)
	// options must hit the same entry.
	again, err := e.Search(nil, Query{Terms: []string{"ALPHA", "Omega"}, Algo: core.AlgoSIBackward, Opts: core.Options{K: 2, Mu: core.DefaultMu}})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("second search did not return the cached result")
	}
	hits, misses := e.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestCacheDisabledAndUncacheable(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional}
	r1, _ := e.Search(nil, q)
	r2, _ := e.Search(nil, q)
	if r1 == r2 {
		t.Fatal("cache disabled but result was shared")
	}
	if h, m := e.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("disabled cache counted hits=%d misses=%d", h, m)
	}

	e2, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Queries with callback options must bypass the cache.
	qf := Query{
		Terms: []string{"alpha", "omega"},
		Algo:  core.AlgoBidirectional,
		Opts:  core.Options{EdgeFilter: func(graph.EdgeType, bool) bool { return true }},
	}
	if _, err := e2.Search(nil, qf); err != nil {
		t.Fatal(err)
	}
	if e2.CacheLen() != 0 {
		t.Fatal("callback query was cached")
	}
}

func TestCacheEviction(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional},
		{Terms: []string{"alpha", "mid"}, Algo: core.AlgoBidirectional},
		{Terms: []string{"mid", "omega"}, Algo: core.AlgoBidirectional},
	}
	for _, q := range queries {
		if _, err := e.Search(nil, q); err != nil {
			t.Fatal(err)
		}
	}
	if e.CacheLen() != 2 {
		t.Fatalf("cache len = %d, want 2", e.CacheLen())
	}
	// The oldest entry was evicted: re-running it is a miss.
	if _, err := e.Search(nil, queries[0]); err != nil {
		t.Fatal(err)
	}
	if hits, misses := e.CacheStats(); hits != 0 || misses != 4 {
		t.Fatalf("cache stats hits=%d misses=%d, want 0/4", hits, misses)
	}
}

func TestTruncatedResultNotCached(t *testing.T) {
	// The full search on this graph takes hundreds of milliseconds; the 5ms
	// engine deadline fires mid-search (it is long enough that the idle
	// pool's slot wait never consumes it, so Search cannot fail outright).
	g, ix := testGraph(t, 8192)
	e, err := New(g, ix, Options{DefaultTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional, Opts: core.Options{DMax: 8192}}
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Fatal("5ms deadline did not truncate the search")
	}
	if e.CacheLen() != 0 {
		t.Fatal("truncated result was cached")
	}
}

func TestExpiredDeadlineFailsFastAndIsNotCached(t *testing.T) {
	// A deadline that is effectively already expired covers queue time too:
	// Search either fails with DeadlineExceeded while waiting for a slot or
	// returns a truncated partial result — never a cached full answer.
	g, ix := testGraph(t, 64)
	e, err := New(g, ix, Options{DefaultTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional}
	start := time.Now()
	res, err := e.Search(context.Background(), q)
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("expired deadline took %v", elapsed)
	}
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("unexpected error %v", err)
		}
	} else if !res.Stats.Truncated {
		t.Fatal("expired deadline returned a full result")
	}
	if e.CacheLen() != 0 {
		t.Fatal("expired-deadline result was cached")
	}
}

func TestPoolBlocksAndRespectsContext(t *testing.T) {
	g, ix := testGraph(t, 64)
	e, err := New(g, ix, Options{Workers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single worker slot with a search whose edge filter blocks
	// until released.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blockingQ := Query{
		Terms: []string{"alpha", "omega"},
		Algo:  core.AlgoSIBackward,
		Opts: core.Options{EdgeFilter: func(graph.EdgeType, bool) bool {
			once.Do(func() { close(entered); <-release })
			return true
		}},
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Search(context.Background(), blockingQ)
		done <- err
	}()
	<-entered

	// A second search cannot get a slot; cancelling its context must fail
	// it with ctx.Err() while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := e.Search(ctx, Query{Terms: []string{"alpha", "mid"}, Algo: core.AlgoSIBackward})
		waitErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the slot wait
	cancel()
	if err := <-waitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting search returned %v, want context.Canceled", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocking search failed: %v", err)
	}
}

func TestSearchBatch(t *testing.T) {
	g, ix := testGraph(t, 32)
	e, err := New(g, ix, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	deep := core.Options{DMax: 64} // the chain is longer than the default depth cutoff
	qs := []Query{
		{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional, Opts: deep},
		{Terms: []string{"..."}, Algo: core.AlgoBidirectional}, // no keywords: fails alone
		{Terms: []string{"alpha", "mid"}, Algo: core.AlgoSIBackward, Opts: deep},
		{Terms: []string{"mid", "omega"}, Algo: core.AlgoMIBackward, Opts: deep},
		{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional, Opts: deep}, // duplicate: cache hit
	}
	results, errs := e.SearchBatch(context.Background(), qs)
	if len(results) != len(qs) || len(errs) != len(qs) {
		t.Fatalf("batch sizes %d/%d", len(results), len(errs))
	}
	for i, r := range results {
		if i == 1 {
			if errs[i] == nil {
				t.Fatal("keyword-free batch entry did not fail")
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if r == nil || len(r.Answers) == 0 {
			t.Fatalf("query %d: no answers", i)
		}
	}
	// The in-batch duplicate (query 4) may or may not hit the cache — its
	// dispatcher can reach the lookup while query 0 is still in flight
	// (query 1 fails instantly, freeing its dispatcher early), which is a
	// legitimate miss. When both miss, both run and the later cache put
	// wins. What IS guaranteed: after the batch completes, one of the two
	// results is cached, so a repeat query must share it, and both carry
	// identical answers.
	again, againErrs := e.SearchBatch(context.Background(), qs[:1])
	if againErrs[0] != nil {
		t.Fatalf("repeat query: %v", againErrs[0])
	}
	if again[0] != results[0] && again[0] != results[4] {
		t.Fatal("repeat query did not share a cached batch result")
	}
	if len(results[0].Answers) != len(results[4].Answers) {
		t.Fatalf("duplicate queries returned %d and %d answers", len(results[0].Answers), len(results[4].Answers))
	}
	for i := range results[0].Answers {
		a, b := *results[0].Answers[i], *results[4].Answers[i]
		a.GeneratedAt, a.OutputAt, b.GeneratedAt, b.OutputAt = 0, 0, 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("duplicate queries diverged at answer %d:\n%+v\n%+v", i, a, b)
		}
	}

	// Empty batch is a no-op.
	r0, e0 := e.SearchBatch(nil, nil)
	if len(r0) != 0 || len(e0) != 0 {
		t.Fatal("empty batch returned entries")
	}
}
