// Package engine layers a concurrent query-serving runtime over the core
// search algorithms: a bounded worker pool, per-query deadlines, an LRU
// result cache, and a batch API that fans M queries out across W workers.
//
// The engine relies on the data structures being immutable after build:
// the graph and index are only ever read, so any number of searches may run
// in parallel against them. Results returned by the engine may be served
// from the shared cache and must be treated as read-only by callers.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"banks/internal/core"
	"banks/internal/graph"
	"banks/internal/index"
)

// DefaultCacheSize is the LRU capacity used when Options.CacheSize is 0.
const DefaultCacheSize = 256

// Options configures an Engine. The zero value gives a pool sized to
// GOMAXPROCS, no default deadline, and a DefaultCacheSize-entry cache.
type Options struct {
	// Workers bounds the number of searches executing simultaneously.
	// Default: runtime.GOMAXPROCS(0).
	Workers int
	// DefaultTimeout is applied to every query as a deadline in addition to
	// whatever deadline the caller's context carries (the earlier wins).
	// It covers the whole call, including time spent waiting for a pool
	// slot. 0 means no engine-imposed deadline.
	DefaultTimeout time.Duration
	// CacheSize is the LRU result-cache capacity in entries: 0 selects
	// DefaultCacheSize, negative disables caching entirely.
	CacheSize int
}

// Query is one unit of work for the engine: pre-split keyword terms (they
// are normalized by the engine), an algorithm, and search options.
type Query struct {
	Terms []string
	Algo  core.Algo
	Opts  core.Options
}

// Source is one immutable logical graph the engine serves: a graph view,
// a keyword-lookup function, and the identity of that state (snapshot
// generation plus delta version) used for exact cache keying. Sources are
// swapped in atomically — each query binds to exactly one Source, so a
// mutation or compaction landing mid-stream of queries gives every query
// a view consistent with some generation, never a torn mix.
type Source struct {
	graph  graph.View
	lookup func(string) []graph.NodeID
	// generation is the base snapshot's compaction generation;
	// deltaVersion counts mutation batches applied on top of it (0 for a
	// pristine snapshot). Together they identify the logical graph
	// exactly, which is what makes cache invalidation across swaps exact
	// rather than a flush.
	generation   uint64
	deltaVersion uint64
}

// NewSource builds a swappable engine source from a graph view and a
// keyword-lookup function (typically index.Lookup or a delta overlay's).
func NewSource(g graph.View, lookup func(string) []graph.NodeID, generation, deltaVersion uint64) (*Source, error) {
	if g == nil {
		return nil, errors.New("engine: nil graph")
	}
	if lookup == nil {
		return nil, errors.New("engine: nil lookup")
	}
	return &Source{graph: g, lookup: lookup, generation: generation, deltaVersion: deltaVersion}, nil
}

// Graph returns the source's graph view.
func (s *Source) Graph() graph.View { return s.graph }

// Generation returns the base snapshot generation of the source.
func (s *Source) Generation() uint64 { return s.generation }

// DeltaVersion returns the count of mutation batches layered on the base.
func (s *Source) DeltaVersion() uint64 { return s.deltaVersion }

// Engine executes keyword searches against one immutable graph+index pair
// with bounded concurrency, deadlines and result caching. The pair is
// held behind an atomic Source pointer so a serving layer can hot-swap in
// a mutated overlay or a freshly compacted snapshot without stopping
// queries: each query binds to the Source current when it starts
// executing, and Swap + Quiesce gives the swapper a moment when no query
// can still be reading the old state.
type Engine struct {
	src atomic.Pointer[Source]

	workers int
	timeout time.Duration
	sem     chan struct{}

	cache        *lruCache // nil when caching is disabled
	hits, misses atomic.Uint64

	// Cumulative activity counters for serving introspection (/statusz).
	searches  atomic.Uint64
	nears     atomic.Uint64
	truncated atomic.Uint64
	errored   atomic.Uint64
}

// Counters is a point-in-time snapshot of cumulative engine activity,
// exposed for serving-layer introspection. All fields only ever grow.
type Counters struct {
	// Searches counts Search calls that passed input validation,
	// including ones answered from the result cache.
	Searches uint64
	// Nears counts Near calls that passed input validation.
	Nears uint64
	// Truncated counts queries whose result came back with
	// Stats.Truncated set (deadline or cancellation cut the search short).
	Truncated uint64
	// Errored counts queries that returned an error (bad options,
	// deadline expiry while waiting for a pool slot, ...).
	Errored uint64
}

// Counters returns a snapshot of the cumulative activity counters. The
// fields are read individually, not atomically as a set: a query
// completing concurrently may be reflected in one counter and not yet in
// another.
func (e *Engine) Counters() Counters {
	return Counters{
		Searches:  e.searches.Load(),
		Nears:     e.nears.Load(),
		Truncated: e.truncated.Load(),
		Errored:   e.errored.Load(),
	}
}

// InFlight reports how many pool slots are currently held — one per
// executing query.
func (e *Engine) InFlight() int { return len(e.sem) }

// Quiesce blocks until every pool slot is simultaneously free — i.e. no
// query is executing — or ctx is done, in which case it returns ctx.Err().
// It is a drain barrier for graceful shutdown: after HTTP listeners stop
// accepting work, Quiesce confirms the engine has gone idle. New queries
// arriving while Quiesce holds slots will wait and then proceed normally;
// it observes a moment of idleness, it does not fence the pool.
func (e *Engine) Quiesce(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	held := 0
	defer func() {
		for i := 0; i < held; i++ {
			<-e.sem
		}
	}()
	for held < e.workers {
		select {
		case e.sem <- struct{}{}:
			held++
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// New builds an Engine over a graph and its keyword index.
func New(g *graph.Graph, ix *index.Index, opts Options) (*Engine, error) {
	if g == nil {
		return nil, errors.New("engine: nil graph")
	}
	if ix == nil {
		return nil, errors.New("engine: nil index")
	}
	if opts.DefaultTimeout < 0 {
		return nil, fmt.Errorf("engine: negative DefaultTimeout %v", opts.DefaultTimeout)
	}
	w := opts.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return nil, fmt.Errorf("engine: invalid worker count %d", opts.Workers)
	}
	src, err := NewSource(g, ix.Lookup, 0, 0)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		workers: w,
		timeout: opts.DefaultTimeout,
		sem:     make(chan struct{}, w),
	}
	e.src.Store(src)
	switch {
	case opts.CacheSize == 0:
		e.cache = newLRUCache(DefaultCacheSize)
	case opts.CacheSize > 0:
		e.cache = newLRUCache(opts.CacheSize)
	}
	return e, nil
}

// Workers returns the concurrency bound of the pool.
func (e *Engine) Workers() int { return e.workers }

// Source returns the engine's current source. Queries already executing
// may still be bound to an earlier one until Quiesce observes idleness.
func (e *Engine) Source() *Source { return e.src.Load() }

// Swap atomically replaces the engine's source; queries that start (or
// re-resolve) after the swap run against the new source. The old source's
// backing memory must outlive every in-flight query — callers that want
// to release it (e.g. unmapping a replaced snapshot) call Quiesce after
// Swap: once every pool slot has been simultaneously free, no query can
// still be reading the old state, because each query binds its source
// while holding a slot.
func (e *Engine) Swap(src *Source) {
	if src == nil {
		panic("engine: Swap with nil source")
	}
	e.src.Store(src)
}

// normalizeTerms lower-cases and trims each term, dropping terms that
// normalize to nothing. The result is the canonical form used both for
// index lookup and cache keying.
func normalizeTerms(terms []string) []string {
	out := make([]string, 0, len(terms))
	for _, t := range terms {
		if n := index.Normalize(t); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// Search runs one query through the pool. It blocks while all workers are
// busy (respecting ctx while waiting). On deadline expiry — from the
// caller's context or the engine's DefaultTimeout — the partial top-k found
// so far is returned with Stats.Truncated set.
//
// The returned result may be shared with other callers via the cache and
// must not be modified.
func (e *Engine) Search(ctx context.Context, q Query) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	terms := normalizeTerms(q.Terms)
	if len(terms) == 0 {
		return nil, errors.New("engine: query contains no keywords")
	}
	e.searches.Add(1)

	// The pre-slot cache probe uses whatever source is current now; a hit
	// costs no pool slot. The key carries the source's generation + delta
	// version, so a swap can never serve a stale entry — old entries
	// simply stop being addressable and age out of the LRU.
	src := e.src.Load()
	key, cacheable := cacheKey{}, false
	if e.cache != nil {
		if key, cacheable = newCacheKey(src, terms, q.Algo, q.Opts); cacheable {
			if res, ok := e.cache.get(key); ok {
				e.hits.Add(1)
				return res, nil
			}
			e.misses.Add(1)
		}
	}

	// The default timeout starts before the slot wait: it is a per-query
	// deadline covering queue time, not just execution time, so a saturated
	// pool cannot hold callers indefinitely.
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	select {
	case e.sem <- struct{}{}:
		defer func() { <-e.sem }()
	case <-ctx.Done():
		e.errored.Add(1)
		return nil, ctx.Err()
	}

	// Re-resolve the source now that a slot is held: binding the source
	// under a slot is what makes Swap + Quiesce a safe unmap barrier (a
	// quiesced engine has no slot held, hence no query bound to the old
	// source). A swap between the cache probe and here just re-keys the
	// result to the source that actually executes.
	if cur := e.src.Load(); cur != src {
		src = cur
		if cacheable {
			key, cacheable = newCacheKey(src, terms, q.Algo, q.Opts)
		}
	}

	kw := make([][]graph.NodeID, len(terms))
	for i, t := range terms {
		kw[i] = src.lookup(t)
	}

	res, err := core.Search(ctx, src.graph, q.Algo, kw, q.Opts)
	if err != nil {
		e.errored.Add(1)
		return nil, err
	}
	if res.Stats.Truncated {
		e.truncated.Add(1)
	}
	// Truncated results are deadline artifacts of this one call, not the
	// query's answer; caching them would serve partial answers to callers
	// with generous deadlines.
	if cacheable && !res.Stats.Truncated {
		e.cache.put(key, res)
	}
	return res, nil
}

// Near runs a near query (activation-ranked nodes) through the pool with
// the same deadline handling as Search. Near results are not cached.
func (e *Engine) Near(ctx context.Context, terms []string, opts core.Options) ([]core.NearResult, core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	nt := normalizeTerms(terms)
	if len(nt) == 0 {
		return nil, core.Stats{}, errors.New("engine: query contains no keywords")
	}
	e.nears.Add(1)
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	select {
	case e.sem <- struct{}{}:
		defer func() { <-e.sem }()
	case <-ctx.Done():
		e.errored.Add(1)
		return nil, core.Stats{}, ctx.Err()
	}
	src := e.src.Load()
	kw := make([][]graph.NodeID, len(nt))
	for i, t := range nt {
		kw[i] = src.lookup(t)
	}
	res, stats, err := core.Near(ctx, src.graph, kw, opts)
	switch {
	case err != nil:
		e.errored.Add(1)
	case stats.Truncated:
		e.truncated.Add(1)
	}
	return res, stats, err
}

// SearchBatch fans len(qs) queries out across the worker pool and waits for
// all of them. results[i] and errs[i] correspond to qs[i]; a failed query
// leaves a nil result and its error, never affecting its siblings.
// Cancelling ctx aborts queries still running (they return truncated
// results) and fails queries still waiting for a worker.
func (e *Engine) SearchBatch(ctx context.Context, qs []Query) (results []*core.Result, errs []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results = make([]*core.Result, len(qs))
	errs = make([]error, len(qs))
	if len(qs) == 0 {
		return results, errs
	}
	// One dispatcher goroutine per pool slot (not per query): M may be much
	// larger than W, and each Search also acquires a pool slot, so more
	// dispatchers than workers would only add blocked goroutines.
	n := e.workers
	if n > len(qs) {
		n = len(qs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = e.Search(ctx, qs[i])
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, errs
}

// CacheStats reports cumulative cache hits and misses (both zero when
// caching is disabled).
func (e *Engine) CacheStats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// CacheLen returns the current number of cached results.
func (e *Engine) CacheLen() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}
