package engine

import (
	"container/list"
	"strings"
	"sync"

	"banks/internal/core"
)

// cacheKey identifies one cacheable query: the normalized keyword terms (in
// query order, NUL-joined), the algorithm, and the scalar search options in
// their normalized (defaults-applied) form. Queries carrying EdgeFilter,
// EdgePriority, Emit or EmitNear callbacks are never cached — functions
// have no identity to key on (and an Emit observer belongs to one call,
// not to every future cache hit; the streaming path replays cache hits
// itself, with the callback stripped from the key's perspective).
type cacheKey struct {
	terms string
	algo  core.Algo
	opts  optsKey
	// generation and deltaVersion pin the entry to the exact logical
	// graph (Source) that produced it: a mutation batch or compaction
	// swap changes the pair, so stale entries become unaddressable
	// immediately — exact invalidation, not a cache flush.
	generation   uint64
	deltaVersion uint64
}

// optsKey is the comparable subset of core.Options that can change what a
// search returns.
type optsKey struct {
	k, dmax, maxNodes          int
	mu, lambda                 float64
	strictBound, activationSum bool
}

// newCacheKey builds the key for a query, or ok=false when the query is not
// cacheable.
func newCacheKey(src *Source, terms []string, algo core.Algo, opts core.Options) (cacheKey, bool) {
	if opts.EdgeFilter != nil || opts.EdgePriority != nil || opts.Emit != nil || opts.EmitNear != nil {
		return cacheKey{}, false
	}
	n := opts.Normalized()
	return cacheKey{
		terms:        strings.Join(terms, "\x00"),
		algo:         algo,
		generation:   src.generation,
		deltaVersion: src.deltaVersion,
		opts: optsKey{
			k: n.K, dmax: n.DMax, maxNodes: n.MaxNodes,
			mu: n.Mu, lambda: n.Lambda,
			strictBound: n.StrictBound, activationSum: n.ActivationSum,
		},
	}, true
}

// lruCache is a mutex-guarded LRU over search results. Cached *core.Result
// values are shared between all callers that hit the same key; the engine's
// contract is that results are read-only.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *cacheEntry
	byKey map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	res *core.Result
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[cacheKey]*list.Element, capacity),
	}
}

func (c *lruCache) get(key cacheKey) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

func (c *lruCache) put(key cacheKey, res *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
