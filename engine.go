package banks

import (
	"context"
	"time"

	"banks/internal/engine"
)

// EngineOptions configures a query Engine. The zero value gives a worker
// pool sized to GOMAXPROCS, no default deadline, and a 256-entry result
// cache.
type EngineOptions struct {
	// Workers bounds how many searches execute simultaneously.
	// Default: runtime.GOMAXPROCS(0).
	Workers int
	// DefaultTimeout is a per-query deadline applied in addition to any
	// deadline on the caller's context (the earlier wins). 0 disables it.
	DefaultTimeout time.Duration
	// CacheSize is the LRU result-cache capacity in entries: 0 selects the
	// default (256), negative disables caching.
	CacheSize int
}

// BatchQuery is one query of a SearchBatch call.
type BatchQuery struct {
	Query string
	Algo  Algorithm
	Opts  Options
}

// Engine serves concurrent queries against one DB with a bounded worker
// pool, per-query deadlines and an LRU result cache. It relies on the DB
// concurrency contract (immutable after Build): any number of goroutines
// may call Search/SearchBatch/Near on the same Engine.
//
// Results may be shared between callers through the cache and must be
// treated as read-only.
type Engine struct {
	db *DB
	e  *engine.Engine
}

// NewEngine builds an Engine over a DB.
func NewEngine(db *DB, opts EngineOptions) (*Engine, error) {
	e, err := engine.New(db.Graph, db.Index, engine.Options{
		Workers:        opts.Workers,
		DefaultTimeout: opts.DefaultTimeout,
		CacheSize:      opts.CacheSize,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{db: db, e: e}, nil
}

// DB returns the database the engine serves.
func (e *Engine) DB() *DB { return e.db }

// Workers returns the concurrency bound of the pool.
func (e *Engine) Workers() int { return e.e.Workers() }

// Search runs one free-text query through the pool. It blocks while all
// workers are busy (respecting ctx while waiting); on deadline expiry the
// partial top-k is returned with Stats.Truncated set.
func (e *Engine) Search(ctx context.Context, query string, algo Algorithm, opts Options) (*Result, error) {
	return e.e.Search(ctx, engine.Query{Terms: Keywords(query), Algo: algo, Opts: opts})
}

// Near runs a near query (activation-ranked nodes) through the pool.
func (e *Engine) Near(ctx context.Context, query string, opts Options) ([]NearResult, Stats, error) {
	return e.e.Near(ctx, Keywords(query), opts)
}

// Streaming types, aliased from the engine so callers configure streams
// without importing internal packages.
type (
	// StreamOptions configures a SearchStream call (answer-channel
	// buffer size).
	StreamOptions = engine.StreamOptions
	// Stream is one in-progress streaming search: range over Answers()
	// until closed, then read Trailer().
	Stream = engine.Stream
	// StreamTrailer summarizes a finished stream (stats, truncation,
	// cache provenance, delivered-answer count).
	StreamTrailer = engine.StreamTrailer
)

// DefaultStreamBuffer is the answer-channel capacity used when
// StreamOptions.Buffer is zero.
const DefaultStreamBuffer = engine.DefaultStreamBuffer

// SearchStream runs one free-text query with incremental answer
// delivery: answers appear on the returned Stream the moment the search
// outputs them (the paper's §5.2 generation-vs-output distinction made
// visible to callers), instead of all at once when the search finishes.
// The streamed sequence is bit-identical in content and order to what
// Search returns for the same query; a result-cache hit is replayed as a
// stream; deadline expiry mid-stream ends the stream cleanly with the
// trailer's Truncated flag set over a valid partial prefix.
//
// The consumer must drain Answers() until it closes, or cancel ctx to
// abandon the stream.
func (e *Engine) SearchStream(ctx context.Context, query string, algo Algorithm, opts Options, sopts StreamOptions) (*Stream, error) {
	return e.e.SearchStream(ctx, engine.Query{Terms: Keywords(query), Algo: algo, Opts: opts}, sopts)
}

// SearchBatch fans the queries out across the worker pool and waits for all
// of them; results[i] and errs[i] correspond to queries[i], and one failing
// query never affects its siblings.
func (e *Engine) SearchBatch(ctx context.Context, queries []BatchQuery) (results []*Result, errs []error) {
	qs := make([]engine.Query, len(queries))
	for i, q := range queries {
		qs[i] = engine.Query{Terms: Keywords(q.Query), Algo: q.Algo, Opts: q.Opts}
	}
	return e.e.SearchBatch(ctx, qs)
}

// CacheStats reports cumulative result-cache hits and misses.
func (e *Engine) CacheStats() (hits, misses uint64) { return e.e.CacheStats() }

// MergeTopK merges independently produced answer lists into one global
// top-k with the canonical scatter-gather recipe: duplicate trees
// (rotations) and duplicate roots keep only their best-scoring version,
// survivors sort stably by score descending (bit-equal scores keep their
// arrival order, mirroring the core output heap's final sort), and the
// list is cut at k. Answers are returned by reference, bit-identical to
// the inputs. This is the merge the sharded serving tier
// (cmd/banksrouter) applies to per-shard results.
func MergeTopK(k int, lists ...[]*Answer) []*Answer {
	return engine.MergeTopK(k, lists...)
}

// EngineStats is a point-in-time snapshot of an Engine's activity, for
// status pages and metrics exporters. Counters are cumulative; gauges
// (CacheLen, InFlight) reflect the sampling instant.
type EngineStats struct {
	// Searches counts tree-search queries accepted by the engine,
	// including ones answered from the result cache.
	Searches uint64
	// Nears counts near queries accepted by the engine.
	Nears uint64
	// Truncated counts queries whose result was cut short by a deadline
	// or cancellation (Stats.Truncated set).
	Truncated uint64
	// Errored counts queries that returned an error.
	Errored uint64
	// CacheHits/CacheMisses are the result-cache counters.
	CacheHits, CacheMisses uint64
	// CacheLen is the current number of cached results.
	CacheLen int
	// InFlight is the number of pool slots currently held (executing
	// queries).
	InFlight int
	// Workers is the pool's concurrency bound.
	Workers int
}

// Stats samples the engine's activity counters and pool state.
func (e *Engine) Stats() EngineStats {
	c := e.e.Counters()
	hits, misses := e.e.CacheStats()
	return EngineStats{
		Searches:    c.Searches,
		Nears:       c.Nears,
		Truncated:   c.Truncated,
		Errored:     c.Errored,
		CacheHits:   hits,
		CacheMisses: misses,
		CacheLen:    e.e.CacheLen(),
		InFlight:    e.e.InFlight(),
		Workers:     e.e.Workers(),
	}
}

// Quiesce blocks until the engine has no query executing (all pool slots
// simultaneously free) or ctx is done. It is the drain barrier used by
// serving front ends during graceful shutdown.
func (e *Engine) Quiesce(ctx context.Context) error { return e.e.Quiesce(ctx) }

// SearchBatch is a convenience one-shot batch on a DB: it fans the queries
// out across a temporary pool of the given width (0 = GOMAXPROCS) without
// caching. For repeated batches build a NewEngine once and reuse it.
func (d *DB) SearchBatch(ctx context.Context, queries []BatchQuery, workers int) ([]*Result, []error) {
	e, err := NewEngine(d, EngineOptions{Workers: workers, CacheSize: -1})
	if err != nil {
		errs := make([]error, len(queries))
		for i := range errs {
			errs[i] = err
		}
		return make([]*Result, len(queries)), errs
	}
	return e.SearchBatch(ctx, queries)
}
