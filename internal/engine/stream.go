package engine

import (
	"context"
	"errors"
	"fmt"

	"banks/internal/core"
	"banks/internal/graph"
)

// DefaultStreamBuffer is the answer-channel capacity used when
// StreamOptions.Buffer is zero. A handful of answers of headroom absorbs
// consumer jitter (one slow write does not stall generation) while
// keeping the channel small enough that backpressure still reaches the
// search quickly when the consumer genuinely cannot keep up.
const DefaultStreamBuffer = 16

// StreamOptions configures one SearchStream call. Backpressure always
// blocks generation: a consumer slower than the search stalls it inside
// the emission until the answer is taken — strict incrementality, at the
// cost of holding the query's pool slot while the consumer dawdles.
type StreamOptions struct {
	// Buffer is the answer-channel capacity: 0 selects
	// DefaultStreamBuffer, negative means unbuffered (every emission
	// waits for the consumer — useful in tests that need deterministic
	// backpressure).
	Buffer int
}

// StreamTrailer summarizes a finished stream — the final NDJSON line of
// the HTTP transport carries exactly this.
type StreamTrailer struct {
	// Stats are the search's §5.2 counters (for a cache replay, the
	// originating run's).
	Stats core.Stats
	// Truncated reports that the delivered sequence is a valid prefix,
	// not the complete top-k: the search was cut by its deadline
	// (Stats.Truncated) or delivery was cut by the stream context ending
	// mid-stream.
	Truncated bool
	// Cached reports the stream was replayed from the engine result cache
	// rather than generated live.
	Cached bool
	// Answers is how many answers were actually delivered on the channel.
	Answers int
	// Degraded reports that the context ended while an answer was waiting
	// to be delivered (live or replayed); answers after that point were
	// not delivered live.
	Degraded bool
}

// Stream is one in-progress streaming search. The consumer ranges over
// Answers until the channel closes, then reads the Trailer. Abandoning a
// stream requires cancelling the context passed to SearchStream —
// walking away without draining blocks the producer (backpressure blocks
// generation) and leaks its goroutine until the context ends.
type Stream struct {
	ch      chan core.EmittedAnswer
	done    chan struct{}
	trailer StreamTrailer
	err     error
}

// Answers is the ordered answer channel. It is closed when the search
// ends — normally, by deadline, or by error.
func (s *Stream) Answers() <-chan core.EmittedAnswer { return s.ch }

// Trailer blocks until the stream has ended (Answers is closed) and
// returns its summary. A non-nil error means the search failed after
// launch; SearchStream validates everything it can synchronously, so
// this is defensive, not expected.
func (s *Stream) Trailer() (StreamTrailer, error) {
	<-s.done
	return s.trailer, s.err
}

// finish publishes the trailer and closes the stream. Order matters: the
// trailer must be in place before the channel closes, because consumers
// call Trailer the moment the range loop ends.
func (s *Stream) finish(tr StreamTrailer, err error) {
	s.trailer, s.err = tr, err
	close(s.ch)
	close(s.done)
}

// SearchStream runs one query with incremental answer delivery: answers
// appear on the returned Stream the moment the core output heap releases
// them (the paper's §5.2 output event), rather than all at once when the
// search finishes. The streamed sequence is bit-identical in content and
// order to what Search would return for the same query — streaming
// changes when the caller hears about answers, never which answers.
//
// Invalid queries (no keywords, unknown algorithm, bad options) fail
// synchronously with the same typed errors as Search, before the stream
// exists. Like Search, the call blocks while all pool workers are busy;
// the pool slot is held for the duration of the search — under blocking
// backpressure that includes time spent waiting on a slow consumer,
// which is why serving layers put per-tenant quotas in front of streams.
//
// A cache hit replays the cached result as a stream (trailer.Cached):
// per-answer OutputAt offsets are the originating run's. A live search
// that completes untruncated populates the cache exactly as Search does.
// On deadline expiry mid-stream the stream ends cleanly: the answers
// delivered are a valid partial top-k prefix and the trailer carries
// Truncated plus the search's stats.
//
// q.Opts.Emit is the seam this API is built on: SearchStream owns it and
// replaces any caller-supplied callback (callers that want raw emissions
// use Search with Opts.Emit directly, forgoing the cache).
func (e *Engine) SearchStream(ctx context.Context, q Query, so StreamOptions) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	terms := normalizeTerms(q.Terms)
	if len(terms) == 0 {
		return nil, errors.New("engine: query contains no keywords")
	}
	if len(terms) > core.MaxKeywords {
		return nil, fmt.Errorf("engine: %d keywords exceeds maximum %d", len(terms), core.MaxKeywords)
	}
	if !knownAlgo(q.Algo) {
		return nil, fmt.Errorf("engine: unknown algorithm %q", q.Algo)
	}
	if err := q.Opts.Validate(); err != nil {
		return nil, err
	}
	e.searches.Add(1)

	buf := so.Buffer
	switch {
	case buf == 0:
		buf = DefaultStreamBuffer
	case buf < 0:
		buf = 0
	}
	st := &Stream{ch: make(chan core.EmittedAnswer, buf), done: make(chan struct{})}

	// Pre-slot cache probe against the current source; same generation +
	// delta-version keying discipline as Search.
	src := e.src.Load()
	key, cacheable := cacheKey{}, false
	if e.cache != nil {
		if key, cacheable = newCacheKey(src, terms, q.Algo, q.Opts); cacheable {
			if res, ok := e.cache.get(key); ok {
				e.hits.Add(1)
				go st.replay(ctx, res)
				return st, nil
			}
			e.misses.Add(1)
		}
	}

	// Same deadline discipline as Search: the engine default covers queue
	// time too, so a saturated pool cannot hold stream callers forever.
	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if e.timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, e.timeout)
	}
	select {
	case e.sem <- struct{}{}:
	case <-runCtx.Done():
		err := runCtx.Err()
		cancel()
		e.errored.Add(1)
		return nil, err
	}

	// Re-resolve the source under the slot, as Search does: the slot is
	// what Swap + Quiesce synchronizes on.
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

	go e.runStream(runCtx, cancel, st, src, q, kw, key, cacheable)
	return st, nil
}

// knownAlgo reports whether the algorithm is one core.Search dispatches
// on — checked up front so SearchStream fails synchronously.
func knownAlgo(a core.Algo) bool {
	for _, algo := range core.Algos() {
		if a == algo {
			return true
		}
	}
	return false
}

// runStream executes the search on its own goroutine, feeding the stream
// through the core Emit seam.
func (e *Engine) runStream(ctx context.Context, cancel context.CancelFunc, st *Stream,
	src *Source, q Query, kw [][]graph.NodeID, key cacheKey, cacheable bool) {
	defer cancel()

	// sent and degraded are touched only by the Emit callback, on this
	// goroutine.
	sent, degraded := 0, false
	opts := q.Opts
	opts.Emit = func(ev core.EmittedAnswer) {
		if degraded {
			return
		}
		select {
		case st.ch <- ev:
			sent++
		case <-ctx.Done():
			// The deadline (or the caller) ended the stream while the
			// consumer was not taking answers; stop live delivery. The
			// search itself notices the same context at its next
			// cancellation check and truncates.
			degraded = true
		}
	}

	res, err := core.Search(ctx, src.graph, q.Algo, kw, opts)
	<-e.sem

	if err != nil {
		// Unreachable in practice — SearchStream validated the query —
		// but a defensive error still closes the stream properly. The
		// trailer stays honest about what was already delivered: the
		// streamed prefix is real, just not the complete top-k.
		e.errored.Add(1)
		st.finish(StreamTrailer{Answers: sent, Truncated: true}, err)
		return
	}

	if res.Stats.Truncated {
		e.truncated.Add(1)
	}
	// The cache policy matches Search: complete results only. A delivery
	// cut does not poison the result — the search itself was complete.
	if cacheable && !res.Stats.Truncated {
		e.cache.put(key, res)
	}
	// Every answer in res.Answers passed through Emit, so a degraded
	// stream delivered only a prefix of them.
	st.finish(StreamTrailer{
		Stats:     res.Stats,
		Truncated: res.Stats.Truncated || degraded,
		Answers:   sent,
		Degraded:  degraded,
	}, nil)
}

// replay feeds a cached result through the stream interface: same
// channel discipline, same trailer, Cached set. OutputAt offsets are the
// originating run's — a replay is a recording, not a re-search.
func (st *Stream) replay(ctx context.Context, res *core.Result) {
	sent, cut := 0, false
	for i := 0; i < len(res.Answers) && !cut; i++ {
		a := res.Answers[i]
		select {
		case st.ch <- core.EmittedAnswer{Answer: a, Rank: i + 1, OutputAt: a.OutputAt, Generated: res.Stats.AnswersGenerated}:
			sent++
		case <-ctx.Done():
			cut = true
		}
	}
	st.finish(StreamTrailer{
		Stats:     res.Stats,
		Truncated: res.Stats.Truncated || cut,
		Cached:    true,
		Degraded:  cut,
		Answers:   sent,
	}, nil)
}
