package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"banks/internal/core"
)

// drainStream collects a whole stream and its trailer.
func drainStream(t *testing.T, st *Stream) ([]core.EmittedAnswer, StreamTrailer) {
	t.Helper()
	var evs []core.EmittedAnswer
	for ev := range st.Answers() {
		evs = append(evs, ev)
	}
	tr, err := st.Trailer()
	if err != nil {
		t.Fatalf("trailer error: %v", err)
	}
	return evs, tr
}

// TestSearchStreamMatchesSearch is the engine-level equivalence proof:
// the streamed sequence equals the batch result of the same query, event
// metadata included.
func TestSearchStreamMatchesSearch(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range core.Algos() {
		q := Query{Terms: []string{"alpha", "omega"}, Algo: algo, Opts: core.Options{K: 4}}
		batch, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.SearchStream(context.Background(), q, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		evs, tr := drainStream(t, st)
		if len(evs) != len(batch.Answers) {
			t.Fatalf("%s: %d streamed answers, batch has %d", algo, len(evs), len(batch.Answers))
		}
		for i, ev := range evs {
			if ev.Rank != i+1 {
				t.Fatalf("%s: event %d has rank %d", algo, i, ev.Rank)
			}
			if ev.Answer.Root != batch.Answers[i].Root || ev.Answer.Score != batch.Answers[i].Score {
				t.Fatalf("%s: event %d answer diverged from batch", algo, i)
			}
		}
		if tr.Truncated || tr.Cached || tr.Degraded {
			t.Fatalf("%s: unexpected trailer flags %+v", algo, tr)
		}
		if tr.Answers != len(evs) {
			t.Fatalf("%s: trailer reports %d answers, delivered %d", algo, tr.Answers, len(evs))
		}
		if tr.Stats.AnswersGenerated != batch.Stats.AnswersGenerated {
			t.Fatalf("%s: trailer stats diverged from batch", algo)
		}
	}
}

// TestSearchStreamValidatesSynchronously pins the fail-fast contract: bad
// queries error before any stream exists, with the same typed errors as
// Search.
func TestSearchStreamValidatesSynchronously(t *testing.T) {
	g, ix := testGraph(t, 8)
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SearchStream(nil, Query{Terms: nil, Algo: core.AlgoBidirectional}, StreamOptions{}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := e.SearchStream(nil, Query{Terms: []string{"alpha"}, Algo: "nope"}, StreamOptions{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	var oe *core.OptionsError
	_, err = e.SearchStream(nil, Query{Terms: []string{"alpha"}, Algo: core.AlgoBidirectional,
		Opts: core.Options{K: -1}}, StreamOptions{})
	if !errors.As(err, &oe) || oe.Field != "K" {
		t.Fatalf("want *core.OptionsError on K, got %v", err)
	}
}

// TestSearchStreamCacheReplay pins the cache interaction: the first
// stream populates the cache, the second replays it (Cached trailer,
// identical answers, recorded offsets).
func TestSearchStreamCacheReplay(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "mid"}, Algo: core.AlgoBidirectional, Opts: core.Options{K: 3}}
	st1, err := e.SearchStream(context.Background(), q, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs1, tr1 := drainStream(t, st1)
	if tr1.Cached {
		t.Fatal("first stream claims to be cached")
	}
	st2, err := e.SearchStream(context.Background(), q, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs2, tr2 := drainStream(t, st2)
	if !tr2.Cached {
		t.Fatal("second stream was not served from cache")
	}
	if len(evs1) == 0 || len(evs2) != len(evs1) {
		t.Fatalf("replay delivered %d answers, original %d", len(evs2), len(evs1))
	}
	for i := range evs2 {
		if evs2[i].Answer != evs1[i].Answer {
			t.Fatalf("replay answer %d is not the cached object", i)
		}
		if evs2[i].OutputAt != evs1[i].Answer.OutputAt {
			t.Fatalf("replay answer %d lost its recorded OutputAt", i)
		}
	}
	// The batch path shares the same cache entry.
	if hits, _ := e.CacheStats(); hits == 0 {
		t.Fatal("no cache hit recorded")
	}
}

// TestSearchStreamDropToBatch exercises the degraded path
// deterministically: an unbuffered channel and a consumer that refuses to
// read until the search finishes force the first emission to trip the
// policy; every answer must still arrive, in order.
func TestSearchStreamDropToBatch(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional, Opts: core.Options{K: 4}}
	batch, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.SearchStream(context.Background(), q, StreamOptions{Buffer: -1, DropToBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	// Hold off reading until the search has finished: the engine releases
	// its pool slot right after the core search returns (before tail
	// delivery), so InFlight()==0 means every live emission already ran —
	// and with no receiver ever ready on the unbuffered channel, each
	// non-blocking send must have failed, tripping the policy. Everything
	// then arrives as the post-search tail.
	deadline := time.Now().Add(10 * time.Second)
	for e.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("search never finished")
		}
		time.Sleep(time.Millisecond)
	}
	evs, tr := drainStream(t, st)
	if !tr.Degraded {
		t.Fatal("unread unbuffered stream did not degrade")
	}
	if len(evs) != len(batch.Answers) {
		t.Fatalf("degraded stream delivered %d answers, batch has %d", len(evs), len(batch.Answers))
	}
	for i, ev := range evs {
		if ev.Rank != i+1 || ev.Answer.Root != batch.Answers[i].Root {
			t.Fatalf("degraded stream out of order at %d", i)
		}
	}
}

// TestSearchStreamAbandonedConsumer proves an abandoned stream does not
// leak: cancelling the context releases the producer even though nobody
// drains the channel, and the trailer reports a truncated delivery.
func TestSearchStreamAbandonedConsumer(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	st, err := e.SearchStream(ctx, Query{Terms: []string{"alpha", "omega"},
		Algo: core.AlgoBidirectional, Opts: core.Options{K: 4}}, StreamOptions{Buffer: -1})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // walk away without reading
	done := make(chan struct{})
	go func() {
		st.Trailer()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("producer did not shut down after context cancellation")
	}
	// The engine pool must be fully free again (no leaked slots).
	qctx, qcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer qcancel()
	if err := e.Quiesce(qctx); err != nil {
		t.Fatalf("engine did not quiesce after abandoned stream: %v", err)
	}
}

// TestSearchStreamDeadlineTrailer pins mid-stream deadline semantics: an
// already-expired context yields a clean stream that ends immediately
// with a Truncated trailer (the prefix property — possibly empty — of
// the core contract).
func TestSearchStreamDeadlineTrailer(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	st, err := e.SearchStream(ctx, Query{Terms: []string{"alpha", "omega"},
		Algo: core.AlgoBidirectional, Opts: core.Options{K: 4}}, StreamOptions{})
	if err != nil {
		// Also acceptable: the expired deadline surfaces while waiting
		// for a pool slot, exactly as Search behaves.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	evs, tr := drainStream(t, st)
	if !tr.Truncated {
		t.Fatalf("expired-deadline stream not truncated (delivered %d)", len(evs))
	}
}
