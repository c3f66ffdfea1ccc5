package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"banks/internal/core"
	"banks/internal/graph"
	"banks/internal/index"
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

// TestSearchStreamDegradedTrailer pins the trailer of a live delivery cut:
// the consumer takes one answer and cancels while a second one is waiting
// to be delivered, so the trailer reports exactly one answer, Degraded and
// Truncated.
func TestSearchStreamDegradedTrailer(t *testing.T) {
	// A star: roots 2..7 each point at node 0 ("alpha") and node 1
	// ("omega"), so six equal-scoring answers exist.
	b := graph.NewBuilder()
	b.AddNodes("row", 8)
	for r := graph.NodeID(2); r < 8; r++ {
		for _, kw := range []graph.NodeID{0, 1} {
			if err := b.AddEdge(r, kw, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	if err := g.SetPrestige([]float64{1, 1, 1, 1, 1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	ix := index.New()
	ix.AddText(0, "alpha")
	ix.AddText(1, "omega")
	ix.Freeze(g)
	e, err := New(g, ix, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// StrictBound buffers generated answers in the output heap, and the
	// search releases every buffered answer by its final flush even when
	// cancelled: an answer generated before the first release is one the
	// producer must still try to deliver.
	st, err := e.SearchStream(ctx, Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional,
		Opts: core.Options{K: 4, StrictBound: true}}, StreamOptions{Buffer: -1})
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := <-st.Answers()
	if !ok {
		t.Fatal("stream closed before its first answer")
	}
	if ev.Generated <= ev.Rank {
		t.Fatalf("first answer released with %d generated: no second answer is waiting", ev.Generated)
	}
	cancel()
	tr, err := st.Trailer()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Degraded || !tr.Truncated || tr.Answers != 1 {
		t.Fatalf("trailer %+v, want Degraded, Truncated and 1 answer", tr)
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
