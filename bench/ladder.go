package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"banks"
	"banks/internal/convert"
	"banks/internal/core"
	"banks/internal/delta"
	"banks/internal/engine"
	"banks/internal/graph"
	"banks/internal/prestige"
	"banks/internal/shard"
	"banks/internal/store"
	"banks/internal/wal"
)

// The layer ladder. Server → engine → core → index are concrete calls the
// harness cannot interpose on, so it climbs instead: the same ops are
// replayed serially at each public entry point, and a layer's self time
// is its rung minus the rung below, per op, reported as the median over
// ops. Rungs that do core work are compared on the miss path; the chassis
// rungs above the engine (engine hit, handler, loopback) are compared on
// the cache-hit path, where core does nothing and sub-millisecond
// differences are resolvable.

// layers accumulates per-layer metrics by name.
type layers struct {
	values  map[string]float64
	clamped int
}

func newLayers() *layers { return &layers{values: make(map[string]float64)} }

func (l *layers) set(name string, v float64) { l.values[name] = v }

func (l *layers) self(name string, upper, lower []time.Duration) {
	d, c := ladderSelf(upper, lower)
	l.clamped += c
	l.set(name, ms(d))
}

// hitReps is how often a hit-path op is repeated per rung: the mean of
// many calls is needed to resolve microseconds. Miss-path ops run once per
// rung; they cost a hundred milliseconds each and their rungs differ by
// less than their noise whatever the repetition count.
const hitReps = 50

func mean(reps int, f func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(reps), nil
}

// postings counts the index postings a query resolved to.
func postings(kw [][]graph.NodeID) int {
	n := 0
	for _, k := range kw {
		n += len(k)
	}
	return n
}

func sumDur(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

func medianDur(ds []time.Duration) time.Duration {
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// setupLadder times the build path layer by layer and returns the built
// database for the other ladders.
func setupLadder(l *layers, in *inputs, dir string) (*banks.DB, error) {
	t := time.Now()
	ds, err := generateDataset(in.seed, in.sz.factor)
	if err != nil {
		return nil, err
	}
	l.set("datagen.gen_s", time.Since(t).Seconds())

	t = time.Now()
	built, err := convert.Build(ds.DB, convert.Options{})
	if err != nil {
		return nil, err
	}
	l.set("convert.build_s", time.Since(t).Seconds())

	t = time.Now()
	p, err := prestige.Compute(built.Graph, prestige.Options{})
	if err != nil {
		return nil, err
	}
	l.set("prestige.build_s", time.Since(t).Seconds())
	if err := built.Graph.SetPrestige(p); err != nil {
		return nil, err
	}

	snap := filepath.Join(dir, "ladder.snap")
	t = time.Now()
	size, err := store.WriteFile(snap, built.Graph, built.Index, built.Mapping, built.EdgeTypes)
	if err != nil {
		return nil, err
	}
	l.set("store.write_s", time.Since(t).Seconds())
	l.set("store.snapshot_bytes_per_node", float64(size)/float64(built.Graph.NumNodes()))

	t = time.Now()
	s, err := store.Open(snap, store.Options{})
	if err != nil {
		return nil, err
	}
	l.set("store.open_ms", ms(time.Since(t)))
	s.Close()

	t = time.Now()
	a, err := shard.Partition(built.Graph, numShards)
	if err != nil {
		return nil, err
	}
	l.set("shard.partition_s", time.Since(t).Seconds())
	owned := make([]int, numShards)
	for _, sh := range a.Shard {
		owned[sh]++
	}
	largest := 0
	for _, n := range owned {
		largest = max(largest, n)
	}
	l.set("shard.size_skew", float64(largest)*numShards/float64(len(a.Shard)))

	return &banks.DB{Graph: built.Graph, Index: built.Index, Mapping: built.Mapping,
		EdgeTypes: built.EdgeTypes, Source: ds.DB}, nil
}

var searchOpts = banks.Options{K: searchK, MaxNodes: searchMaxNodes}

// readLadder climbs index → core → engine → handler → loopback → router.
func readLadder(l *layers, in *inputs, db *banks.DB, dir string, tr *tracer) error {
	ops := in.ladder
	ctx := context.Background()
	n := len(ops)

	// Rung: index lookups.
	lookup := make([]time.Duration, n)
	posts := make([]float64, n)
	for i, op := range ops {
		d, _ := mean(hitReps*4, func() error {
			for _, t := range op.Terms {
				db.Index.Lookup(t)
			}
			return nil
		})
		lookup[i] = d
		posts[i] = float64(postings(op.Keywords))
	}
	l.set("index.lookup_us", float64(medianDur(lookup))/float64(time.Microsecond))
	l.set("index.postings_per_query", median(posts))

	// Rung: core.Search on pre-resolved node sets.
	coreT := make([]time.Duration, n)
	byAlgo := map[banks.Algorithm][]float64{}
	var explored, touched, relaxed, outRatio, genToOut, nsPerNode, allocs, bytesAlloc []float64
	for i, op := range ops {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		res, err := core.Search(ctx, db.Graph, op.Algo, op.Keywords, searchOpts)
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("core rung: %w", err)
		}
		runtime.ReadMemStats(&m1)
		coreT[i] = d
		byAlgo[op.Algo] = append(byAlgo[op.Algo], ms(d))
		st := res.Stats
		explored = append(explored, float64(st.NodesExplored))
		touched = append(touched, float64(st.NodesTouched))
		relaxed = append(relaxed, float64(st.EdgesRelaxed))
		if st.AnswersGenerated > 0 {
			outRatio = append(outRatio, float64(len(res.Answers))/float64(st.AnswersGenerated))
		}
		genToOut = append(genToOut, ms(st.LastOutput-st.LastGenerated))
		if st.NodesExplored > 0 {
			nsPerNode = append(nsPerNode, float64(d)/float64(st.NodesExplored))
		}
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytesAlloc = append(bytesAlloc, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	l.set("core.bidir_ms", median(byAlgo[banks.Bidirectional]))
	l.set("core.si_ms", median(byAlgo[banks.SIBackward]))
	l.set("core.mi_ms", median(byAlgo[banks.MIBackward]))
	l.set("core.nodes_explored_per_query", median(explored))
	l.set("core.nodes_touched_per_query", median(touched))
	l.set("core.edges_relaxed_per_query", median(relaxed))
	l.set("core.output_ratio", median(outRatio))
	l.set("core.gen_to_output_ms", median(genToOut))
	l.set("core.ns_per_node_explored", median(nsPerNode))
	l.set("core.allocs_per_query", median(allocs))
	l.set("core.bytes_per_query", median(bytesAlloc))

	// Rung: engine.Search, cache off. Its self time is what it adds over
	// the index lookups and the core search it wraps.
	cold, err := openLibrary(db, -1)
	if err != nil {
		return err
	}
	engT := make([]time.Duration, n)
	below := make([]time.Duration, n)
	for i, op := range ops {
		t := time.Now()
		if _, err := cold.eng.Search(ctx, op.query(), op.Algo, searchOpts); err != nil {
			return fmt.Errorf("engine rung: %w", err)
		}
		engT[i] = time.Since(t)
		below[i] = coreT[i] + lookup[i]
	}
	l.self("engine.self_ms", engT, below)
	// How far the rungs are from adding up to the single-client latency,
	// over the whole sample (sums add across unlike ops; medians do not).
	l.set("bench.read_ladder_gap_frac", gap(sumDur(engT),
		sumDur(below)+time.Duration(n)*time.Duration(l.values["engine.self_ms"]*float64(time.Millisecond))))

	// Hit-path rungs share one server whose engine cache is on.
	snap := filepath.Join(dir, "ladder.snap")
	hot, err := startSingle(snap, singleOptions{}, nil)
	if err != nil {
		return err
	}
	defer hot.close()
	hitT, handlerT, loopT := make([]time.Duration, n), make([]time.Duration, n), make([]time.Duration, n)
	var respBytes []float64
	for i, op := range ops {
		if _, err := hot.eng.Search(ctx, op.query(), op.Algo, searchOpts); err != nil { // populate
			return err
		}
		hitT[i], err = mean(hitReps, func() error {
			_, err := hot.eng.Search(ctx, op.query(), op.Algo, searchOpts)
			return err
		})
		if err != nil {
			return err
		}
		handler := hot.srv.Handler()
		handlerT[i], err = mean(hitReps, func() error {
			req, err := newSearchRequest("http://ladder", op, traceInfo{})
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler rung: HTTP %d", rec.Code)
			}
			return nil
		})
		if err != nil {
			return err
		}
		size := 0
		loopT[i], err = mean(hitReps, func() error {
			r, _, err := httpSearch(hot.node.url, op, traceInfo{})
			size = r.bytes
			return err
		})
		if err != nil {
			return err
		}
		respBytes = append(respBytes, float64(size))
	}
	l.set("engine.hit_us", float64(medianDur(hitT))/float64(time.Microsecond))
	l.self("server.self_ms", handlerT, hitT)
	l.self("server.http_self_ms", loopT, handlerT)
	l.set("server.resp_bytes_per_query", median(respBytes))

	// Router rungs: the Bidirectional ops through one cache-off server,
	// then through the router over the sharded copy of the same data.
	var routedOps []searchOp
	for _, op := range ops {
		if op.Algo == banks.Bidirectional {
			routedOps = append(routedOps, op)
		}
	}
	direct, err := startSingle(snap, singleOptions{cacheSize: -1}, nil)
	if err != nil {
		return err
	}
	defer direct.close()
	rd, err := startRouted(db, dir, tr)
	if err != nil {
		return err
	}
	defer rd.close()
	var directT, routedT, firstT []time.Duration
	agree := 0
	for _, op := range routedOps {
		r, lat, err := httpSearch(direct.node.url, op, traceInfo{})
		if err != nil {
			return fmt.Errorf("direct rung: %w", err)
		}
		directT = append(directT, lat)
		s := traced(tr, time.Now(), "ladder.routed", func(ti traceInfo) sample {
			r, lat, err := httpSearch(rd.node.url, op, ti)
			return sample{lat: lat, digest: r.digest, err: err}
		})
		if s.err != nil {
			return fmt.Errorf("router rung: %w", s.err)
		}
		routedT = append(routedT, s.lat)
		if s.digest == r.digest {
			agree++
		}
		op.Stream = true
		if r, _, err = httpSearch(rd.node.url, op, traceInfo{}); err != nil {
			return fmt.Errorf("router stream rung: %w", err)
		}
		firstT = append(firstT, r.firstAnswer)
	}
	// Share of ops whose routed answers are byte-equal to the unsharded
	// server's. Below 1 where the unsharded engine releases answers out of
	// score order or its k-th answer loses to another shard's.
	l.set("router.unsharded_agreement", float64(agree)/float64(len(routedOps)))
	l.set("router.overhead_ratio", float64(medianDur(routedT))/float64(medianDur(directT)))
	l.set("router.first_answer_ms", ms(medianDur(firstT)))
	routerSpans(l, tr.snapshot())
	return nil
}

func gap(whole, sum time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	d := float64(whole-sum) / float64(whole)
	if d < 0 {
		d = -d
	}
	return d
}

// routerSpans derives the router's own share from the spans of the
// router rung: what the router handler spent outside its shard calls,
// how long the slowest call took, and how far apart the shards finished.
func routerSpans(l *layers, spans []span) {
	tree := buildSpanTree(spans)
	var self, wait, skew []float64
	for _, s := range named(spans, "router") {
		if s.Name != "router" {
			continue
		}
		calls := tree.children[s.ID]
		if len(calls) == 0 {
			continue
		}
		d, _ := tree.selfTime(s.ID)
		slowest, fastest := calls[0].dur(), calls[0].dur()
		for _, c := range calls[1:] {
			slowest, fastest = max(slowest, c.dur()), min(fastest, c.dur())
		}
		self = append(self, ms(d))
		wait = append(wait, ms(slowest))
		skew = append(skew, ms(slowest-fastest))
	}
	l.set("router.self_ms", median(self))
	l.set("router.shard_wait_ms", median(wait))
	l.set("router.shard_skew_ms", median(skew))
}

// writeLadder climbs prestige → View.Apply → Manager.Apply → WAL append →
// Live.Apply → POST /v1/mutate with the same batches at every rung, then
// times a compaction under a reader, follower visibility, and a cold
// recovery from the files on disk.
func writeLadder(l *layers, in *inputs, db *banks.DB, dir string, tr *tracer) error {
	batches := in.batches[:min(in.sz.ladderBatches, len(in.batches)/2)]
	n := len(batches)

	// Rungs: View.Apply, and the prestige recompute it contains.
	view := delta.NewView(db.Graph, db.Index, 0, delta.PrestigeRandomWalk, prestige.Options{})
	prestigeT, viewT := make([]time.Duration, n), make([]time.Duration, n)
	for i, b := range batches {
		t := time.Now()
		nv, _, err := view.Apply(b)
		if err != nil {
			return fmt.Errorf("view rung, batch %d: %w", i, err)
		}
		viewT[i] = time.Since(t)
		t = time.Now()
		if _, err := prestige.Compute(nv, prestige.Options{}); err != nil {
			return err
		}
		prestigeT[i] = time.Since(t)
		view = nv
	}
	l.set("prestige.compute_ms", ms(medianDur(prestigeT)))
	l.self("delta.overlay_self_ms", viewT, prestigeT)

	// Rung: Manager.Apply without a log (validate + rebuild + swap).
	eng, err := engine.New(db.Graph, db.Index, engine.Options{})
	if err != nil {
		return err
	}
	mgr, err := delta.NewManager(delta.Config{Engine: eng, Graph: db.Graph, Index: db.Index,
		Mapping: db.Mapping, EdgeTypes: db.EdgeTypes})
	if err != nil {
		return err
	}
	mgrT := make([]time.Duration, n)
	for i, b := range batches {
		t := time.Now()
		if _, err := mgr.Apply(b); err != nil {
			return fmt.Errorf("manager rung, batch %d: %w", i, err)
		}
		mgrT[i] = time.Since(t)
	}
	l.self("delta.swap_self_ms", mgrT, viewT)

	// Rungs: wal.Log.Append on scratch logs, without and with fsync.
	appendT := map[wal.Policy][]time.Duration{}
	for _, policy := range []wal.Policy{wal.PolicyNever, wal.PolicyAlways} {
		log, _, err := wal.Open(filepath.Join(dir, "scratch-"+string(policy)+".wal"), wal.Options{Policy: policy})
		if err != nil {
			return err
		}
		size0 := log.Size()
		for i, b := range batches {
			t := time.Now()
			if _, err := log.Append(0, uint64(i+1), b); err != nil {
				log.Close()
				return err
			}
			appendT[policy] = append(appendT[policy], time.Since(t))
		}
		if policy == wal.PolicyAlways {
			st := log.Stats()
			l.set("wal.bytes_per_op", float64(log.Size()-size0)/float64(n*batchOps))
			l.set("wal.fsyncs_per_batch", float64(st.Syncs)/float64(n))
		}
		if err := log.Close(); err != nil {
			return err
		}
	}
	l.set("wal.append_nosync_ms", ms(medianDur(appendT[wal.PolicyNever])))
	l.self("wal.fsync_self_ms", appendT[wal.PolicyAlways], appendT[wal.PolicyNever])

	// Rung: banks.Live.Apply with a real log, fsync=always.
	snap := filepath.Join(dir, "ladder.snap")
	liveNode, err := startSingle(snap, singleOptions{
		live: &banks.LiveOptions{WALPath: filepath.Join(dir, "live-rung.wal"), WALFsync: banks.WALFsyncAlways},
	}, nil)
	if err != nil {
		return err
	}
	liveT := make([]time.Duration, n)
	for i, b := range batches {
		t := time.Now()
		if _, err := liveNode.live.Apply(b); err != nil {
			liveNode.close()
			return fmt.Errorf("live rung, batch %d: %w", i, err)
		}
		liveT[i] = time.Since(t)
	}
	liveNode.close()

	// Rung: POST /v1/mutate to a primary with a follower tailing it. The
	// visibility poller is the only span source here.
	rp, err := startReplicated(db, filepath.Join(dir, "ladder-repl"), tr)
	if err != nil {
		return err
	}
	defer rp.close()
	primary := rp.primary.node.url
	ackT, visibleT := make([]time.Duration, n), make([]time.Duration, n)
	shipped0 := rp.follower.follower.Stats()
	postBatch := func(i int) (time.Duration, time.Duration, error) {
		var visible time.Duration
		s := traced(tr, time.Now(), "ladder.mutate", func(ti traceInfo) sample {
			ack, lat, err := httpMutate(primary, encodeBatch(in.batches[i]), ti)
			if err != nil {
				return sample{err: err}
			}
			acked := time.Now()
			_, end := tr.begin("follower.visible", ti.request, ti.span)
			err = waitFor(10*time.Second, func() (bool, error) {
				return rp.follower.follower.Stats().WALOffset >= ack.WALOffset, nil
			})
			end()
			visible = time.Since(acked)
			return sample{lat: lat, err: err}
		})
		return s.lat, visible, s.err
	}
	for i := range batches {
		if ackT[i], visibleT[i], err = postBatch(i); err != nil {
			return fmt.Errorf("http rung, batch %d: %w", i, err)
		}
	}
	// The follower books a chunk's bytes after applying it, a moment after
	// the offset the poller watches has moved.
	var shipped int64
	err = waitFor(10*time.Second, func() (bool, error) {
		st := rp.follower.follower.Stats()
		shipped = st.BytesApplied - shipped0.BytesApplied
		return st.RecordsApplied >= shipped0.RecordsApplied+uint64(n), nil
	})
	if err != nil {
		return fmt.Errorf("follower never booked the shipped records: %w", err)
	}
	l.set("repl.bytes_shipped_per_op", float64(shipped)/float64(n*batchOps))
	l.set("mutate.ack_single_ms", ms(medianDur(ackT)))
	l.self("server.mutate_self_ms", ackT, liveT)
	l.set("repl.visible_ms", ms(medianDur(visibleT)))
	// The follower applies a record the way Live.Apply does; the rest of
	// the visibility delay is shipping.
	l.self("repl.ship_ms", visibleT, liveT)
	sum := 0.0
	for _, name := range []string{"server.mutate_self_ms", "wal.append_nosync_ms", "wal.fsync_self_ms",
		"delta.overlay_self_ms", "prestige.compute_ms", "delta.swap_self_ms"} {
		sum += l.values[name]
	}
	l.set("bench.write_ladder_gap_frac", gap(medianDur(ackT), time.Duration(sum*float64(time.Millisecond))))

	// Compaction under a reader that keeps hitting the primary's cache:
	// the stall is how much worse the reader's slowest request inside the
	// compaction window was than its median.
	probe := in.reader[0]
	if _, _, err := httpSearch(primary, probe, traceInfo{}); err != nil {
		return err
	}
	var mu sync.Mutex
	type timed struct{ at, lat time.Duration }
	var reads []timed
	origin := time.Now()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			at := time.Since(origin)
			_, lat, err := httpSearch(primary, probe, traceInfo{})
			if err == nil {
				mu.Lock()
				reads = append(reads, timed{at, lat})
				mu.Unlock()
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the reader establish its median
	from := time.Since(origin)
	_, compactT, err := post(primary+"/v1/compact", nil, traceInfo{})
	to := time.Since(origin)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-done
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	var all []float64
	var inside time.Duration
	for _, r := range reads {
		all = append(all, ms(r.lat))
		if r.at+r.lat >= from && r.at <= to {
			inside = max(inside, r.lat)
		}
	}
	l.set("delta.compact_s", compactT.Seconds())
	l.set("delta.compact_stall_ms", max(ms(inside)-median(all), 0))

	// More batches after the compaction, so recovery has records to
	// replay; then a cold open of the copied files.
	after := max(n/2, 1)
	for i := n; i < n+after; i++ {
		if _, _, err := postBatch(i); err != nil {
			return fmt.Errorf("post-compaction batch %d: %w", i, err)
		}
	}
	rec, err := recoverCopy(rp.snapshot, filepath.Join(dir, "ladder-recover"))
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer rec.close()
	if rec.replayed != after {
		return fmt.Errorf("recovery replayed %d records, want %d", rec.replayed, after)
	}
	l.set("live.recover_s", rec.took.Seconds())
	l.set("delta.replay_ms_per_record", ms(rec.took)/float64(rec.replayed))
	return nil
}
