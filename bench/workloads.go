package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"banks"
	"banks/internal/workload"
)

// The four workloads. Each names the deployment it needs, the closed
// loop its clients run, and the correctness gates checked after the
// clock stops. All loops are closed: a client sends its next request
// only after the previous reply, because callers of a search service
// wait for answers; an open-loop rate ladder needs these numbers first.
var workloadNames = []string{"lib_mix", "serve_hot", "route_scatter", "mutate_mixed"}

// sample is one client-observed operation.
type sample struct {
	mutate bool // a /v1/mutate ack; otherwise a search
	op     int  // index into the workload's op list
	lat    time.Duration
	traced bool
	digest string
	err    error
}

// check is one correctness gate.
type check struct {
	name string
	ok   bool
	note string
}

// outcome is what a measured window produced.
type outcome struct {
	samples  []sample
	wall     time.Duration
	checks   []check
	counters map[string]float64 // run-derived per-layer counters (traced runs)
	info     []string           // human-readable notes for stderr
}

func newOutcome() *outcome { return &outcome{counters: map[string]float64{}} }

func (o *outcome) gate(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// deployment is a stood-up system plus the workload that drives it.
type deployment interface {
	// warm is the untimed-by-the-run warm pass; it is part of set-up.
	warm() error
	// run drives the closed loop for dur and returns what clients saw.
	run(dur time.Duration, tr *tracer) *outcome
	// verify applies the workload's correctness gates to a finished run.
	verify(o *outcome)
	close()
}

// deploy stands a workload's deployment up from nothing but the seed:
// datagen, Build, snapshot or shard files, servers, warm pass. Its wall
// time is set-up time.
func deploy(name string, in *inputs, dir string, tr *tracer) (deployment, error) {
	ds, err := generateDataset(in.seed, in.sz.factor)
	if err != nil {
		return nil, err
	}
	db, err := banks.Build(ds.DB, banks.BuildOptions{})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var d deployment
	switch name {
	case "lib_mix":
		lib, err := openLibrary(db, -1)
		if err != nil {
			return nil, err
		}
		d = &libMix{in: in, lib: lib}
	case "serve_hot":
		snap := filepath.Join(dir, "hot.snap")
		if err := db.WriteSnapshotFile(snap); err != nil {
			return nil, err
		}
		s, err := startSingle(snap, singleOptions{spanName: "server"}, tr)
		if err != nil {
			return nil, err
		}
		d = &serveHot{in: in, ref: db, s: s}
	case "route_scatter":
		r, err := startRouted(db, dir, tr)
		if err != nil {
			return nil, err
		}
		d = &routeScatter{in: in, r: r}
	case "mutate_mixed":
		r, err := startReplicated(db, dir, tr)
		if err != nil {
			return nil, err
		}
		d = &mutateMixed{in: in, r: r, dir: dir}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err := d.warm(); err != nil {
		d.close()
		return nil, fmt.Errorf("warm pass: %w", err)
	}
	return d, nil
}

// closedLoop runs n client goroutines until the deadline. Client c takes
// sequence numbers c, c+n, c+2n, …; do maps a sequence number to one
// operation. An operation begun before the deadline is allowed to finish,
// and the returned wall time covers it.
func closedLoop(n int, dur time.Duration, tr *tracer, do func(seq int, ti traceInfo) sample) ([]sample, time.Duration) {
	per := make([][]sample, n)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := c; ; seq += n {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				per[c] = append(per[c], traced(tr, now, "client", func(ti traceInfo) sample { return do(seq, ti) }))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// tracedPrefix shortens an op list for a traced run to a tenth, so that
// the half-length window executes every op several times: the tracing
// overhead is then measured on pairs of the same op, and the spread of
// costs between different queries cancels.
func tracedPrefix(ops []searchOp, tr *tracer) []searchOp {
	if tr == nil {
		return ops
	}
	return ops[:max(len(ops)/10, 1)]
}

// traced runs one client operation under a root span when the tracer is
// in a traced slice.
func traced(tr *tracer, now time.Time, name string, do func(traceInfo) sample) sample {
	if !tr.active(now) {
		return do(traceInfo{})
	}
	request := tr.newRequest()
	id, end := tr.begin(name, request, 0)
	s := do(traceInfo{request, id})
	end()
	s.traced = true
	return s
}

// checkSamples applies the gates every search workload shares: no
// errors, and an op that ran twice answered identically both times.
func checkSamples(o *outcome) {
	errs := 0
	var first error
	seen := make(map[int]string)
	diverged := 0
	for _, s := range o.samples {
		if s.err != nil {
			errs++
			if first == nil {
				first = s.err
			}
			continue
		}
		if s.mutate {
			continue
		}
		if prev, ok := seen[s.op]; ok && prev != s.digest {
			diverged++
		}
		seen[s.op] = s.digest
	}
	o.gate("no_errors", errs == 0, "%d of %d ops failed (first: %v)", errs, len(o.samples), first)
	o.gate("repeat_digest", diverged == 0, "%d repeated ops answered differently", diverged)
}

// verifySample is how many executed ops are re-answered by an
// independent path and compared; re-answering all of them would cost as
// much as the run.
const verifySample = 16

// sampleOps picks up to verifySample distinct executed searches, evenly
// spread over the run.
func sampleOps(samples []sample) []sample {
	var ok []sample
	seen := make(map[int]bool)
	for _, s := range samples {
		if s.err == nil && !s.mutate && !seen[s.op] {
			seen[s.op] = true
			ok = append(ok, s)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].op < ok[j].op })
	if len(ok) <= verifySample {
		return ok
	}
	out := make([]sample, verifySample)
	for i := range out {
		out[i] = ok[i*len(ok)/verifySample]
	}
	return out
}

// reference answers op by the shortest path there is: core.Search on a
// from-scratch Build of the unsharded dataset.
func reference(db *banks.DB, op searchOp) (string, error) {
	res, err := db.SearchTerms(op.Terms, op.Algo, searchOpts)
	if err != nil {
		return "", err
	}
	return digestAnswers(keysOf(res)), nil
}

func verifyAgainst(o *outcome, db *banks.DB, ops []searchOp, gate string) {
	bad := 0
	picked := sampleOps(o.samples)
	for _, s := range picked {
		want, err := reference(db, ops[s.op])
		if err != nil || want != s.digest {
			bad++
		}
	}
	o.gate(gate, bad == 0 && len(picked) > 0, "%d of %d sampled ops differ from the single-node reference", bad, len(picked))
}

// --- lib_mix ---------------------------------------------------------------

type libMix struct {
	in  *inputs
	lib *library

	mu     sync.Mutex
	recall map[banks.Algorithm][2]float64 // sum of per-op recall, op count
}

func (w *libMix) warm() error { return nil } // nothing is cached; the first op is as cold as the last

func (w *libMix) run(dur time.Duration, tr *tracer) *outcome {
	w.recall = make(map[banks.Algorithm][2]float64)
	ops := tracedPrefix(w.in.mix, tr)
	o := newOutcome()
	inflight := sampleInflight(tr, w.lib.eng)
	o.samples, o.wall = closedLoop(clients(), dur, tr, func(seq int, _ traceInfo) sample {
		i := seq % len(ops)
		op := ops[i]
		start := time.Now()
		res, err := w.lib.eng.Search(context.Background(), op.query(), op.Algo, searchOpts)
		lat := time.Since(start)
		if err != nil {
			return sample{op: i, lat: lat, err: err}
		}
		if res.Stats.Truncated {
			return sample{op: i, lat: lat, err: fmt.Errorf("truncated")}
		}
		w.noteRecall(op, res)
		return sample{op: i, lat: lat, digest: digestAnswers(keysOf(res))}
	})
	o.counters["engine.inflight_mean"] = inflight()
	return o
}

func (w *libMix) noteRecall(op searchOp, res *banks.Result) {
	want := min(len(op.Relevant), searchK)
	if want == 0 {
		return
	}
	found := 0
	for _, a := range res.Answers {
		if op.Relevant[workload.CanonNodes(a.Nodes)] {
			found++
		}
	}
	w.mu.Lock()
	r := w.recall[op.Algo]
	w.recall[op.Algo] = [2]float64{r[0] + float64(found)/float64(want), r[1] + 1}
	w.mu.Unlock()
}

func (w *libMix) verify(o *outcome) {
	checkSamples(o)
	verifyAgainst(o, w.lib.db, w.in.mix, "core_reference")
	for _, a := range banks.Algorithms() {
		r := w.recall[a]
		mean := 0.0
		if r[1] > 0 {
			mean = r[0] / r[1]
		}
		o.info = append(o.info, fmt.Sprintf("recall %s: %.3f over %d ops", a, mean, int(r[1])))
		o.gate("recall_"+string(a), mean > 0, "mean recall %.3f", mean)
	}
}

func (w *libMix) close() { w.lib.close() }

// --- serve_hot -------------------------------------------------------------

type serveHot struct {
	in   *inputs
	ref  *banks.DB
	s    *single
	next int // position in the Zipf sequence after the warm pass
}

func (w *serveHot) op(pos int) (int, searchOp) {
	i := int(w.in.hotSeq[pos%len(w.in.hotSeq)])
	return i, w.in.hot[i]
}

func (w *serveHot) warm() error {
	for ; w.next < w.in.sz.warm; w.next++ {
		_, op := w.op(w.next)
		if _, _, err := httpSearch(w.s.node.url, op, traceInfo{}); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveHot) run(dur time.Duration, tr *tracer) *outcome {
	o := newOutcome()
	before, scraped := w.s.eng.Stats(), scrapeTraced(o, tr, w.s.node.url)
	inflight := sampleInflight(tr, w.s.eng)
	o.samples, o.wall = closedLoop(clients(), dur, tr, func(seq int, ti traceInfo) sample {
		i, op := w.op(w.next + seq)
		return searchSample(w.s.node.url, i, op, ti)
	})
	engineCounters(o, before, w.s.eng.Stats(), inflight())
	const rejects = "banksd_admission_rejected_total"
	o.counters["server.admission_rejects"] = scrapeTraced(o, tr, w.s.node.url)[rejects] - scraped[rejects]
	return o
}

func (w *serveHot) verify(o *outcome) {
	checkSamples(o)
	verifyAgainst(o, w.ref, w.in.hot, "library_reference")
}

func (w *serveHot) close() { w.s.close() }

// searchSample issues one HTTP search and folds the reply into a sample.
func searchSample(base string, i int, op searchOp, ti traceInfo) sample {
	r, lat, err := httpSearch(base, op, ti)
	switch {
	case err != nil:
	case r.truncated:
		err = fmt.Errorf("truncated")
	case r.answers == 0:
		err = fmt.Errorf("no answers for %q", op.query())
	}
	return sample{op: i, lat: lat, digest: r.digest, err: err}
}

// every10ms calls f every 10 ms on its own goroutine until the returned
// stop func is called; stop returns once f can no longer run. Untraced
// runs (nil tracer) skip the sampler, so it cannot disturb an end-to-end
// figure.
func every10ms(tr *tracer, f func()) (stop func()) {
	if tr == nil {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				f()
			}
		}
	}()
	return func() { close(done); <-exited }
}

// sampleInflight samples the engine's pool occupancy during a traced run;
// the returned func stops it and reports the mean.
func sampleInflight(tr *tracer, eng *banks.Engine) func() float64 {
	var sum, n float64
	stop := every10ms(tr, func() { sum += float64(eng.Stats().InFlight); n++ })
	return func() float64 { stop(); return sum / max(n, 1) }
}

// engineCounters folds what the engine saw during a run into o.
func engineCounters(o *outcome, before, after banks.EngineStats, inflight float64) {
	o.counters["engine.inflight_mean"] = inflight
	hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	if hits+misses > 0 {
		o.counters["engine.cache_hit_ratio"] = hits / (hits + misses)
		o.info = append(o.info, fmt.Sprintf("cache hit ratio %.3f (%d hits, %d misses)", hits/(hits+misses), int(hits), int(misses)))
	}
}

// scrapeTraced fetches a /metrics page in a traced run (nil otherwise); a
// page that cannot be read fails a gate rather than reporting zeros.
func scrapeTraced(o *outcome, tr *tracer, base string) map[string]float64 {
	if tr == nil {
		return nil
	}
	m, err := scrape(base)
	if err != nil {
		o.gate("metrics_scrape", false, "%v", err)
	}
	return m
}

// --- route_scatter ---------------------------------------------------------

// warmQueries bounds the warm pass of the deployments that have little to
// warm (connections, first-touch page faults) — serve_hot, which has a
// cache to fill, has its own count in sizes.
const warmQueries = 16

type routeScatter struct {
	in *inputs
	r  *routed
}

func (w *routeScatter) warm() error {
	// Open the router's connections to every replica; shard caches are
	// off, so there is nothing else to warm.
	for i := 0; i < min(warmQueries/2, len(w.in.route)); i++ {
		op := w.in.route[len(w.in.route)-1-i]
		if _, _, err := httpSearch(w.r.node.url, op, traceInfo{}); err != nil {
			return err
		}
	}
	return nil
}

func (w *routeScatter) run(dur time.Duration, tr *tracer) *outcome {
	o := newOutcome()
	before := scrapeTraced(o, tr, w.r.node.url)
	ops := tracedPrefix(w.in.route, tr)
	o.samples, o.wall = closedLoop(clients(), dur, tr, func(seq int, ti traceInfo) sample {
		i := seq % len(ops)
		return searchSample(w.r.node.url, i, ops[i], ti)
	})
	after := scrapeTraced(o, tr, w.r.node.url)
	for metric, series := range map[string]string{
		"router.failovers": "banksrouter_failovers_total", "router.hedges": "banksrouter_hedges_total",
	} {
		o.counters[metric] = sumSeries(after, series) - sumSeries(before, series)
	}
	return o
}

// verify recomputes the routed contract by the library path: each
// shard's own top-k from its snapshot, merged by the canonical MergeTopK.
// (The unsharded engine is not the reference: on this dataset its output
// order is release order, not score order, and its k-th answer can lose
// to another shard's — see router.unsharded_agreement.)
func (w *routeScatter) verify(o *outcome) {
	checkSamples(o)
	bad := 0
	picked := sampleOps(o.samples)
	for _, s := range picked {
		op := w.in.route[s.op]
		lists := make([][]*banks.Answer, numShards)
		for sh := range lists {
			res, err := w.r.shards[sh*numReplicas].db.SearchTerms(op.Terms, op.Algo, searchOpts)
			if err != nil {
				bad++
				continue
			}
			lists[sh] = res.Answers
		}
		merged := &banks.Result{Answers: banks.MergeTopK(searchK, lists...)}
		if digestAnswers(keysOf(merged)) != s.digest {
			bad++
		}
	}
	o.gate("merged_shards_reference", bad == 0 && len(picked) > 0,
		"%d of %d sampled ops differ from MergeTopK over per-shard library searches", bad, len(picked))
}

func (w *routeScatter) close() { w.r.close() }

// --- mutate_mixed ----------------------------------------------------------

type mutateMixed struct {
	in  *inputs
	r   *replicated
	dir string

	acked, sinceCompact int
	compacted           bool
	compactAt, compactD time.Duration // window of the mid-run compaction
}

func (w *mutateMixed) warm() error {
	for _, op := range w.in.reader[:min(warmQueries, len(w.in.reader))] {
		if _, _, err := httpSearch(w.r.primary.node.url, op, traceInfo{}); err != nil {
			return err
		}
	}
	return nil
}

// run is one writer posting batches back to back, compacting once three
// quarters of the way through, beside readers searching the primary until
// the writer stops.
func (w *mutateMixed) run(dur time.Duration, tr *tracer) *outcome {
	primary := w.r.primary.node.url
	before := w.r.primary.eng.Stats()
	inflight := sampleInflight(tr, w.r.primary.eng)
	var worstLag int64
	stopLag := every10ms(tr, func() { worstLag = max(worstLag, w.r.follower.follower.Stats().LagRecords) })

	start := time.Now()
	deadline := start.Add(dur)
	readers := max(clients()-1, 1)
	var wg sync.WaitGroup
	var writes []sample
	reads := make([][]sample, readers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w.acked < len(w.in.batches) {
			now := time.Now()
			if !now.Before(deadline) {
				return
			}
			if !w.compacted && now.Sub(start) >= dur*3/4 {
				w.compacted = true
				w.compactAt = now.Sub(start)
				if _, lat, err := post(primary+"/v1/compact", nil, traceInfo{}); err != nil {
					writes = append(writes, sample{mutate: true, op: -1, lat: lat, err: fmt.Errorf("compact: %w", err)})
					return
				}
				w.compactD = time.Since(now)
				w.sinceCompact = 0
				continue
			}
			i, body := w.acked, encodeBatch(w.in.batches[w.acked])
			s := traced(tr, now, "client.mutate", func(ti traceInfo) sample {
				ack, lat, err := httpMutate(primary, body, ti)
				if err == nil && (ack.Applied != batchOps || !ack.Durable) {
					err = fmt.Errorf("ack applied=%d durable=%v", ack.Applied, ack.Durable)
				}
				return sample{mutate: true, op: i, lat: lat, err: err}
			})
			writes = append(writes, s)
			if s.err != nil {
				return
			}
			w.acked++
			w.sinceCompact++
		}
	}()
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := c; ; seq += readers {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				i := seq % len(w.in.reader)
				s := traced(tr, now, "client.search", func(ti traceInfo) sample {
					s := searchSample(primary, i, w.in.reader[i], ti)
					s.digest = "" // answers legitimately change as mutations land
					return s
				})
				reads[c] = append(reads[c], s)
			}
		}(c)
	}
	wg.Wait()
	o := newOutcome()
	o.wall, o.samples = time.Since(start), writes
	for _, r := range reads {
		o.samples = append(o.samples, r...)
	}
	engineCounters(o, before, w.r.primary.eng.Stats(), inflight())
	stopLag()
	o.counters["repl.lag_records_max"] = float64(worstLag)
	o.info = append(o.info, fmt.Sprintf("%d batches acked, compaction at %v took %v", w.acked, w.compactAt.Round(time.Millisecond), w.compactD.Round(time.Millisecond)))
	return o
}

func (w *mutateMixed) verify(o *outcome) {
	checkSamples(o)
	o.gate("compacted", w.compacted, "compaction ran mid-run: %v", w.compacted)

	// Follower answers equal the primary's once it has caught up.
	err := w.r.waitCaughtUp(30 * time.Second)
	o.gate("follower_caught_up", err == nil, "%v", err)
	want := make([]string, len(w.in.probes))
	differ := 0
	for i, op := range w.in.probes {
		p, _, perr := httpSearch(w.r.primary.node.url, op, traceInfo{})
		f, _, ferr := httpSearch(w.r.follower.node.url, op, traceInfo{})
		want[i] = p.digest
		if perr != nil || ferr != nil || p.digest != f.digest {
			differ++
		}
	}
	o.gate("follower_equals_primary", differ == 0, "%d of %d probes differ", differ, len(w.in.probes))

	// Durability: a cold open of nothing but the files on disk replays
	// exactly the batches acked since the compaction and answers as the
	// primary does.
	rec, err := recoverCopy(w.r.snapshot, filepath.Join(w.dir, "recover"))
	if err != nil {
		o.gate("recovery", false, "%v", err)
		return
	}
	defer rec.close()
	o.gate("recovery_replayed", rec.replayed == w.sinceCompact, "replayed %d records, acked %d since the compaction", rec.replayed, w.sinceCompact)
	differ = 0
	for i, op := range w.in.probes {
		res, err := rec.lib.eng.Search(context.Background(), op.query(), op.Algo, searchOpts)
		if err != nil || digestAnswers(keysOf(res)) != want[i] {
			differ++
		}
	}
	o.gate("recovery_equals_primary", differ == 0, "%d of %d probes differ", differ, len(w.in.probes))
}

func (w *mutateMixed) close() { w.r.close() }

// recovered is a cold-opened copy of a primary's durable files.
type recovered struct {
	lib      *library
	live     *banks.Live
	replayed int
	took     time.Duration // OpenSnapshot + NewEngine + OpenLive (replay)
}

func (r *recovered) close() {
	_ = r.live.Close()
	r.lib.close()
}

// recoverCopy copies the newest snapshot generation and the WAL of the
// instance rooted at snapshot into dir, then cold-opens the copy. Only
// bytes that reached the files are visible to it. (The copy reads through
// the page cache; a sandbox cannot drop it. With fsync=always every acked
// batch was fsynced before its ack, which is what the policy promises.)
func recoverCopy(snapshot, dir string) (*recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	src := banks.LatestSnapshotPath(snapshot)
	dst := filepath.Join(dir, filepath.Base(src))
	if err := copyFile(src, dst); err != nil {
		return nil, err
	}
	if err := copyFile(snapshot+".wal", dst+".wal"); err != nil {
		return nil, err
	}
	start := time.Now()
	db, err := banks.OpenSnapshot(dst)
	if err != nil {
		return nil, err
	}
	lib, err := openLibrary(db, 0)
	if err != nil {
		db.Close()
		return nil, err
	}
	live, err := banks.OpenLive(lib.eng, banks.LiveOptions{SnapshotPath: dst, WALPath: dst + ".wal"})
	if err != nil {
		lib.close()
		return nil, err
	}
	return &recovered{lib: lib, live: live, replayed: live.Replayed(), took: time.Since(start)}, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
