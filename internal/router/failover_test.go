package router_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"banks"
	"banks/internal/router"
	"banks/internal/router/faultproxy"
	"banks/internal/shard"
)

// buildShardSnapshots writes the corpus snapshot and its shard files,
// returning the unsharded base path.
func buildShardSnapshots(t *testing.T) string {
	t.Helper()
	built := corpusDB(t)
	base := filepath.Join(t.TempDir(), "corpus.snap")
	if err := built.WriteSnapshotFile(base); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.WriteFiles(base, nshards, built.Graph, built.Index, built.Mapping, built.EdgeTypes); err != nil {
		t.Fatal(err)
	}
	return base
}

func openSnap(t *testing.T, path string) *banks.DB {
	t.Helper()
	db, err := banks.OpenSnapshot(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// repDeployment is a replicated sharded test topology: a single-node
// baseline plus two replicas per shard (each its own banksd over the
// same shard snapshot), with fault-injecting proxies in front of some
// replicas.
type repDeployment struct {
	single    *httptest.Server
	backends  [][]*httptest.Server // [shard][replica]
	proxies   [][]*faultproxy.Proxy
	router    *httptest.Server
	routerRaw *router.Router
}

type repOpts struct {
	hedgeAfter time.Duration
	// proxyBoth fronts replica 1 with a faultproxy too (replica 0 always
	// gets one); false leaves replica 1 a direct backend.
	proxyBoth bool
	// direct skips proxies entirely: both replicas are direct backends
	// (for the kill-under-load hammer).
	direct bool
}

func deployReplicated(t *testing.T, o repOpts) *repDeployment {
	t.Helper()
	base := buildShardSnapshots(t)
	d := &repDeployment{
		single:   newBackend(t, openSnap(t, base), "single"),
		backends: make([][]*httptest.Server, nshards),
		proxies:  make([][]*faultproxy.Proxy, nshards),
	}
	topo := make([][]string, nshards)
	for s := 0; s < nshards; s++ {
		for rep := 0; rep < 2; rep++ {
			ts := newBackend(t, openSnap(t, shard.FilePath(base, s, nshards)), fmt.Sprintf("shard %d", s))
			d.backends[s] = append(d.backends[s], ts)
			if !o.direct && (rep == 0 || o.proxyBoth) {
				px, err := faultproxy.New(ts.URL)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(px.Close)
				d.proxies[s] = append(d.proxies[s], px)
				topo[s] = append(topo[s], px.URL())
			} else {
				d.proxies[s] = append(d.proxies[s], nil)
				topo[s] = append(topo[s], ts.URL)
			}
		}
	}
	rt, err := router.New(router.Config{Shards: topo, ProbeInterval: -1, HedgeAfter: o.hedgeAfter})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	d.routerRaw = rt
	d.router = httptest.NewServer(rt.Handler())
	t.Cleanup(d.router.Close)
	// Wait out the router's one-shot initial probe round (ProbeInterval
	// -1 disables the periodic ones): a probe result landing mid-test
	// would re-promote a replica the test just demoted.
	waitStatusz(t, d.router.URL, func(doc map[string]any) bool {
		return doc["all_healthy"] == true
	})
	return d
}

// assertIdenticalBatch compares the routed /v1/search body to the
// single-node baseline byte-for-byte and checks the failover disclosure.
func assertIdenticalBatch(t *testing.T, d *repDeployment, path, name string, wantFailovers bool) {
	t.Helper()
	want := fetchSearch(t, d.single.URL+path)
	got := fetchSearch(t, d.router.URL+path)
	if got.QueryID != want.QueryID || got.Truncated != want.Truncated {
		t.Errorf("%s: header mismatch: (%s,%v) vs (%s,%v)", name, got.QueryID, got.Truncated, want.QueryID, want.Truncated)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("%s: %d answers, want %d", name, len(got.Answers), len(want.Answers))
	}
	for i := range got.Answers {
		if string(got.Answers[i]) != string(want.Answers[i]) {
			t.Errorf("%s: answer %d differs under faults:\n  routed: %s\n  single: %s", name, i, got.Answers[i], want.Answers[i])
		}
	}
	if wantFailovers && got.Stats.Failovers == 0 {
		t.Errorf("%s: response discloses zero failovers despite injected faults", name)
	}
}

// assertIdenticalStream does the same for the NDJSON stream endpoint.
func assertIdenticalStream(t *testing.T, d *repDeployment, path, name string, wantFailovers bool) {
	t.Helper()
	spath := strings.Replace(path, "/v1/search?", "/v1/search/stream?", 1)
	want, _ := fetchStream(t, d.single.URL+spath)
	got, trailer := fetchStream(t, d.router.URL+spath)
	if len(got) != len(want) {
		t.Fatalf("%s: stream has %d answers, want %d", name, len(got), len(want))
	}
	for i := range got {
		if string(got[i].Answer) != string(want[i].Answer) {
			t.Errorf("%s: stream answer %d differs under faults:\n  routed: %s\n  single: %s", name, i, got[i].Answer, want[i].Answer)
		}
	}
	if trailer.Error != "" {
		t.Errorf("%s: trailer.error = %q", name, trailer.Error)
	}
	if wantFailovers && trailer.Stats.Failovers == 0 {
		t.Errorf("%s: trailer discloses zero failovers despite injected faults", name)
	}
}

// TestFailoverDifferential is the tentpole proof: for every fault class,
// every algorithm, and both response modes, the routed answer under
// injected replica failures is byte-identical to the healthy single-node
// baseline, and the response discloses that a retry happened. Faults are
// armed on every shard's current primary replica before each query, so
// each query really exercises the failover path; the primary flips after
// each faulted query because the failed replica is demoted.
func TestFailoverDifferential(t *testing.T) {
	classes := []struct {
		name  string
		fault faultproxy.Fault
	}{
		{"drop", faultproxy.Fault{Mode: faultproxy.ModeDrop, Count: 1}},
		{"http503", faultproxy.Fault{Mode: faultproxy.Mode5xx, Count: 1}},
		{"truncate-clean", faultproxy.Fault{Mode: faultproxy.ModeTruncate, Count: 1, AfterLines: 0}},
		{"truncate-midline", faultproxy.Fault{Mode: faultproxy.ModeTruncate, Count: 1, AfterLines: 0, MidLine: true}},
	}
	for _, tc := range classes {
		t.Run(tc.name, func(t *testing.T) {
			d := deployReplicated(t, repOpts{proxyBoth: true})
			primary := 0
			for _, algo := range banks.Algorithms() {
				for _, mode := range []string{"batch", "stream"} {
					for s := 0; s < nshards; s++ {
						f := tc.fault
						d.proxies[s][primary].Set(&f)
					}
					path := fmt.Sprintf("/v1/search?q=%s&algo=%s&k=10", url.QueryEscape("gray transaction"), algo)
					name := fmt.Sprintf("%s/%s/%s", tc.name, algo, mode)
					if mode == "batch" {
						assertIdenticalBatch(t, d, path, name, true)
					} else {
						assertIdenticalStream(t, d, path, name, true)
					}
					// Every shard's primary faulted and was demoted; its
					// second replica answered and is the next primary.
					primary = 1 - primary
				}
			}
		})
	}
}

// TestHedgeDifferential covers the latency-spike class: the primary
// replica of every shard is delayed far past the hedge budget, the
// runner-up answers, and the response is still byte-identical with the
// hedge disclosed. Delayed attempts are canceled, not failed, so the
// slow replica keeps its healthy status (and its selection slot) across
// queries — the delay fault must fire every time.
func TestHedgeDifferential(t *testing.T) {
	d := deployReplicated(t, repOpts{hedgeAfter: 20 * time.Millisecond})
	for s := 0; s < nshards; s++ {
		d.proxies[s][0].Set(&faultproxy.Fault{Mode: faultproxy.ModeDelay, Delay: 2 * time.Second})
	}
	for _, algo := range banks.Algorithms() {
		for _, mode := range []string{"batch", "stream"} {
			path := fmt.Sprintf("/v1/search?q=%s&algo=%s&k=10", url.QueryEscape("database query"), algo)
			name := fmt.Sprintf("hedge/%s/%s", algo, mode)
			if mode == "batch" {
				assertIdenticalBatch(t, d, path, name, true)
			} else {
				assertIdenticalStream(t, d, path, name, true)
			}
		}
	}
	// The hedge counter moved, and no delayed attempt was mistaken for a
	// replica failure: every replica is still healthy.
	text := fetchMetrics(t, d.router.URL)
	if v := metricValue(t, text, "banksrouter_hedges_total"); v == 0 {
		t.Error("banksrouter_hedges_total is zero after hedged queries")
	}
	doc := waitStatusz(t, d.router.URL, func(doc map[string]any) bool { return true })
	if doc["all_healthy"] != true || doc["degraded"] != false {
		t.Errorf("hedging demoted a replica: all_healthy=%v degraded=%v", doc["all_healthy"], doc["degraded"])
	}
}

func fetchMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// metricValue extracts an unlabeled counter/gauge value from Prometheus
// text.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestMidStreamTruncationNeverSilent pins the idempotent-retry contract
// (the router must never splice or silently truncate): a replica that
// dies after surfacing its first answer line is either retried
// byte-identically on another replica, or — when every replica of the
// shard truncates — the query fails loudly with 502. A 200 with fewer
// answers than the baseline is the one forbidden outcome.
func TestMidStreamTruncationNeverSilent(t *testing.T) {
	const q = "gray transaction"
	path := "/v1/search?q=" + url.QueryEscape(q) + "&algo=bidirectional&k=10"

	t.Run("retried byte-identically", func(t *testing.T) {
		d := deployReplicated(t, repOpts{proxyBoth: true})
		want := fetchSearch(t, d.single.URL+path)
		if len(want.Answers) < 2 {
			t.Fatalf("corpus invariant: query %q returns %d answers, need >= 2 for a mid-stream cut", q, len(want.Answers))
		}
		// Cut every shard's primary after its first line. Shards whose
		// stream fits in one line pass through complete; the shard
		// holding the component emits answer 1 and then dies mid-stream.
		for s := 0; s < nshards; s++ {
			d.proxies[s][0].Set(&faultproxy.Fault{Mode: faultproxy.ModeTruncate, Count: 1, AfterLines: 1})
		}
		assertIdenticalBatch(t, d, path, "mid-stream retry", true)
	})

	t.Run("all replicas truncate: loud 502", func(t *testing.T) {
		d := deployReplicated(t, repOpts{proxyBoth: true})
		for s := 0; s < nshards; s++ {
			for rep := 0; rep < 2; rep++ {
				d.proxies[s][rep].Set(&faultproxy.Fault{Mode: faultproxy.ModeTruncate, AfterLines: 1})
			}
		}
		resp, err := http.Get(d.router.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("HTTP %d, want 502: a universally truncated shard must fail the query, never shorten it", resp.StatusCode)
		}
		var body struct {
			Error struct {
				Code   string `json:"code"`
				Detail string `json:"detail"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Error.Code != "shard_error" {
			t.Errorf("error code %q, want shard_error", body.Error.Code)
		}
		if !strings.Contains(body.Error.Detail, "without a trailer") {
			t.Errorf("error detail %q does not name the truncation", body.Error.Detail)
		}
	})
}

// TestTrailerAggregationUnderFailover is the end-to-end check of the
// trailer recipe when one shard answers from its second replica: cached
// keeps AND-semantics, counters still sum, failovers is disclosed on the
// failed-over query only, and degraded stays false — a failover is a
// retry, not an approximation.
func TestTrailerAggregationUnderFailover(t *testing.T) {
	base := buildShardSnapshots(t)
	single := newBackend(t, openSnap(t, base), "single")
	topo := make([][]string, nshards)
	var px *faultproxy.Proxy
	for s := 0; s < nshards; s++ {
		ts := newBackend(t, openSnap(t, shard.FilePath(base, s, nshards)), fmt.Sprintf("shard %d", s))
		topo[s] = []string{ts.URL}
		if s == 1 {
			// Shard 1 gets a faulty primary and a healthy second replica;
			// the other shards stay single-replica so their selection is
			// pinned and the cache assertions are deterministic.
			var err error
			px, err = faultproxy.New(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(px.Close)
			ts2 := newBackend(t, openSnap(t, shard.FilePath(base, s, nshards)), "shard 1 replica 1")
			topo[s] = []string{px.URL(), ts2.URL}
		}
	}
	rt, err := router.New(router.Config{Shards: topo, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	// Let the one-shot initial probe round finish so a late probe result
	// cannot re-promote the replica the first query demotes.
	waitStatusz(t, rts.URL, func(doc map[string]any) bool {
		return doc["all_healthy"] == true
	})

	path := "/v1/search/stream?q=" + url.QueryEscape("gray transaction") + "&algo=bidirectional&k=10"
	wantAnswers, wantTrailer := fetchStream(t, single.URL+path)

	// Query 1, with shard 1's primary dropping the connection: answered
	// via failover, all engines cold.
	px.Set(&faultproxy.Fault{Mode: faultproxy.ModeDrop, Count: 1})
	got1, tr1 := fetchStream(t, rts.URL+path)
	if len(got1) != len(wantAnswers) {
		t.Fatalf("failover query: %d answers, want %d", len(got1), len(wantAnswers))
	}
	for i := range got1 {
		if string(got1[i].Answer) != string(wantAnswers[i].Answer) {
			t.Errorf("failover query: answer %d differs", i)
		}
	}
	if tr1.Stats.Failovers != 1 {
		t.Errorf("failover query: trailer failovers = %d, want 1", tr1.Stats.Failovers)
	}
	if tr1.Cached {
		t.Error("failover query: cached true on cold engines")
	}
	if tr1.Degraded {
		t.Error("failover query: degraded true — a replica retry is not degradation")
	}
	if tr1.Stats.Shards != nshards {
		t.Errorf("failover query: stats.shards = %d, want %d", tr1.Stats.Shards, nshards)
	}

	// Query 2, same query, no fault: shard 1 is now served by its second
	// replica, whose cache query 1's failover warmed; shards 0 and 2 are
	// warm from query 1. Every contributor answers from cache → AND holds.
	got2, tr2 := fetchStream(t, rts.URL+path)
	if len(got2) != len(wantAnswers) {
		t.Fatalf("cached query: %d answers, want %d", len(got2), len(wantAnswers))
	}
	if !tr2.Cached {
		t.Error("cached query: cached false though every shard (incl. the failover replica) answered from cache")
	}
	if tr2.Stats.Failovers != 0 {
		t.Errorf("cached query: failovers = %d, want 0 — serving from the promoted replica is not a retry", tr2.Stats.Failovers)
	}
	if tr2.Degraded {
		t.Error("cached query: degraded true")
	}
	// Counters still aggregate per the healthy recipe: the cached replay
	// reports the original work, identically to the single-node trailer.
	if tr2.Answers != wantTrailer.Answers {
		t.Errorf("cached query: trailer answers = %d, want %d", tr2.Answers, wantTrailer.Answers)
	}
}

// TestKillReplicaUnderLoad is the survivability hammer: 2 replicas × 3
// shards under concurrent query load, one replica hard-killed mid-run.
// Every request must still answer 200 with the baseline bytes — the
// router absorbs the death via failover, and /statusz discloses the
// demoted replica afterwards.
func TestKillReplicaUnderLoad(t *testing.T) {
	d := deployReplicated(t, repOpts{direct: true})
	path := "/v1/search?q=" + url.QueryEscape("gray transaction") + "&algo=bidirectional&k=5"
	want := fetchSearch(t, d.single.URL+path)
	wantRaw := make([]string, len(want.Answers))
	for i, a := range want.Answers {
		wantRaw[i] = string(a)
	}

	const (
		workers = 8
		perGoro = 25
		killAt  = 40 // total requests completed before the kill fires
	)
	var (
		done     sync.WaitGroup
		mu       sync.Mutex
		finished int
		killed   bool
		failures []string
	)
	kill := func() {
		// SIGKILL-equivalent for an in-process backend: drop live
		// connections, then refuse new ones.
		d.backends[1][0].CloseClientConnections()
		d.backends[1][0].Close()
	}
	client := &http.Client{}
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer done.Done()
			for i := 0; i < perGoro; i++ {
				resp, err := client.Get(d.router.URL + path)
				var failure string
				if err != nil {
					failure = fmt.Sprintf("transport error: %v", err)
				} else {
					var body searchBody
					decErr := json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
					switch {
					case resp.StatusCode != http.StatusOK:
						failure = fmt.Sprintf("HTTP %d", resp.StatusCode)
					case decErr != nil:
						failure = fmt.Sprintf("decode: %v", decErr)
					case len(body.Answers) != len(wantRaw):
						failure = fmt.Sprintf("%d answers, want %d", len(body.Answers), len(wantRaw))
					default:
						for j := range body.Answers {
							if string(body.Answers[j]) != wantRaw[j] {
								failure = fmt.Sprintf("answer %d differs", j)
								break
							}
						}
					}
				}
				mu.Lock()
				finished++
				if failure != "" {
					failures = append(failures, failure)
				}
				if !killed && finished >= killAt {
					killed = true
					mu.Unlock()
					kill()
					continue
				}
				mu.Unlock()
			}
		}()
	}
	done.Wait()
	if !killed {
		t.Fatal("kill never fired")
	}
	if len(failures) > 0 {
		t.Fatalf("%d/%d requests failed after a replica kill; first: %s",
			len(failures), workers*perGoro, failures[0])
	}
	// The dead replica is demoted and disclosed; the deployment is
	// degraded but every shard still answerable.
	doc := waitStatusz(t, d.router.URL, func(doc map[string]any) bool {
		return doc["degraded"] == true
	})
	if doc["all_healthy"] != true {
		t.Errorf("all_healthy = %v, want true: shard 1 still has a live replica", doc["all_healthy"])
	}
	row := doc["shards"].([]any)[1].(map[string]any)
	rep0 := row["replicas"].([]any)[0].(map[string]any)
	if rep0["healthy"] == true {
		t.Error("killed replica still marked healthy in /statusz")
	}
	if !row["healthy"].(bool) {
		t.Error("shard 1 marked unanswerable though replica 1 is alive")
	}
}
