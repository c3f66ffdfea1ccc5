// Package router is the scatter-gather serving tier over a sharded BANKS
// deployment: one stateless front end that fans each keyword query out to
// N shard groups (each a set of interchangeable banksd replicas serving
// the same component-closed partition, see internal/shard and cmd/datagen
// -shards), gathers the per-shard top-k streams, and merges them into the
// global top-k with the canonical output-heap recipe (banks.MergeTopK).
//
// Because the partition is component-closed, every answer tree lives on
// exactly one shard and carries exactly the score the single-node search
// would give it (prestige is computed once on the full graph before
// partitioning); the merge is therefore a deterministic global ordering
// of disjoint result sets, and the routed answer list is bit-identical —
// order, scores, float bits — to the single-node answer list for the
// same query. TestRouterDifferential proves this end to end across real
// HTTP servers, and TestFailoverDifferential proves it stays true while
// replicas fail.
//
// Replicas: every shard may be served by several banksd processes over
// the same shard snapshot. Per-shard answers are deterministic, so any
// healthy replica is interchangeable — the router picks one per query by
// health- and load-driven selection (EWMA latency × in-flight count,
// health-prober demotion) and, when an attempt fails or a hedge timer
// fires, retries the remaining replicas in selection order, bounded to
// one attempt per replica within the query deadline. Retries are safe
// because nothing is emitted to the client until every shard's stream
// completed: a replica that dies mid-stream (missing trailer, malformed
// line) is detected, its partial answers are discarded, and the next
// replica replays the whole per-shard query byte-identically.
//
// Endpoints:
//
//	GET|POST /v1/search         scatter-gather search → merged top-k JSON
//	GET|POST /v1/search/stream  the same, emitted as NDJSON (gather-then-emit)
//	POST     /v1/batch          each element routed through the search scatter path
//	GET      /healthz           liveness; 503 once draining
//	GET      /statusz           JSON: per-replica health and routing table
//	GET      /metrics           Prometheus text: per-replica latency/errors
//
// /v1/near is rejected with 501: near-query activation divides prestige
// by the shard-local keyword-set size (§4.3), so per-shard near results
// are not mergeable into the single-node ranking. Query /v1/near on an
// unsharded deployment instead.
//
// Error semantics: a merged answer is only correct if every shard
// contributed, so a query fails with 502 only when EVERY replica of some
// shard failed — one healthy replica per shard is enough to answer.
// Requests are forwarded verbatim — parameters and the X-Tenant header —
// so tenant clamps are enforced by the shards, uniformly, not duplicated
// here.
package router

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"banks/internal/api"
)

// Config assembles a Router. Shards is required; everything else has
// serving-grade defaults.
type Config struct {
	// Shards lists, per shard, the base URLs of that shard's replicas,
	// e.g. [["http://10.0.0.1:8081", "http://10.0.0.2:8081"], ...].
	// Group i is expected to serve shard i of len(Shards); every replica
	// of a group serves the same shard snapshot. The prober verifies the
	// claim against each replica's /statusz and discloses mismatches.
	Shards [][]string
	// Client issues the fan-out and probe requests. Nil uses a client
	// with sensible defaults (no global timeout: per-query deadlines come
	// from the caller's context, and streams may legitimately run long).
	Client *http.Client
	// ProbeInterval is the health-probe period. 0 selects the default
	// (5s); negative disables background probing (health then reflects
	// only query traffic and the initial probe round).
	ProbeInterval time.Duration
	// HedgeAfter, when positive, arms a per-shard hedge timer: if the
	// selected replica has not completed within this duration and another
	// candidate remains, the next-best replica is queried concurrently
	// and the first completed stream wins (the loser is canceled).
	// Replicas are deterministic, so either winner yields identical
	// bytes. 0 disables hedging; failover on hard failures is always on.
	HedgeAfter time.Duration
	// MaxLagRecords bounds how far behind its primary a replication
	// follower may be — in WAL records (mutation batches), as the
	// backend's /statusz replication block discloses — before the router
	// demotes it below fresh replicas: a stale follower is only selected
	// once every fresh candidate has failed, and is re-promoted the
	// moment its disclosed lag returns to the bound. 0 selects the
	// default (256); negative disables freshness demotion entirely.
	MaxLagRecords int64
	// Logger receives one line per /v1/* request and per replica-health
	// transition. Nil disables logging.
	Logger *log.Logger
}

const defaultProbeInterval = 5 * time.Second

// defaultMaxLagRecords is the freshness bound when Config.MaxLagRecords
// is zero: a follower more than this many mutation batches behind its
// primary stops being a first-choice replica.
const defaultMaxLagRecords = 256

// ewmaAlpha weights the latest latency sample in the per-replica EWMA.
const ewmaAlpha = 0.3

// replicaState is the router's live view of one backend process serving
// one replica of one shard.
type replicaState struct {
	shard   int
	replica int
	url     string // base URL, no trailing slash

	// inflight counts fan-out attempts currently running against this
	// replica; selection uses it to spread concurrent load.
	inflight atomic.Int64

	mu        sync.Mutex
	healthy   bool
	lastErr   string    // most recent probe/query failure, "" when healthy
	lastCheck time.Time // when health was last updated
	// ewmaNS is the exponentially weighted moving average of successful
	// stream service time, in nanoseconds (0 until the first success).
	ewmaNS float64
	// claimed* mirror the replica's own /statusz disclosure (zero until
	// the first successful probe; claimedNumShards 0 = shard meta not yet
	// seen or the backend serves an unsharded snapshot).
	claimedShard     uint32
	claimedNumShards uint32
	claimedNodes     int
	// follower/lagRecords/replConnected mirror the replica's /statusz
	// replication block: whether the backend is a replication follower,
	// how many mutation batches it reports being behind its primary, and
	// whether its tail of the primary's log is currently healthy.
	// Non-followers are always "fresh".
	follower      bool
	lagRecords    int64
	replConnected bool
}

func (s *replicaState) setHealth(healthy bool, errMsg string, now time.Time) (changed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed = s.healthy != healthy || s.lastErr != errMsg
	s.healthy = healthy
	s.lastErr = errMsg
	s.lastCheck = now
	return changed
}

// observeLatency folds one successful service time into the EWMA.
func (s *replicaState) observeLatency(elapsed time.Duration) {
	s.mu.Lock()
	ns := float64(elapsed.Nanoseconds())
	if s.ewmaNS == 0 {
		s.ewmaNS = ns
	} else {
		s.ewmaNS = (1-ewmaAlpha)*s.ewmaNS + ewmaAlpha*ns
	}
	s.mu.Unlock()
}

// name identifies the replica in logs and error messages.
func (s *replicaState) name() string {
	return fmt.Sprintf("shard %d replica %d (%s)", s.shard, s.replica, s.url)
}

// shardGroup is the replica set serving one shard.
type shardGroup struct {
	index    int
	replicas []*replicaState
	// maxLag is the resolved freshness bound (Config.MaxLagRecords with
	// the default applied); negative disables staleness demotion.
	maxLag int64
}

// Router fans queries out across shard replica groups and merges the
// results.
type Router struct {
	groups   []*shardGroup
	replicas []*replicaState // all replicas, flattened, for probing
	client   *http.Client
	met      *metrics
	logger   *log.Logger

	hedgeAfter time.Duration

	start    time.Time
	draining atomic.Bool
	handler  http.Handler

	probeEvery  time.Duration
	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// New builds a Router and starts its health prober (unless disabled).
// Call Close to stop the prober.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	seen := make(map[string]bool)
	groups := make([]*shardGroup, len(cfg.Shards))
	var all []*replicaState
	for i, urls := range cfg.Shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", i)
		}
		g := &shardGroup{index: i}
		for j, u := range urls {
			u = strings.TrimRight(strings.TrimSpace(u), "/")
			if u == "" {
				return nil, fmt.Errorf("router: shard %d replica %d has an empty URL", i, j)
			}
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return nil, fmt.Errorf("router: shard %d replica %d URL %q must start with http:// or https://", i, j, u)
			}
			if seen[u] {
				return nil, fmt.Errorf("router: duplicate replica URL %q", u)
			}
			seen[u] = true
			rep := &replicaState{shard: i, replica: j, url: u}
			g.replicas = append(g.replicas, rep)
			all = append(all, rep)
		}
		groups[i] = g
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	probeEvery := cfg.ProbeInterval
	if probeEvery == 0 {
		probeEvery = defaultProbeInterval
	}
	if cfg.HedgeAfter < 0 {
		return nil, fmt.Errorf("router: HedgeAfter must be non-negative, got %v", cfg.HedgeAfter)
	}
	maxLag := cfg.MaxLagRecords
	if maxLag == 0 {
		maxLag = defaultMaxLagRecords
	}
	for _, g := range groups {
		g.maxLag = maxLag
	}
	rt := &Router{
		groups:     groups,
		replicas:   all,
		client:     client,
		met:        newMetrics(groups),
		logger:     cfg.Logger,
		hedgeAfter: cfg.HedgeAfter,
		start:      time.Now(),
		probeEvery: probeEvery,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", rt.handleSearch)
	mux.HandleFunc("/v1/search/stream", rt.handleSearchStream)
	mux.HandleFunc("/v1/near", rt.handleUnsupported(
		"near-query activation depends on shard-local keyword-set sizes and cannot be merged exactly; query a shard or an unsharded deployment directly"))
	mux.HandleFunc("/v1/batch", rt.handleBatch)
	mux.HandleFunc("/v1/explain", rt.handleUnsupported(
		"explain rendering is not routed; query a shard directly"))
	mux.HandleFunc("/healthz", api.Healthz(&rt.draining))
	mux.HandleFunc("/statusz", rt.handleStatusz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.handler = api.Instrument(mux, cfg.Logger, &rt.met.requests)

	ctx, cancel := context.WithCancel(context.Background())
	rt.probeCancel = cancel
	rt.probeDone = make(chan struct{})
	go rt.probeLoop(ctx)
	return rt, nil
}

// Handler returns the router's HTTP handler: the route mux wrapped in the
// instrumentation middleware (request IDs, logging, metrics, panic
// containment).
func (rt *Router) Handler() http.Handler { return rt.handler }

// BeginDrain flips the router into draining mode: /healthz starts
// answering 503 so load balancers stop routing here, while fan-outs in
// flight run to completion. Idempotent.
func (rt *Router) BeginDrain() { rt.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// NumShards reports the configured fan-out width.
func (rt *Router) NumShards() int { return len(rt.groups) }

// NumReplicas reports the total backend count across all shards.
func (rt *Router) NumReplicas() int { return len(rt.replicas) }

// Close stops the background health prober. It does not wait for
// in-flight requests; drain the HTTP server first.
func (rt *Router) Close() error {
	rt.probeCancel()
	<-rt.probeDone
	return nil
}

// probeLoop probes every replica once at startup, then on the configured
// period. A negative interval disables the periodic probing but still
// runs the initial round, so /statusz is populated promptly.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	rt.probeAll(ctx)
	if rt.probeEvery < 0 {
		<-ctx.Done()
		return
	}
	t := time.NewTicker(rt.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.probeAll(ctx)
		}
	}
}

func (rt *Router) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range rt.replicas {
		wg.Add(1)
		go func(rep *replicaState) {
			defer wg.Done()
			rt.probe(ctx, rep)
		}(rep)
	}
	wg.Wait()
}

// probe checks one replica's /healthz and, on success, refreshes its
// /statusz shard claim for the routing table.
func (rt *Router) probe(ctx context.Context, rep *replicaState) {
	ctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	err := rt.checkHealthz(ctx, rep)
	now := time.Now()
	if err != nil {
		if rep.setHealth(false, err.Error(), now) && rt.logger != nil {
			rt.logger.Printf("%s unhealthy: %v", rep.name(), err)
		}
		return
	}
	rt.refreshClaim(ctx, rep)
	if rep.setHealth(true, "", now) && rt.logger != nil {
		rt.logger.Printf("%s healthy", rep.name())
	}
}

func (rt *Router) checkHealthz(ctx context.Context, rep *replicaState) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// refreshClaim reads the replica's /statusz dataset section so the
// routing table can disclose which partition each backend claims to
// serve. A failure here is not a health failure — /statusz is
// introspection, and older or unsharded backends simply have no shard
// claim.
func (rt *Router) refreshClaim(ctx context.Context, rep *replicaState) {
	var doc struct {
		Dataset struct {
			Nodes int `json:"nodes"`
			Shard *struct {
				Shard     uint32 `json:"shard"`
				NumShards uint32 `json:"num_shards"`
			} `json:"shard"`
		} `json:"dataset"`
		// Replication is the follower disclosure (internal/server
		// statuszResponse.Replication); absent on primaries and
		// read-only backends.
		Replication *struct {
			Connected  bool  `json:"connected"`
			LagRecords int64 `json:"lag_records"`
		} `json:"replication"`
	}
	if err := rt.getJSON(ctx, rep.url+"/statusz", &doc); err != nil {
		return
	}
	rep.mu.Lock()
	rep.claimedNodes = doc.Dataset.Nodes
	if doc.Dataset.Shard != nil {
		rep.claimedShard = doc.Dataset.Shard.Shard
		rep.claimedNumShards = doc.Dataset.Shard.NumShards
	} else {
		rep.claimedShard, rep.claimedNumShards = 0, 0
	}
	if doc.Replication != nil {
		rep.follower = true
		rep.lagRecords = doc.Replication.LagRecords
		rep.replConnected = doc.Replication.Connected
	} else {
		rep.follower, rep.lagRecords, rep.replConnected = false, 0, false
	}
	rep.mu.Unlock()
}
