package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"banks"
	"banks/internal/api"
)

// statsJSON mirrors the shard server's wire stats (internal/server
// statsJSON) so per-shard counters can be decoded and aggregated.
type statsJSON struct {
	NodesExplored    int     `json:"nodes_explored"`
	NodesTouched     int     `json:"nodes_touched"`
	EdgesRelaxed     int     `json:"edges_relaxed"`
	AnswersGenerated int     `json:"answers_generated"`
	DurationMS       float64 `json:"duration_ms"`
	BudgetExhausted  bool    `json:"budget_exhausted,omitempty"`
}

// shardLine is one NDJSON line of a shard's /v1/search/stream response —
// the union of the answer-line and trailer-line fields, discriminated by
// Type.
type shardLine struct {
	Type string `json:"type"`
	// Answer-line fields.
	Rank        int             `json:"rank"`
	GeneratedMS float64         `json:"generated_ms"`
	OutputMS    float64         `json:"output_ms"`
	Answer      json.RawMessage `json:"answer"`
	// Trailer-line fields.
	QueryID   string    `json:"query_id"`
	Algo      string    `json:"algo"`
	K         int       `json:"k"`
	Clamped   []string  `json:"clamped"`
	Truncated bool      `json:"truncated"`
	Cached    bool      `json:"cached"`
	Degraded  bool      `json:"degraded"`
	Answers   int       `json:"answers"`
	Error     string    `json:"error"`
	Stats     statsJSON `json:"stats"`
}

// answerKey is the subset of the wire answer object the merge recipe
// needs. encoding/json formats float64 with the shortest representation
// that round-trips, so Score/EdgeScore decode back to the exact bits the
// shard computed.
type answerKey struct {
	Root      banks.NodeID `json:"root"`
	Score     float64      `json:"score"`
	EdgeScore float64      `json:"edge_score"`
	Edges     []struct {
		From banks.NodeID `json:"from"`
		To   banks.NodeID `json:"to"`
	} `json:"edges"`
}

// wireAnswer is one answer gathered from a shard: the raw JSON object
// (passed through to the client byte-for-byte) plus the skeletal
// banks.Answer the merge orders and dedupes by.
type wireAnswer struct {
	shard       int
	generatedMS float64
	outputMS    float64
	raw         json.RawMessage
	key         *banks.Answer
}

// shardResult is one shard's complete contribution to a query.
type shardResult struct {
	shard   int
	replica int // which replica answered
	retried int // extra attempts launched beyond the first (failovers/hedges)
	// lagRecords is the answering replica's last-disclosed replication
	// lag (0 for primaries and read-only backends) — the staleness this
	// answer may carry.
	lagRecords int64
	answers    []*wireAnswer
	trailer    *shardLine
	elapsed    time.Duration
}

// shardError identifies which shard failed a fan-out and why.
type shardError struct {
	shard int
	err   error
}

func (e *shardError) Error() string {
	return fmt.Sprintf("shard %d: %v", e.shard, e.err)
}

func (e *shardError) Unwrap() error { return e.err }

// maxLineBytes bounds one NDJSON line from a shard. Answer trees are
// dmax-bounded and labels are short, so real lines are a few KB; the
// limit only guards against a misbehaving backend.
const maxLineBytes = 8 << 20

// scatter fans the request out to one replica of every shard (with
// failover to the remaining replicas on failure) and gathers the
// complete per-shard results. The request is forwarded verbatim: same
// method, same query parameters, same body, same X-Tenant header. Every
// shard must be answered by some replica; the first shard whose entire
// replica set failed (by shard index) aborts the query with a
// *shardError.
func (rt *Router) scatter(r *http.Request, body []byte) ([]*shardResult, error) {
	results := make([]*shardResult, len(rt.groups))
	errs := make([]error, len(rt.groups))
	var wg sync.WaitGroup
	for i, g := range rt.groups {
		wg.Add(1)
		go func(i int, g *shardGroup) {
			defer wg.Done()
			results[i], errs[i] = rt.fetchGroup(r.Context(), g, r, body)
		}(i, g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, &shardError{shard: i, err: err}
		}
	}
	return results, nil
}

// attemptOutcome is one replica attempt's result, delivered to the
// fetchGroup select loop.
type attemptOutcome struct {
	rep *replicaState
	res *shardResult
	err error
}

// fetchGroup serves one shard's part of a query from its replica set:
// the best candidate (see candidates) streams first; a hard failure
// triggers immediate failover to the next candidate, and — when hedging
// is configured — a slow attempt triggers one concurrent hedge to the
// runner-up. The first completed stream wins and the losers are
// canceled. Attempts are bounded to one per replica; the whole dance
// runs under the query's own deadline. Retrying a complete per-shard
// stream is safe because replicas are deterministic (identical bytes)
// and nothing was emitted downstream yet: a partial stream from a dead
// replica is discarded wholesale, never spliced.
func (rt *Router) fetchGroup(ctx context.Context, g *shardGroup, orig *http.Request, body []byte) (*shardResult, error) {
	cands := g.candidates()
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // tears down hedge losers and abandoned attempts
	outcomes := make(chan attemptOutcome, len(cands))
	next, inflight := 0, 0
	launch := func() {
		rep := cands[next]
		next++
		inflight++
		go func() {
			res, err := rt.fetchReplica(actx, rep, orig, body)
			outcomes <- attemptOutcome{rep: rep, res: res, err: err}
		}()
	}
	launch()
	var hedgeC <-chan time.Time
	if rt.hedgeAfter > 0 && next < len(cands) {
		tm := time.NewTimer(rt.hedgeAfter)
		defer tm.Stop()
		hedgeC = tm.C
	}
	var failures []string
	for inflight > 0 {
		select {
		case out := <-outcomes:
			inflight--
			if out.err == nil {
				out.res.replica = out.rep.replica
				out.res.retried = next - 1
				if out.res.retried > 0 {
					rt.met.observeFailover(g.index)
					if rt.logger != nil {
						rt.logger.Printf("shard %d answered by replica %d after %d extra attempt(s)",
							g.index, out.rep.replica, out.res.retried)
					}
				}
				return out.res, nil
			}
			if actx.Err() != nil {
				// The query itself was canceled or timed out mid-attempt;
				// whatever error came back is tainted by that, so it says
				// nothing about the replica and launches nothing new.
				continue
			}
			failures = append(failures, fmt.Sprintf("replica %d (%s): %v", out.rep.replica, out.rep.url, out.err))
			var she *shardHTTPError
			if errors.As(out.err, &she) && she.status >= 400 && she.status < 500 {
				// The request's own fault — identical on every replica, so
				// retrying cannot help; pass the rejection through.
				return nil, out.err
			}
			if ctx.Err() != nil {
				return nil, fmt.Errorf("%s (query context: %v)", strings.Join(failures, "; "), ctx.Err())
			}
			if next < len(cands) {
				launch()
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				rt.met.observeHedge()
				launch()
			}
		}
	}
	if len(failures) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("all %d replica(s) failed: %s", len(cands), strings.Join(failures, "; "))
}

// fetchReplica runs one replica's stream to completion and parses it. It
// also feeds the replica's health state, EWMA latency, and per-replica
// metrics: a completed stream marks the replica healthy, any failure
// (other than the attempt's own cancellation) marks it unhealthy.
func (rt *Router) fetchReplica(ctx context.Context, rep *replicaState, orig *http.Request, body []byte) (*shardResult, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	start := time.Now()
	res, err := rt.fetchStream(ctx, rep, orig, body)
	elapsed := time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
			// Canceled mid-attempt: not evidence about the replica.
			rt.met.observeReplica(rep.shard, rep.replica, outcomeAttemptCanceled, elapsed)
			return nil, err
		}
		rt.met.observeReplica(rep.shard, rep.replica, outcomeAttemptError, elapsed)
		if rep.setHealth(false, err.Error(), time.Now()) && rt.logger != nil {
			rt.logger.Printf("%s unhealthy: %v", rep.name(), err)
		}
		return nil, err
	}
	rt.met.observeReplica(rep.shard, rep.replica, outcomeAttemptOK, elapsed)
	rep.observeLatency(elapsed)
	if rep.setHealth(true, "", time.Now()) && rt.logger != nil {
		rt.logger.Printf("%s healthy", rep.name())
	}
	res.elapsed = elapsed
	rep.mu.Lock()
	if rep.follower {
		res.lagRecords = rep.lagRecords
	}
	rep.mu.Unlock()
	return res, nil
}

func (rt *Router) fetchStream(ctx context.Context, rep *replicaState, orig *http.Request, body []byte) (*shardResult, error) {
	u := rep.url + "/v1/search/stream"
	if orig.URL.RawQuery != "" {
		u += "?" + orig.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, orig.Method, u, rd)
	if err != nil {
		return nil, err
	}
	if ct := orig.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if tenant := orig.Header.Get("X-Tenant"); tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeShardHTTPError(resp)
	}

	res := &shardResult{shard: rep.shard}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line shardLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("malformed stream line: %w", err)
		}
		switch line.Type {
		case "answer":
			var key answerKey
			if err := json.Unmarshal(line.Answer, &key); err != nil {
				return nil, fmt.Errorf("malformed answer object: %w", err)
			}
			skel := &banks.Answer{Root: key.Root, Score: key.Score, EdgeScore: key.EdgeScore}
			if len(key.Edges) > 0 {
				skel.Edges = make([]banks.TreeEdge, len(key.Edges))
				for i, e := range key.Edges {
					skel.Edges[i] = banks.TreeEdge{From: e.From, To: e.To}
				}
			}
			res.answers = append(res.answers, &wireAnswer{
				shard:       rep.shard,
				generatedMS: line.GeneratedMS,
				outputMS:    line.OutputMS,
				raw:         append(json.RawMessage(nil), line.Answer...),
				key:         skel,
			})
		case "trailer":
			if res.trailer != nil {
				return nil, fmt.Errorf("stream carried more than one trailer")
			}
			t := line
			res.trailer = &t
		default:
			return nil, fmt.Errorf("unknown stream line type %q", line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading stream: %w", err)
	}
	if res.trailer == nil {
		// The replica died (or was cut off) mid-stream: its partial
		// answer list is poison — discarding it here is what makes the
		// group-level retry safe and a silently truncated top-k
		// impossible.
		return nil, fmt.Errorf("stream ended without a trailer (%d answer line(s) discarded)", len(res.answers))
	}
	if res.trailer.Error != "" {
		return nil, fmt.Errorf("in-band stream error: %s", res.trailer.Error)
	}
	return res, nil
}

// shardHTTPError is a shard's own HTTP rejection (as opposed to an
// infrastructure failure reaching it): status and error code survive so
// the router can pass client faults (4xx) through instead of relabeling
// them 502.
type shardHTTPError struct {
	status  int
	code    string
	message string
}

func (e *shardHTTPError) Error() string {
	if e.code != "" {
		return fmt.Sprintf("HTTP %d (%s): %s", e.status, e.code, e.message)
	}
	return fmt.Sprintf("HTTP %d", e.status)
}

// decodeShardHTTPError turns a non-200 shard response into an error,
// surfacing the shard's own JSON error envelope when it sent one.
func decodeShardHTTPError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	herr := &shardHTTPError{status: resp.StatusCode}
	var body api.ErrorEnvelope
	if json.Unmarshal(raw, &body) == nil && body.Error.Detail != "" {
		herr.code = body.Error.Code
		herr.message = body.Error.Detail
	}
	return herr
}

// mergeResults runs the gathered per-shard answer lists through the
// canonical top-k merge (banks.MergeTopK) and maps the surviving
// skeletal answers back to their raw wire objects, preserving the
// shards' bytes untouched. k comes from the first shard's trailer — the
// post-clamp k every identically-configured shard normalized to.
func mergeResults(results []*shardResult) []*wireAnswer {
	k := results[0].trailer.K
	lists := make([][]*banks.Answer, len(results))
	byKey := make(map[*banks.Answer]*wireAnswer)
	for i, res := range results {
		lists[i] = make([]*banks.Answer, len(res.answers))
		for j, wa := range res.answers {
			lists[i][j] = wa.key
			byKey[wa.key] = wa
		}
	}
	merged := banks.MergeTopK(k, lists...)
	out := make([]*wireAnswer, len(merged))
	for i, a := range merged {
		out[i] = byKey[a]
	}
	return out
}

// aggregate folds the per-shard trailers into the routed response's
// summary fields. Work counters sum across shards (the fan-out really
// did all of it); duration is the slowest shard (the critical path).
// Truncated, degraded and budget_exhausted are sticky ORs; cached only
// when every shard answered from its cache — whichever replica answered,
// so a failover to a cold replica correctly reports cached:false. Failovers
// counts extra replica attempts across all shards (retry disclosure).
// Identity fields (query_id, algo, k, clamped) come from shard 0 —
// identical across identically-configured shards, since the query ID is
// a content hash of the query itself.
type aggregateTrailer struct {
	queryID   string
	algo      string
	k         int
	clamped   []string
	truncated bool
	cached    bool
	degraded  bool
	failovers int
	// maxReplicaLag is the largest replication lag any answering replica
	// disclosed — the staleness bound of the merged answer (0 when every
	// shard was answered by a primary or caught-up follower).
	maxReplicaLag int64
	stats         statsJSON
}

func aggregate(results []*shardResult) aggregateTrailer {
	t0 := results[0].trailer
	agg := aggregateTrailer{
		queryID: t0.QueryID,
		algo:    t0.Algo,
		k:       t0.K,
		clamped: t0.Clamped,
		cached:  true,
	}
	for _, res := range results {
		t := res.trailer
		agg.truncated = agg.truncated || t.Truncated
		agg.cached = agg.cached && t.Cached
		agg.degraded = agg.degraded || t.Degraded
		agg.failovers += res.retried
		if res.lagRecords > agg.maxReplicaLag {
			agg.maxReplicaLag = res.lagRecords
		}
		agg.stats.NodesExplored += t.Stats.NodesExplored
		agg.stats.NodesTouched += t.Stats.NodesTouched
		agg.stats.EdgesRelaxed += t.Stats.EdgesRelaxed
		agg.stats.AnswersGenerated += t.Stats.AnswersGenerated
		agg.stats.BudgetExhausted = agg.stats.BudgetExhausted || t.Stats.BudgetExhausted
		if t.Stats.DurationMS > agg.stats.DurationMS {
			agg.stats.DurationMS = t.Stats.DurationMS
		}
	}
	return agg
}

// getJSON fetches a URL and decodes its JSON body.
func (rt *Router) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
