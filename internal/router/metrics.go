package router

import (
	"fmt"
	"io"
	"sync"
	"time"

	"banks/internal/api"
)

// metrics is the router's Prometheus-text exporter (helpers in
// internal/api): deterministic ordering (sorted label keys, fixed
// shard/replica indexes) so scrapes are testable by string comparison.
// Per-replica series are arrays indexed by shard and replica position —
// the label space is fixed at construction, never minted per request.
type metrics struct {
	requests api.CounterVec // path, code — fed by api.Instrument
	queries  api.CounterVec // outcome

	mu      sync.Mutex
	qSecSum float64
	qCount  uint64
	// Per-replica attempt outcomes and latency, [shard][replica].
	// Latency sums cover successful fetches only: a failed fetch's
	// duration measures the failure mode, not the replica's service
	// time, and would skew the average. Canceled attempts (hedge losers,
	// query teardown) are counted apart from errors — they say nothing
	// about the replica.
	repOK       [][]uint64
	repErr      [][]uint64
	repCanceled [][]uint64
	repSecSum   [][]float64
	// failovers[shard] counts queries the shard answered only after
	// extra replica attempts; hedges counts hedge timers fired.
	failovers []uint64
	hedges    uint64
}

func newMetrics(groups []*shardGroup) *metrics {
	m := &metrics{
		repOK:       make([][]uint64, len(groups)),
		repErr:      make([][]uint64, len(groups)),
		repCanceled: make([][]uint64, len(groups)),
		repSecSum:   make([][]float64, len(groups)),
		failovers:   make([]uint64, len(groups)),
	}
	for i, g := range groups {
		n := len(g.replicas)
		m.repOK[i] = make([]uint64, n)
		m.repErr[i] = make([]uint64, n)
		m.repCanceled[i] = make([]uint64, n)
		m.repSecSum[i] = make([]float64, n)
	}
	return m
}

// Routed-query outcomes.
const (
	outcomeOK        = "ok"
	outcomeTruncated = "truncated"
	outcomeError     = "error"
)

// Per-replica attempt outcomes.
const (
	outcomeAttemptOK       = "ok"
	outcomeAttemptError    = "error"
	outcomeAttemptCanceled = "canceled"
)

// observeQuery counts one routed query; the latency pair covers the full
// scatter-gather-merge wall time of queries that produced a result.
func (m *metrics) observeQuery(outcome string, elapsed time.Duration) {
	m.queries.Inc(outcome)
	if outcome == outcomeError {
		return
	}
	m.mu.Lock()
	m.qSecSum += elapsed.Seconds()
	m.qCount++
	m.mu.Unlock()
}

// observeReplica records one fan-out attempt against a replica.
func (m *metrics) observeReplica(shard, replica int, outcome string, elapsed time.Duration) {
	m.mu.Lock()
	switch outcome {
	case outcomeAttemptOK:
		m.repOK[shard][replica]++
		m.repSecSum[shard][replica] += elapsed.Seconds()
	case outcomeAttemptCanceled:
		m.repCanceled[shard][replica]++
	default:
		m.repErr[shard][replica]++
	}
	m.mu.Unlock()
}

// observeFailover counts one query a shard answered only after extra
// replica attempts.
func (m *metrics) observeFailover(shard int) {
	m.mu.Lock()
	m.failovers[shard]++
	m.mu.Unlock()
}

// observeHedge counts one hedge timer firing (a concurrent attempt
// launched against a slow replica's runner-up).
func (m *metrics) observeHedge() {
	m.mu.Lock()
	m.hedges++
	m.mu.Unlock()
}

// replicaCounts returns one replica's request/error totals for /statusz
// (canceled attempts count as requests, not errors).
func (m *metrics) replicaCounts(shard, replica int) (requests, errors uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.repOK[shard][replica] + m.repErr[shard][replica] + m.repCanceled[shard][replica],
		m.repErr[shard][replica]
}

// shardFailovers returns one shard's failover total for /statusz.
func (m *metrics) shardFailovers(shard int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failovers[shard]
}

// replicaGauges are the per-replica instantaneous values sampled by the
// scrape handler, [shard][replica].
type replicaGauges struct {
	healthy  [][]bool
	inflight [][]int64
}

func (m *metrics) write(w io.Writer, gauges []api.Gauge, rg replicaGauges) {
	m.mu.Lock()
	qSecSum, qCount := m.qSecSum, m.qCount
	repOK := copy2D(m.repOK)
	repErr := copy2D(m.repErr)
	repCanceled := copy2D(m.repCanceled)
	repSecSum := copy2D(m.repSecSum)
	failovers := append([]uint64(nil), m.failovers...)
	hedges := m.hedges
	m.mu.Unlock()

	api.WriteRequests(w, "banksrouter", &m.requests)
	m.queries.Write(w, "banksrouter_queries_total", "Routed search queries, by outcome (ok, truncated, error).", "outcome")
	api.WriteSummary(w, "banksrouter_query_duration_seconds", "Scatter-gather-merge wall time of routed queries that produced a result.", qSecSum, qCount)

	fmt.Fprintln(w, "# HELP banksrouter_shard_requests_total Fan-out attempts per replica, by outcome (ok, error, canceled).")
	fmt.Fprintln(w, "# TYPE banksrouter_shard_requests_total counter")
	for i := range repOK {
		for j := range repOK[i] {
			fmt.Fprintf(w, "banksrouter_shard_requests_total{shard=\"%d\",replica=\"%d\",outcome=\"ok\"} %d\n", i, j, repOK[i][j])
			fmt.Fprintf(w, "banksrouter_shard_requests_total{shard=\"%d\",replica=\"%d\",outcome=\"error\"} %d\n", i, j, repErr[i][j])
			fmt.Fprintf(w, "banksrouter_shard_requests_total{shard=\"%d\",replica=\"%d\",outcome=\"canceled\"} %d\n", i, j, repCanceled[i][j])
		}
	}

	fmt.Fprintln(w, "# HELP banksrouter_shard_latency_seconds Per-replica stream service time of successful fan-out attempts.")
	fmt.Fprintln(w, "# TYPE banksrouter_shard_latency_seconds summary")
	for i := range repOK {
		for j := range repOK[i] {
			fmt.Fprintf(w, "banksrouter_shard_latency_seconds_sum{shard=\"%d\",replica=\"%d\"} %s\n", i, j, api.FormatFloat(repSecSum[i][j]))
			fmt.Fprintf(w, "banksrouter_shard_latency_seconds_count{shard=\"%d\",replica=\"%d\"} %d\n", i, j, repOK[i][j])
		}
	}

	fmt.Fprintln(w, "# HELP banksrouter_failovers_total Queries a shard answered only after extra replica attempts.")
	fmt.Fprintln(w, "# TYPE banksrouter_failovers_total counter")
	for i, v := range failovers {
		fmt.Fprintf(w, "banksrouter_failovers_total{shard=\"%d\"} %d\n", i, v)
	}

	api.WriteCounters(w, api.Counter{Name: "banksrouter_hedges_total", Help: "Hedge attempts launched against slow replicas.", Value: hedges})

	fmt.Fprintln(w, "# HELP banksrouter_shard_healthy 1 when at least one replica of the shard is healthy.")
	fmt.Fprintln(w, "# TYPE banksrouter_shard_healthy gauge")
	for i := range rg.healthy {
		any := false
		for _, h := range rg.healthy[i] {
			any = any || h
		}
		fmt.Fprintf(w, "banksrouter_shard_healthy{shard=\"%d\"} %s\n", i, api.FormatFloat(api.BoolGauge(any)))
	}

	fmt.Fprintln(w, "# HELP banksrouter_replica_healthy 1 when the replica's last probe or query succeeded.")
	fmt.Fprintln(w, "# TYPE banksrouter_replica_healthy gauge")
	for i := range rg.healthy {
		for j, h := range rg.healthy[i] {
			fmt.Fprintf(w, "banksrouter_replica_healthy{shard=\"%d\",replica=\"%d\"} %s\n", i, j, api.FormatFloat(api.BoolGauge(h)))
		}
	}

	fmt.Fprintln(w, "# HELP banksrouter_replica_inflight In-flight fan-out attempts per replica.")
	fmt.Fprintln(w, "# TYPE banksrouter_replica_inflight gauge")
	for i := range rg.inflight {
		for j, n := range rg.inflight[i] {
			fmt.Fprintf(w, "banksrouter_replica_inflight{shard=\"%d\",replica=\"%d\"} %d\n", i, j, n)
		}
	}

	api.WriteGauges(w, gauges...)
}

func copy2D[T uint64 | float64](src [][]T) [][]T {
	out := make([][]T, len(src))
	for i, row := range src {
		out[i] = append([]T(nil), row...)
	}
	return out
}
