package server

import (
	"io"
	"sync"
	"time"

	"banks/internal/api"
)

// metrics is the serving layer's Prometheus-text exporter (helpers in
// internal/api): HTTP requests by path and status, queries by algorithm
// and outcome, a query-latency sum/count pair (enough for rate() and
// average-latency panels), and streaming delivery. Engine, admission and
// runtime values are appended at scrape time by the /metrics handler,
// which reads them from their owners instead of mirroring them here.
type metrics struct {
	requests api.CounterVec // path, code — fed by api.Instrument
	queries  api.CounterVec // algo, outcome

	mu      sync.Mutex
	qSecSum float64
	qCount  uint64
	// Streaming delivery: total streams served, total answers emitted
	// across all streams, and a first-answer-latency sum/count pair over
	// streams that produced at least one answer — the interactive-latency
	// axis the paper's §5.2 generation-vs-output split is about.
	streams       uint64
	streamAnswers uint64
	faSecSum      float64
	faCount       uint64
}

// Query outcomes: every query the serving layer runs lands in exactly one.
const (
	outcomeOK        = "ok"
	outcomeTruncated = "truncated"
	outcomeError     = "error"
)

// observeQuery counts one query by algorithm and outcome. The latency
// summary covers only queries that executed (ok or truncated): errored
// queries never ran to produce a meaningful duration, and mixing zeros
// in would skew the average the sum/count pair exists to provide.
func (m *metrics) observeQuery(algo string, outcome string, elapsed time.Duration) {
	m.queries.Inc(algo, outcome)
	if outcome == outcomeError {
		return
	}
	m.mu.Lock()
	m.qSecSum += elapsed.Seconds()
	m.qCount++
	m.mu.Unlock()
}

// observeStream records one finished stream: how many answers it
// emitted, and (when it emitted any) the wall-clock latency from request
// handling start to its first answer.
func (m *metrics) observeStream(answers int, firstAnswer time.Duration) {
	m.mu.Lock()
	m.streams++
	m.streamAnswers += uint64(answers)
	if answers > 0 {
		m.faSecSum += firstAnswer.Seconds()
		m.faCount++
	}
	m.mu.Unlock()
}

// write renders the exposition: the handler-observed families first, then
// the scrape-time counters and gauges in the order given.
func (m *metrics) write(w io.Writer, counters []api.Counter, gauges []api.Gauge) {
	m.mu.Lock()
	qSecSum, qCount := m.qSecSum, m.qCount
	streams, streamAnswers := m.streams, m.streamAnswers
	faSecSum, faCount := m.faSecSum, m.faCount
	m.mu.Unlock()

	api.WriteRequests(w, "banksd", &m.requests)
	m.queries.Write(w, "banksd_queries_total", "Search and near queries executed, by algorithm and outcome (ok, truncated, error).", "algo", "outcome")
	api.WriteSummary(w, "banksd_query_duration_seconds", "Execution time of queries that produced results (ok or truncated); errored queries are excluded.", qSecSum, qCount)
	api.WriteSummary(w, "banksd_first_answer_seconds", "Wall-clock latency from stream request start to its first emitted answer (streams that emitted at least one).", faSecSum, faCount)
	api.WriteCounters(w,
		api.Counter{Name: "banksd_streams_total", Help: "Streaming search requests served to completion.", Value: streams},
		api.Counter{Name: "banksd_stream_answers_total", Help: "Answers emitted across all streams.", Value: streamAnswers})
	api.WriteCounters(w, counters...)
	api.WriteGauges(w, gauges...)
}
