package api

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Prometheus text-format helpers, standard library only (the repo
// deliberately takes no dependencies). Every writer emits series in a
// deterministic order, so scrapes are testable by string comparison.

// CounterVec is a counter family keyed by label values. The label space
// is the caller's to bound: every distinct combination is a permanent
// series.
type CounterVec struct {
	mu sync.Mutex
	n  map[string]uint64 // label values joined by "|"
}

// Inc adds one to the series with the given label values.
func (c *CounterVec) Inc(values ...string) {
	key := strings.Join(values, "|")
	c.mu.Lock()
	if c.n == nil {
		c.n = make(map[string]uint64)
	}
	c.n[key]++
	c.mu.Unlock()
}

// Write renders the family, one series per label-value combination seen,
// sorted by label values; labels names the labels in Inc's value order.
func (c *CounterVec) Write(w io.Writer, name, help string, labels ...string) {
	c.mu.Lock()
	n := maps.Clone(c.n)
	c.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, k := range slices.Sorted(maps.Keys(n)) {
		pairs := make([]string, len(labels))
		for i, v := range strings.Split(k, "|") {
			pairs[i] = fmt.Sprintf("%s=%q", labels[i], v)
		}
		fmt.Fprintf(w, "%s{%s} %d\n", name, strings.Join(pairs, ","), n[k])
	}
}

// WriteRequests renders the request counter Instrument feeds as
// <prefix>_http_requests_total{path,code}.
func WriteRequests(w io.Writer, prefix string, requests *CounterVec) {
	requests.Write(w, prefix+"_http_requests_total", "HTTP requests served, by path and status code.", "path", "code")
}

// Counter is one cumulative value owned elsewhere (engine cache,
// admission gate, WAL), sampled at scrape time.
type Counter struct {
	Name, Help string
	Value      uint64
}

// Gauge is one instantaneous value sampled at scrape time.
type Gauge struct {
	Name, Help string
	Value      float64
}

// WriteCounters renders unlabelled counters, one family each.
func WriteCounters(w io.Writer, cs ...Counter) {
	for _, c := range cs {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.Name, c.Help, c.Name, c.Name, c.Value)
	}
}

// WriteGauges renders unlabelled gauges, one family each.
func WriteGauges(w io.Writer, gs ...Gauge) {
	for _, g := range gs {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", g.Name, g.Help, g.Name, g.Name, FormatFloat(g.Value))
	}
}

// WriteSummary renders an unlabelled sum/count pair — enough for rate()
// and average-latency panels.
func WriteSummary(w io.Writer, name, help string, sum float64, count uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n%s_sum %s\n%s_count %d\n", name, help, name, name, FormatFloat(sum), name, count)
}

// FormatFloat renders a sample value in the shortest form that round-trips.
func FormatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// BoolGauge maps a condition to a 0/1 gauge value.
func BoolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
