package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50}, {101, 50, 51}, {1, 50, 1}, {2, 50, 1},
		{100, 90, 90}, {200, 95, 190}, {110, 90, 99}, {1000, 99, 990},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%v of 1..%d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p90 of 99 samples: rank 90, 9 beyond — one short.
	if _, err := percentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples was reported with 9 samples beyond it")
	}
	if _, err := percentile(seq(100), 90); err != nil {
		t.Errorf("p90 of 100 samples (10 beyond) refused: %v", err)
	}
	if _, err := percentile(seq(199), 95); err == nil {
		t.Error("p95 of 199 samples was reported with 9 samples beyond it")
	}
	// The median is exempt: it needs no tail.
	if _, err := percentile(seq(3), 50); err != nil {
		t.Errorf("median of 3 refused: %v", err)
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, q2, q3)
	}
}

func TestLadderSelfClampsAndCounts(t *testing.T) {
	d := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x)
		}
		return out
	}
	// Differences 5, -2→0, 7: median 5, one clamped.
	self, clamped := ladderSelf(d(15, 8, 27), d(10, 10, 20))
	if self != 5 || clamped != 1 {
		t.Errorf("self=%v clamped=%d, want 5 and 1", self, clamped)
	}
	// A slow outlier op must not pass for layer cost: per-op differences
	// first, then the median.
	self, clamped = ladderSelf(d(101, 1002, 103), d(100, 1000, 100))
	if self != 2 || clamped != 0 {
		t.Errorf("self=%v clamped=%d, want 2 and 0", self, clamped)
	}
	// All negative: zero, all counted.
	self, clamped = ladderSelf(d(1, 2), d(5, 5))
	if self != 0 || clamped != 2 {
		t.Errorf("self=%v clamped=%d, want 0 and 2", self, clamped)
	}
}

func TestScrapeMetrics(t *testing.T) {
	page := `# HELP banksd_http_requests_total HTTP requests served, by path and status code.
# TYPE banksd_http_requests_total counter
banksd_http_requests_total{path="/v1/search",code="200"} 41
banksd_http_requests_total{path="other path",code="404"} 1
banksd_query_duration_seconds_sum 0.125
banksd_admission_rejected_total 0

banksrouter_failovers_total{shard="0"} 2
banksrouter_failovers_total{shard="1"} 3
go_goroutines 1.7e+01
`
	m, err := scrapeMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`banksd_http_requests_total{path="/v1/search",code="200"}`: 41,
		`banksd_http_requests_total{path="other path",code="404"}`: 1,
		`banksd_query_duration_seconds_sum`:                        0.125,
		`banksd_admission_rejected_total`:                          0,
		`go_goroutines`:                                            17,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if got := sumSeries(m, "banksrouter_failovers_total"); got != 5 {
		t.Errorf("failovers sum = %v, want 5", got)
	}
	if got := sumSeries(m, "banksd_http_requests_total"); got != 42 {
		t.Errorf("requests sum = %v, want 42", got)
	}
	if got := sumSeries(m, "absent_total"); got != 0 {
		t.Errorf("absent series sum = %v", got)
	}
	for _, bad := range []string{"name_without_value\n", "name{l=\"v\"}\n", "name notanumber\n"} {
		if _, err := scrapeMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("malformed page %q accepted", bad)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median(nil); got != 0 || math.IsNaN(got) {
		t.Errorf("median(nil) = %v", got)
	}
}
