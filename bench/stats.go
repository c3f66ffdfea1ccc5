package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark will report it: a tail estimated from fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, or an error when fewer than minBeyond samples lie beyond it.
// The median (p = 50) is exempt from the rule: it is always reportable.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile: no samples")
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile: p=%v outside (0,100)", p)
	}
	rank := int(math.Ceil(p * float64(n) / 100)) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if p != 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("percentile: p%v of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the nearest-rank median of values (0 when empty). It
// sorts a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m, _ := percentile(sortedCopy(values), 50)
	return m
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the driver uses to judge
// run-to-run spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// ladderSelf derives a layer's self time from two rungs of the ladder:
// upper is the time of a call that enters at the layer, lower the time of
// the same op entering one layer below. The per-op differences are taken
// first and their median reported, so one slow op cannot masquerade as
// layer cost. Negative differences (the lower rung happened to run slower
// than the upper one — noise) clamp to zero and are counted.
func ladderSelf(upper, lower []time.Duration) (self time.Duration, clamped int) {
	n := min(len(upper), len(lower))
	diffs := make([]float64, n)
	for i := 0; i < n; i++ {
		d := upper[i] - lower[i]
		if d < 0 {
			d = 0
			clamped++
		}
		diffs[i] = float64(d)
	}
	return time.Duration(median(diffs)), clamped
}

// scrapeMetrics parses Prometheus text exposition into series → value.
// The series key is the line's left-hand side verbatim (name plus label
// block), e.g. `banksd_http_requests_total{path="/v1/search",code="200"}`.
func scrapeMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space outside the label block;
		// label values may themselves contain spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || strings.LastIndexByte(line, '}') > cut {
			return nil, fmt.Errorf("metrics: no value on line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value on line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// sumSeries adds up every series whose name (the part before any label
// block) equals name.
func sumSeries(m map[string]float64, name string) float64 {
	var total float64
	for k, v := range m {
		base, _, _ := strings.Cut(k, "{")
		if base == name {
			total += v
		}
	}
	return total
}
