// Command bench is the repository's benchmark: one seeded harness that
// stands every deployment tier up in-process on loopback — library
// engine, single server, sharded router, primary with follower — drives
// one of four closed-loop workloads against it, checks that the answers
// are correct, and prints end-to-end metrics (tracing off) or per-layer
// metrics (tracing on) as one JSON object. BENCHMARK.json at the
// repository root describes the metrics and workloads; README.md in this
// directory explains how to read them.
//
//	bench --workload lib_mix --seed 1 --seconds 20 --trace 0   one run (the driver's form)
//	bench -seed 1                                              every workload, both modes, one document
//	bench -aa 10                                               run-to-run spread of every end-to-end metric
//	bench -quick ...                                           the same code on a tiny dataset (go test uses it)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units (a test holds the two together); better/bound live only
// there.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"datagen.gen_s", "s"}, {"convert.build_s", "s"}, {"prestige.build_s", "s"},
	{"store.write_s", "s"}, {"store.open_ms", "ms"}, {"shard.partition_s", "s"},
	{"store.snapshot_bytes_per_node", "B"}, {"shard.size_skew", "ratio"},
	{"index.lookup_us", "us"}, {"index.postings_per_query", "count"},
	{"core.bidir_ms", "ms"}, {"core.si_ms", "ms"}, {"core.mi_ms", "ms"},
	{"core.nodes_explored_per_query", "count"}, {"core.nodes_touched_per_query", "count"},
	{"core.edges_relaxed_per_query", "count"}, {"core.ns_per_node_explored", "ns"},
	{"core.output_ratio", "ratio"}, {"core.gen_to_output_ms", "ms"},
	{"core.allocs_per_query", "count"}, {"core.bytes_per_query", "B"},
	{"engine.self_ms", "ms"}, {"engine.hit_us", "us"},
	{"engine.cache_hit_ratio", "ratio"}, {"engine.inflight_mean", "count"},
	{"server.self_ms", "ms"}, {"server.http_self_ms", "ms"},
	{"server.resp_bytes_per_query", "B"}, {"server.admission_rejects", "count"},
	{"server.mutate_self_ms", "ms"},
	{"router.self_ms", "ms"}, {"router.shard_wait_ms", "ms"}, {"router.shard_skew_ms", "ms"},
	{"router.overhead_ratio", "ratio"}, {"router.first_answer_ms", "ms"},
	{"router.failovers", "count"}, {"router.hedges", "count"}, {"router.unsharded_agreement", "ratio"},
	{"delta.overlay_self_ms", "ms"}, {"prestige.compute_ms", "ms"}, {"delta.swap_self_ms", "ms"},
	{"wal.append_nosync_ms", "ms"}, {"wal.fsync_self_ms", "ms"},
	{"wal.bytes_per_op", "B"}, {"wal.fsyncs_per_batch", "count"},
	{"mutate.ack_single_ms", "ms"},
	{"repl.visible_ms", "ms"}, {"repl.ship_ms", "ms"},
	{"repl.lag_records_max", "count"}, {"repl.bytes_shipped_per_op", "B"},
	{"delta.compact_s", "s"}, {"delta.compact_stall_ms", "ms"},
	{"delta.replay_ms_per_record", "ms"}, {"live.recover_s", "s"},
	{"run.op_p50_ms", "ms"}, {"run.search_p50_ms", "ms"}, {"run.search_qps", "1/s"},
	{"bench.trace_overhead_frac", "ratio"}, {"bench.spans", "count"},
	{"bench.ladder_clamped", "count"},
	{"bench.read_ladder_gap_frac", "ratio"}, {"bench.write_ladder_gap_frac", "ratio"},
}

// setupReps is how often a run stands its deployment up; set-up time is
// the median, so one slow fsync or page-cache miss does not decide it.
const setupReps = 3

// outDir holds everything a run writes: scratch data (removed at exit)
// and trace.json. It is relative to the working directory, which the
// driver makes the checkout root.
const outDir = "bench/out"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	aa       int
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing outcome of one run: the last line of
// standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty: all of them, both modes)")
	flag.Int64Var(&cfg.seed, "seed", 1, "the only source of randomness: dataset, query mix, Zipf draws, mutation trace")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the layer ladder")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny dataset and op lists: exercises every code path in seconds")
	flag.IntVar(&cfg.aa, "aa", 0, "run every workload (or the one named) N times on consecutive seeds and report each end-to-end metric's spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name] [--seed n] [--seconds s] [--trace 0|1] [-quick] [-aa n]")
		os.Exit(2)
	}
	var err error
	switch {
	case cfg.aa > 0:
		err = runAA(cfg)
	case cfg.workload == "":
		err = runAll(cfg)
	default:
		var res *result
		if res, err = runOne(cfg); err == nil {
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
			if !res.Correct {
				err = errors.New("a correctness gate failed")
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (c config) sizes() sizes {
	if c.quick {
		return quickSizes
	}
	return fullSizes
}

// errShortWindow reports a measured window that ended with too few
// headline ops to support a 90th percentile.
var errShortWindow = errors.New("the window is too short for a tail")

// runOne is one run of one workload in this process.
func runOne(cfg config) (*result, error) {
	known := false
	for _, n := range workloadNames {
		known = known || n == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	in, err := makeInputs(cfg.seed, cfg.sizes())
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logf("%s seed=%d trace=%d: %d nodes, %d edges, ops digest %s", cfg.workload, cfg.seed, cfg.trace,
		in.nodes, in.edges, in.digest(cfg.workload)[:16])
	logEnv()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace == 1 {
		return runTraced(cfg, in, dir, dur)
	}

	var d deployment
	setups := make([]float64, setupReps)
	for rep := range setups {
		if d != nil {
			d.close()
		}
		t := time.Now()
		if d, err = deploy(cfg.workload, in, filepath.Join(dir, fmt.Sprintf("deploy%d", rep)), nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[rep] = time.Since(t).Seconds()
	}
	defer d.close()
	o := d.run(dur, nil)
	d.verify(o)
	res := summarize(o)

	head := headline(cfg.workload, o.samples)
	p50, _ := percentile(head, 50)
	p90, err := percentile(head, 90)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errShortWindow, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Metrics = report(endToEnd, map[string]float64{
		"setup_s": median(setups), "op_p50_ms": p50, "op_p90_ms": p90,
		"ops_per_s": float64(len(head)) / o.wall.Seconds(), "peak_rss_mb": rss,
	})
	logf("set-ups %.3fs, %d headline ops in %.2fs", setups, len(head), o.wall.Seconds())
	return res, nil
}

// runTraced is the --trace 1 form of a run: the workload for half the
// window with the span recorder on in alternating slices, then the layer
// ladders, with spans written to trace.json.
func runTraced(cfg config, in *inputs, dir string, dur time.Duration) (*result, error) {
	tr := newTracer()
	tr.sliced.Store(true)
	d, err := deploy(cfg.workload, in, filepath.Join(dir, "deploy"), tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o := d.run(dur/2, tr)
	d.verify(o)
	d.close()
	res := summarize(o)

	l := newLayers()
	for name, v := range o.counters {
		l.set(name, v)
	}
	l.set("run.op_p50_ms", median(headline(cfg.workload, o.samples)))
	l.set("bench.trace_overhead_frac", traceOverhead(cfg.workload, o.samples))
	var searches []float64
	for _, s := range o.samples {
		if !s.mutate && s.err == nil {
			searches = append(searches, ms(s.lat))
		}
	}
	l.set("run.search_p50_ms", median(searches))
	l.set("run.search_qps", float64(len(searches))/o.wall.Seconds())

	tr.sliced.Store(false)
	ladderDir := filepath.Join(dir, "ladder")
	if err := os.MkdirAll(ladderDir, 0o755); err != nil {
		return nil, err
	}
	db, err := setupLadder(l, in, ladderDir)
	if err != nil {
		return nil, fmt.Errorf("set-up ladder: %w", err)
	}
	if err := readLadder(l, in, db, ladderDir, tr); err != nil {
		return nil, fmt.Errorf("read ladder: %w", err)
	}
	if err := writeLadder(l, in, db, ladderDir, tr); err != nil {
		return nil, fmt.Errorf("write ladder: %w", err)
	}
	l.set("bench.ladder_clamped", float64(l.clamped))
	l.set("bench.spans", float64(len(tr.snapshot())))
	if err := tr.write(filepath.Join(outDir, "trace.json")); err != nil {
		return nil, err
	}

	res.Metrics = report(perLayer, l.values)
	return res, nil
}

// summarize folds samples and gates into the driver's counts.
func summarize(o *outcome) *result {
	res := &result{Attempted: len(o.samples) + len(o.checks)}
	for _, s := range o.samples {
		if s.err != nil {
			res.Failed++
		}
	}
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			res.Failed++
			status = "FAILED"
		}
		logf("gate %-26s %s  %s", c.name, status, c.note)
	}
	for _, line := range o.info {
		logf("%s", line)
	}
	res.Correct = res.Failed == 0
	return res
}

// isHeadline reports whether s is a successful instance of the workload's
// headline operation: the durable mutation ack on mutate_mixed, the search
// elsewhere.
func isHeadline(name string, s sample) bool {
	return s.err == nil && s.op >= 0 && s.mutate == (name == "mutate_mixed")
}

// headline returns the sorted latencies (ms) of the headline operation.
func headline(name string, samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if isHeadline(name, s) {
			out = append(out, ms(s.lat))
		}
	}
	return sortedCopy(out)
}

// traceOverhead is (traced p50 − untraced p50) ÷ untraced p50 of the
// headline op in a traced run, whose slices alternate between the two.
// Where ops repeat it is taken per op and the median over ops reported, so
// that the cost spread between different queries cancels; where they do
// not (mutation batches), the two populations are compared whole.
func traceOverhead(name string, samples []sample) float64 {
	type pair struct{ on, off []float64 }
	byOp := map[int]*pair{}
	var all pair
	for _, s := range samples {
		if !isHeadline(name, s) {
			continue
		}
		p := byOp[s.op]
		if p == nil {
			p = &pair{}
			byOp[s.op] = p
		}
		if s.traced {
			p.on, all.on = append(p.on, ms(s.lat)), append(all.on, ms(s.lat))
		} else {
			p.off, all.off = append(p.off, ms(s.lat)), append(all.off, ms(s.lat))
		}
	}
	rel := func(p pair) float64 { return (median(p.on) - median(p.off)) / median(p.off) }
	var perOp []float64
	for _, p := range byOp {
		if len(p.on) > 0 && len(p.off) > 0 {
			perOp = append(perOp, rel(*p))
		}
	}
	switch {
	case len(perOp) >= minBeyond:
		return median(perOp)
	case len(all.on) > 0 && len(all.off) > 0:
		return rel(all)
	}
	return 0
}

// report attaches units to measured values. Every declared metric
// appears in the output; one a run had no occasion to measure reads 0.
func report(defs []metricDef, values map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{values[d.name], d.unit}
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// env describes where the figures were taken.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func currentEnv() env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func logEnv() {
	e := currentEnv()
	logf("env: nproc=%d GOMAXPROCS=%d %s commit=%s", e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}
