package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestOpListsDependOnTheSeedAlone(t *testing.T) {
	a, err := makeInputs(1, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(1, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeInputs(2, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		if a.digest(w) != b.digest(w) {
			t.Errorf("%s: same seed, different op lists", w)
		}
		if a.digest(w) == c.digest(w) {
			t.Errorf("%s: different seeds, same op list", w)
		}
	}
	if len(a.mix) != len(b.mix) || len(a.hotSeq) != len(b.hotSeq) || len(a.batches) != len(b.batches) {
		t.Error("same seed, different op counts")
	}
	if len(a.mix) == 0 || len(a.hot) == 0 || len(a.route) == 0 || len(a.reader) == 0 || len(a.ladder) == 0 {
		t.Errorf("an op list is empty: mix %d hot %d route %d reader %d ladder %d",
			len(a.mix), len(a.hot), len(a.route), len(a.reader), len(a.ladder))
	}
}

// exactCounts are the per-layer metrics that are counts of work, not
// times: with one seed they must repeat bit for bit.
var exactCounts = []string{
	"index.postings_per_query", "core.nodes_explored_per_query", "core.nodes_touched_per_query",
	"core.edges_relaxed_per_query", "core.output_ratio", "store.snapshot_bytes_per_node",
	"shard.size_skew", "wal.bytes_per_op", "wal.fsyncs_per_batch", "repl.bytes_shipped_per_op",
	"router.unsharded_agreement",
}

func climb(t *testing.T, in *inputs) map[string]float64 {
	t.Helper()
	dir := t.TempDir()
	l, tr := newLayers(), newTracer()
	db, err := setupLadder(l, in, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := readLadder(l, in, db, dir, tr); err != nil {
		t.Fatal(err)
	}
	if err := writeLadder(l, in, db, dir, tr); err != nil {
		t.Fatal(err)
	}
	return l.values
}

func TestExactCountsRepeat(t *testing.T) {
	in, err := makeInputs(1, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	first, second := climb(t, in), climb(t, in)
	for _, name := range exactCounts {
		a, ok := first[name]
		if !ok {
			t.Errorf("%s: not reported", name)
			continue
		}
		if b := second[name]; a != b {
			t.Errorf("%s: %v then %v on the same seed", name, a, b)
		}
	}
	for _, name := range []string{"core.nodes_explored_per_query", "wal.bytes_per_op", "index.postings_per_query"} {
		if first[name] <= 0 {
			t.Errorf("%s = %v, want a positive count", name, first[name])
		}
	}
}

// TestQuickEveryWorkload is the harness's own tier-1 coverage: every
// workload in both modes on the tiny dataset, every gate green, every
// declared metric present.
func TestQuickEveryWorkload(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloadNames {
		seconds := 2.0
		if w == "mutate_mixed" {
			seconds = 6 // acks are the slowest headline op; p90 needs 100 of them
		}
		res, err := runOne(config{workload: w, seed: 1, seconds: seconds, quick: true})
		for errors.Is(err, errShortWindow) && seconds < 60 { // a slow host, or the race detector
			seconds *= 2
			res, err = runOne(config{workload: w, seed: 1, seconds: seconds, quick: true})
		}
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || v.Value <= 0 {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w, m.name, v, ok, m.unit)
			}
		}

		res, err = runOne(config{workload: w, seed: 1, seconds: 2, trace: 1, quick: true})
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: a gate failed", w)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", w, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("%s traced: %s = %+v (present %v), want unit %s", w, m.name, v, ok, m.unit)
			}
		}
		for _, name := range []string{"core.bidir_ms", "engine.hit_us", "server.self_ms", "router.shard_wait_ms",
			"prestige.compute_ms", "wal.append_nosync_ms", "mutate.ack_single_ms", "repl.visible_ms",
			"live.recover_s", "delta.compact_s", "run.op_p50_ms", "bench.spans"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s traced: %s = %v, want it measured", w, name, res.Metrics[name].Value)
			}
		}
		checkTraceFile(t, filepath.Join(outDir, "trace.json"))
	}
	left, _ := filepath.Glob(filepath.Join(outDir, "run-*"))
	if len(left) != 0 {
		t.Errorf("scratch data left behind: %v", left)
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	tree := buildSpanTree(doc.Spans)
	for _, s := range doc.Spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := tree.byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s) names a parent %d that was not recorded", s.ID, s.Name, s.Parent)
		} else if p.Request != s.Request {
			t.Errorf("span %d (%s) and its parent belong to different requests", s.ID, s.Name)
		}
	}
}

// TestBenchmarkFileMatchesCode holds BENCHMARK.json and the metric tables
// in main.go together, and checks the file against the limits of the
// contract it is written to.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the code", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), code has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("end_to_end[%d]: name %q or unit %q outside the contract's alphabet", i, m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the code (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), code has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer[%d]: name %q / unit %q invalid or repeated", i, m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the file, %d in the code", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workloads[%d] = %s, code has %s", i, w.Name, workloadNames[i])
		}
	}
}
