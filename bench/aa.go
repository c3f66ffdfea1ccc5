package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// Multi-run modes. Each run is a fresh child process, so one workload's
// peak memory and warmed caches cannot leak into the next one's figures.

// child runs one workload in a child process and parses the result line.
func child(cfg config, workload string, seed int64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to exit
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: no result (%v): %w", workload, seed, trace, runErr, err)
	}
	return &res, nil
}

// runAll runs every workload in both modes and prints one document.
func runAll(cfg config) error {
	in, err := makeInputs(cfg.seed, cfg.sizes())
	if err != nil {
		return err
	}
	type row struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		EndToEnd  map[string]value `json:"end_to_end"`
		PerLayer  map[string]value `json:"per_layer"`
	}
	doc := struct {
		Env     env     `json:"env"`
		Seed    int64   `json:"seed"`
		Seconds float64 `json:"seconds"`
		Quick   bool    `json:"quick"`
		Dataset struct {
			Factor float64 `json:"factor"`
			Nodes  int     `json:"nodes"`
			Edges  int     `json:"edges"`
		} `json:"dataset"`
		Claim     any            `json:"claim"` // this benchmark measures; it claims no gain
		Workloads map[string]row `json:"workloads"`
	}{Env: currentEnv(), Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick, Workloads: map[string]row{}}
	doc.Dataset.Factor, doc.Dataset.Nodes, doc.Dataset.Edges = in.sz.factor, in.nodes, in.edges
	allCorrect := true
	for _, w := range workloadNames {
		e2e, err := child(cfg, w, cfg.seed, 0)
		if err != nil {
			return err
		}
		layer, err := child(cfg, w, cfg.seed, 1)
		if err != nil {
			return err
		}
		r := row{
			Correct:   e2e.Correct && layer.Correct,
			Attempted: e2e.Attempted + layer.Attempted,
			Failed:    e2e.Failed + layer.Failed,
			EndToEnd:  e2e.Metrics, PerLayer: layer.Metrics,
		}
		allCorrect = allCorrect && r.Correct
		doc.Workloads[w] = r
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !allCorrect {
		return fmt.Errorf("a correctness gate failed")
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the A/A check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runAA measures the benchmark against itself: N runs per workload on
// consecutive seeds, and for every end-to-end metric the distance between
// the first and third quartile as a share of the median — the driver's
// own acceptance statistic. A spread above a third of the metric's bound
// is marked: a later change could then regress by the bound and hide in
// the noise.
func runAA(cfg config) error {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	type stat struct {
		Median float64   `json:"median"`
		Q1     float64   `json:"q1"`
		Q3     float64   `json:"q3"`
		Spread float64   `json:"spread"`
		Bound  float64   `json:"bound"`
		Mark   string    `json:"mark"`
		Values []float64 `json:"values"`
	}
	doc := struct {
		Env       env                        `json:"env"`
		Runs      int                        `json:"runs"`
		Seconds   float64                    `json:"seconds"`
		FirstSeed int64                      `json:"first_seed"`
		Workloads map[string]map[string]stat `json:"workloads"`
	}{currentEnv(), cfg.aa, cfg.seconds, cfg.seed, map[string]map[string]stat{}}
	exceeded := 0
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	for _, w := range names {
		values := map[string][]float64{}
		for i := 0; i < cfg.aa; i++ {
			res, err := child(cfg, w, cfg.seed+int64(i), 0)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: a correctness gate failed", w, cfg.seed+int64(i))
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		doc.Workloads[w] = map[string]stat{}
		for _, m := range bf.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			s := stat{Median: q2, Q1: q1, Q3: q3, Bound: m.Bound, Mark: "ok", Values: values[m.Name]}
			if q2 != 0 {
				s.Spread = (q3 - q1) / q2
			}
			switch {
			case s.Spread > m.Bound:
				s.Mark = "EXCEEDS_BOUND"
				if m.Name != "setup_s" { // the driver exempts set-up time from the spread rule
					exceeded++
				}
			case s.Spread > m.Bound/3:
				s.Mark = "above_a_third_of_bound"
			}
			doc.Workloads[w][m.Name] = s
			logf("aa %-14s %-12s median %10.4f  q1 %10.4f  q3 %10.4f  spread %.3f  bound %.2f  %s",
				w, m.Name, q2, q1, q3, s.Spread, m.Bound, s.Mark)
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if exceeded > 0 {
		return fmt.Errorf("%d metric × workload pairs spread wider than their bound", exceeded)
	}
	return nil
}
