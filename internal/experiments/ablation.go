package experiments

import (
	"fmt"
	"strings"

	"banks/internal/core"
	"banks/internal/datagen"
	"banks/internal/graph"
	"banks/internal/prestige"
	"banks/internal/workload"
)

// AblationRow reports the effect of one design-choice variant on a fixed
// skewed-origin workload ((T,T,L,L) combo queries, the configuration where
// Bidirectional search's choices matter most).
type AblationRow struct {
	Dimension string // which knob is being varied
	Variant   string // the knob's value
	// AvgExplored / AvgGenMs are averaged over the workload, measured at
	// the last relevant result (§5.2).
	AvgExplored float64
	AvgGenMs    float64
	AvgOutMs    float64
	Recall      float64
	N           int
}

// Ablations sweeps the search's main design choices: the activation
// attenuation µ, the depth cutoff dmax, max- vs sum-combination of
// activation, the §4.5 bound mode, and the prestige source. Every variant
// runs Bidirectional search on the same (T,T,L,L) workload.
func Ablations(cfg Config) ([]AblationRow, error) {
	env, err := NewEnvSnapshot("dblp", cfg.Factor, cfg.SnapshotDir)
	if err != nil {
		return nil, err
	}
	rng := newRng(cfg, 7777)
	combo := [4]datagen.Band{datagen.BandTiny, datagen.BandTiny, datagen.BandLarge, datagen.BandLarge}
	var queries []*workload.Query
	for i := 0; i < cfg.QueriesPerCell && len(queries) < cfg.QueriesPerCell; i++ {
		if q, ok := env.Gen.Combo(rng, combo); ok {
			queries = append(queries, q)
		}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("experiments: no ablation queries")
	}

	base := core.Options{K: cfg.K, MaxNodes: cfg.MaxNodes}
	var rows []AblationRow

	run := func(dim, variant string, opts core.Options) error {
		row := AblationRow{Dimension: dim, Variant: variant}
		var sumExpl, sumGen, sumOut, sumRecall float64
		for _, q := range queries {
			res, err := core.Bidirectional(nil, env.Built.Graph, q.Keywords, opts)
			if err != nil {
				return err
			}
			m := Measure(res, q)
			sumExpl += float64(m.Explored)
			sumGen += float64(m.GenTime.Microseconds()) / 1000
			sumOut += float64(m.Time.Microseconds()) / 1000
			if m.Total > 0 {
				found := m.Found
				if m.Total > cfg.K {
					sumRecall += float64(found) / float64(cfg.K)
				} else {
					sumRecall += float64(found) / float64(m.Total)
				}
			}
			row.N++
		}
		row.AvgExplored = sumExpl / float64(row.N)
		row.AvgGenMs = sumGen / float64(row.N)
		row.AvgOutMs = sumOut / float64(row.N)
		row.Recall = sumRecall / float64(row.N)
		rows = append(rows, row)
		return nil
	}

	// µ sweep (paper default 0.5): lower µ keeps activation near keyword
	// nodes; higher µ lets it travel farther.
	for _, mu := range []float64{0.2, 0.5, 0.8} {
		o := base
		o.Mu = mu
		if err := run("mu", fmt.Sprintf("%.1f", mu), o); err != nil {
			return nil, err
		}
	}
	// dmax sweep (paper default 8).
	for _, dmax := range []int{4, 8, 12} {
		o := base
		o.DMax = dmax
		if err := run("dmax", fmt.Sprint(dmax), o); err != nil {
			return nil, err
		}
	}
	// Activation combination: max (paper default) vs sum (footnote 6).
	{
		o := base
		if err := run("combine", "max", o); err != nil {
			return nil, err
		}
		o.ActivationSum = true
		if err := run("combine", "sum", o); err != nil {
			return nil, err
		}
	}
	// Bound mode: heuristic (paper experiments) vs strict NRA-style.
	{
		o := base
		if err := run("bound", "heuristic", o); err != nil {
			return nil, err
		}
		o.StrictBound = true
		if err := run("bound", "strict", o); err != nil {
			return nil, err
		}
	}
	// Prestige source: random walk (paper) vs indegree (BANKS-I) vs
	// uniform. Swapping prestige changes activation seeds and scores.
	{
		g := env.Built.Graph
		saved := make([]float64, g.NumNodes())
		for i := range saved {
			saved[i] = g.Prestige(graph.NodeID(i))
		}
		if err := run("prestige", "random-walk", base); err != nil {
			return nil, err
		}
		if err := g.SetPrestige(prestige.Indegree(g)); err != nil {
			return nil, err
		}
		if err := run("prestige", "indegree", base); err != nil {
			return nil, err
		}
		uniform := make([]float64, g.NumNodes())
		for i := range uniform {
			uniform[i] = 1
		}
		if err := g.SetPrestige(uniform); err != nil {
			return nil, err
		}
		if err := run("prestige", "uniform", base); err != nil {
			return nil, err
		}
		if err := g.SetPrestige(saved); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatAblations renders the sweep.
func FormatAblations(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Ablations: Bidirectional search on (T,T,L,L) workload\n")
	sb.WriteString("dimension | variant | avg explored | avg gen(ms) | avg out(ms) | recall | n\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9s | %-11s | %10.1f | %9.3f | %9.3f | %.3f | %d\n",
			r.Dimension, r.Variant, r.AvgExplored, r.AvgGenMs, r.AvgOutMs, r.Recall, r.N)
	}
	return sb.String()
}
