// Benchmarks regenerating each table and figure of the paper's evaluation
// (§5) at laptop scale, one testing.B target per artifact:
//
//   - Figure 5 (sample-query table): BenchmarkFig5Query* and
//     BenchmarkFig5SparseLB* run the per-query measurements;
//   - Figure 6(a) (MI/SI vs keyword count): BenchmarkFig6a*;
//   - Figure 6(b) (SI/Bidirectional): BenchmarkFig6b*;
//   - Figure 6(c) (join-order/selectivity combos): BenchmarkFig6c*;
//   - §5.7 recall/precision: BenchmarkRecallPrecision;
//   - §4.4 worked example: BenchmarkFigure4 (in internal/core);
//   - §5.1 graph footprint: BenchmarkGraphFootprint.
//
// Absolute durations depend on the machine; cmd/experiments runs the same
// harness at a larger scale.
package banks_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"banks"
	"banks/internal/datagen"
	"banks/internal/experiments"
	"banks/internal/sparse"
	"banks/internal/workload"
)

// benchCfg keeps `go test -bench=.` runs short; cmd/experiments uses the
// bigger default configuration.
var benchCfg = experiments.Config{Factor: 0.1, QueriesPerCell: 2, K: 10, MaxNodes: 120_000, Seed: 42}

var benchEnvOnce sync.Once
var benchEnv *experiments.Env

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		e, err := experiments.NewEnv("dblp", benchCfg.Factor)
		if err != nil {
			panic(err)
		}
		benchEnv = e
	})
	return benchEnv
}

// benchQuery memoizes one workload query per shape.
var benchQueries sync.Map

func sizeFiveQuery(b *testing.B, nk int, class workload.OriginClass) *workload.Query {
	b.Helper()
	key := [2]int{nk, int(class)}
	if q, ok := benchQueries.Load(key); ok {
		return q.(*workload.Query)
	}
	e := env(b)
	rng := rand.New(rand.NewSource(benchCfg.Seed))
	for tries := 0; tries < 3000; tries++ {
		if q, ok := e.Gen.SizeFive(rng, nk, class); ok {
			benchQueries.Store(key, q)
			return q
		}
	}
	b.Fatalf("could not generate %d-keyword %v query", nk, class)
	return nil
}

func comboQuery(b *testing.B, combo [4]datagen.Band) *workload.Query {
	b.Helper()
	if q, ok := benchQueries.Load(combo); ok {
		return q.(*workload.Query)
	}
	e := env(b)
	rng := rand.New(rand.NewSource(benchCfg.Seed))
	q, ok := e.Gen.Combo(rng, combo)
	if !ok {
		b.Fatalf("no combo query for %v", combo)
	}
	benchQueries.Store(combo, q)
	return q
}

func runSearch(b *testing.B, q *workload.Query, algo banks.Algorithm) {
	b.Helper()
	e := env(b)
	db := &banks.DB{Graph: e.Built.Graph, Index: e.Built.Index, Mapping: e.Built.Mapping, EdgeTypes: e.Built.EdgeTypes, Source: e.DS.DB}
	opts := banks.Options{K: benchCfg.K, MaxNodes: benchCfg.MaxNodes}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.SearchNodes(q.Keywords, algo, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

// --- Figure 5: sample queries (representative rows) ---

func BenchmarkFig5QueryDQ1Bidirectional(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 2, workload.OriginSmall), banks.Bidirectional)
}

func BenchmarkFig5QueryDQ1SIBackward(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 2, workload.OriginSmall), banks.SIBackward)
}

func BenchmarkFig5QueryDQ1MIBackward(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 2, workload.OriginSmall), banks.MIBackward)
}

func BenchmarkFig5QueryDQ7Bidirectional(b *testing.B) {
	T, L := datagen.BandTiny, datagen.BandLarge
	runSearch(b, comboQuery(b, [4]datagen.Band{T, T, L, L}), banks.Bidirectional)
}

func BenchmarkFig5QueryDQ7SIBackward(b *testing.B) {
	T, L := datagen.BandTiny, datagen.BandLarge
	runSearch(b, comboQuery(b, [4]datagen.Band{T, T, L, L}), banks.SIBackward)
}

func BenchmarkFig5QueryDQ7MIBackward(b *testing.B) {
	T, L := datagen.BandTiny, datagen.BandLarge
	runSearch(b, comboQuery(b, [4]datagen.Band{T, T, L, L}), banks.MIBackward)
}

func BenchmarkFig5SparseLBDQ1(b *testing.B) {
	q := sizeFiveQuery(b, 2, workload.OriginSmall)
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.Run(e.DS.DB, q.Terms, q.AnswerSize, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5SparseLBDQ7(b *testing.B) {
	T, L := datagen.BandTiny, datagen.BandLarge
	q := comboQuery(b, [4]datagen.Band{T, T, L, L})
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.Run(e.DS.DB, q.Terms, q.AnswerSize, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6(a): MI vs SI across keyword counts and origin classes ---

func BenchmarkFig6aK2SmallMI(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 2, workload.OriginSmall), banks.MIBackward)
}

func BenchmarkFig6aK2SmallSI(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 2, workload.OriginSmall), banks.SIBackward)
}

func BenchmarkFig6aK4LargeMI(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 4, workload.OriginLarge), banks.MIBackward)
}

func BenchmarkFig6aK4LargeSI(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 4, workload.OriginLarge), banks.SIBackward)
}

// --- Figure 6(b): SI vs Bidirectional ---

func BenchmarkFig6bK3SmallSI(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 3, workload.OriginSmall), banks.SIBackward)
}

func BenchmarkFig6bK3SmallBidirectional(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 3, workload.OriginSmall), banks.Bidirectional)
}

func BenchmarkFig6bK5LargeSI(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 5, workload.OriginLarge), banks.SIBackward)
}

func BenchmarkFig6bK5LargeBidirectional(b *testing.B) {
	runSearch(b, sizeFiveQuery(b, 5, workload.OriginLarge), banks.Bidirectional)
}

// --- Figure 6(c): selectivity-band combos ---

func fig6cBench(b *testing.B, combo [4]datagen.Band, algo banks.Algorithm) {
	runSearch(b, comboQuery(b, combo), algo)
}

func BenchmarkFig6cTTTTSI(b *testing.B) {
	T := datagen.BandTiny
	fig6cBench(b, [4]datagen.Band{T, T, T, T}, banks.SIBackward)
}

func BenchmarkFig6cTTTTBidirectional(b *testing.B) {
	T := datagen.BandTiny
	fig6cBench(b, [4]datagen.Band{T, T, T, T}, banks.Bidirectional)
}

func BenchmarkFig6cTTTLSI(b *testing.B) {
	T, L := datagen.BandTiny, datagen.BandLarge
	fig6cBench(b, [4]datagen.Band{T, T, T, L}, banks.SIBackward)
}

func BenchmarkFig6cTTTLBidirectional(b *testing.B) {
	T, L := datagen.BandTiny, datagen.BandLarge
	fig6cBench(b, [4]datagen.Band{T, T, T, L}, banks.Bidirectional)
}

func BenchmarkFig6cMMMMSI(b *testing.B) {
	M := datagen.BandMedium
	fig6cBench(b, [4]datagen.Band{M, M, M, M}, banks.SIBackward)
}

func BenchmarkFig6cMMMMBidirectional(b *testing.B) {
	M := datagen.BandMedium
	fig6cBench(b, [4]datagen.Band{M, M, M, M}, banks.Bidirectional)
}

// --- §5.7 recall/precision: one full measured query per iteration ---

func BenchmarkRecallPrecision(b *testing.B) {
	e := env(b)
	q := sizeFiveQuery(b, 3, workload.OriginSmall)
	db := &banks.DB{Graph: e.Built.Graph, Index: e.Built.Index, Mapping: e.Built.Mapping, EdgeTypes: e.Built.EdgeTypes, Source: e.DS.DB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.SearchNodes(q.Keywords, banks.Bidirectional, banks.Options{K: benchCfg.K})
		if err != nil {
			b.Fatal(err)
		}
		m := experiments.Measure(res, q)
		if m.Found == 0 {
			b.Fatal("relevant answer not found")
		}
	}
}

// --- Engine throughput: serial vs worker-pool fan-out ---
//
// BenchmarkSearchSerial and BenchmarkSearchParallel run the same mixed
// query stream; on a machine with ≥4 cores the 4-worker variant should
// show ≥2x the query throughput (≤½ the ns/op) of the serial run. On a
// single-core machine the two converge — the pool adds no speedup without
// parallel hardware. BenchmarkSearchCached shows the LRU result cache on a
// repeating stream.

var throughputQueries = []string{
	"database transaction",
	"index spatial",
	"concurrency recovery",
	"graph mining author",
	"storage optimization",
	"relational join",
}

func throughputDB(b *testing.B) *banks.DB {
	e := env(b)
	return &banks.DB{Graph: e.Built.Graph, Index: e.Built.Index, Mapping: e.Built.Mapping, EdgeTypes: e.Built.EdgeTypes, Source: e.DS.DB}
}

func BenchmarkSearchSerial(b *testing.B) {
	db := throughputDB(b)
	opts := banks.Options{K: benchCfg.K, MaxNodes: benchCfg.MaxNodes}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Search(throughputQueries[i%len(throughputQueries)], banks.Bidirectional, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkSearchParallel(b *testing.B, workers int) {
	db := throughputDB(b)
	eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: workers, CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	opts := banks.Options{K: benchCfg.K, MaxNodes: benchCfg.MaxNodes}
	batch := make([]banks.BatchQuery, b.N)
	for i := range batch {
		batch[i] = banks.BatchQuery{Query: throughputQueries[i%len(throughputQueries)], Algo: banks.Bidirectional, Opts: opts}
	}
	b.ReportAllocs()
	b.ResetTimer()
	results, errs := eng.SearchBatch(context.Background(), batch)
	b.StopTimer()
	for i := range results {
		if errs[i] != nil {
			b.Fatal(errs[i])
		}
	}
}

// BenchmarkSearchParallel is the acceptance benchmark: 4 workers vs
// BenchmarkSearchSerial.
func BenchmarkSearchParallel(b *testing.B)  { benchmarkSearchParallel(b, 4) }
func BenchmarkSearchParallel2(b *testing.B) { benchmarkSearchParallel(b, 2) }
func BenchmarkSearchParallel8(b *testing.B) { benchmarkSearchParallel(b, 8) }

func BenchmarkSearchCached(b *testing.B) {
	db := throughputDB(b)
	eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	opts := banks.Options{K: benchCfg.K, MaxNodes: benchCfg.MaxNodes}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(ctx, throughputQueries[i%len(throughputQueries)], banks.Bidirectional, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5.1: in-memory graph footprint and build cost ---

func BenchmarkGraphFootprint(b *testing.B) {
	e := env(b)
	g := e.Built.Graph
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		u := banks.NodeID(i % g.NumNodes())
		for _, h := range g.Neighbors(u) {
			sum += h.WOut
		}
	}
	_ = sum
}

// --- Ablation sweep: one µ variant per iteration ---

func BenchmarkAblationMuDefault(b *testing.B) {
	q := comboQuery(b, [4]datagen.Band{datagen.BandTiny, datagen.BandTiny, datagen.BandLarge, datagen.BandLarge})
	e := env(b)
	db := &banks.DB{Graph: e.Built.Graph, Index: e.Built.Index, Mapping: e.Built.Mapping, EdgeTypes: e.Built.EdgeTypes, Source: e.DS.DB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SearchNodes(q.Keywords, banks.Bidirectional, banks.Options{K: benchCfg.K, Mu: 0.5, MaxNodes: benchCfg.MaxNodes}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMuHigh(b *testing.B) {
	q := comboQuery(b, [4]datagen.Band{datagen.BandTiny, datagen.BandTiny, datagen.BandLarge, datagen.BandLarge})
	e := env(b)
	db := &banks.DB{Graph: e.Built.Graph, Index: e.Built.Index, Mapping: e.Built.Mapping, EdgeTypes: e.Built.EdgeTypes, Source: e.DS.DB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SearchNodes(q.Keywords, banks.Bidirectional, banks.Options{K: benchCfg.K, Mu: 0.8, MaxNodes: benchCfg.MaxNodes}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStrictBound(b *testing.B) {
	q := comboQuery(b, [4]datagen.Band{datagen.BandTiny, datagen.BandTiny, datagen.BandLarge, datagen.BandLarge})
	e := env(b)
	db := &banks.DB{Graph: e.Built.Graph, Index: e.Built.Index, Mapping: e.Built.Mapping, EdgeTypes: e.Built.EdgeTypes, Source: e.DS.DB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SearchNodes(q.Keywords, banks.Bidirectional, banks.Options{K: benchCfg.K, StrictBound: true, MaxNodes: benchCfg.MaxNodes}); err != nil {
			b.Fatal(err)
		}
	}
}
