// Command datagen generates a synthetic dataset, builds its data graph
// (with prestige) and keyword index, and saves the complete queryable
// state to a single snapshot file that cmd tools and downstream users can
// memory-map without rebuilding anything.
//
// Usage:
//
//	datagen -dataset dblp -factor 1 -out dblp.snap       # generate + save
//	datagen -dataset dblp -out dblp.snap -shards 3       # + 3 shard files
//	datagen -in dblp.snap                                # load + stats
//	datagen -out x.snap -mutations 50 -mutations-out m.json  # + mutation trace
//
// At -factor 11 the DBLP-like dataset approaches the paper's 2M-node,
// 9M-edge graph (§5); the default stays laptop-friendly.
//
// With -shards N the dataset is additionally partitioned into N
// component-closed shard snapshots named "<out>.shard<i>of<N>", ready to
// serve behind cmd/banksrouter (see docs/SERVING.md, "Sharded
// deployment"). Prestige is computed once on the full graph before
// partitioning, so per-shard scores match the single-node snapshot
// bit-for-bit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"banks"
	"banks/internal/datagen"
	"banks/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")

	dataset := flag.String("dataset", "dblp", "dataset family: dblp, imdb or patents")
	factor := flag.Float64("factor", 1, "scale factor (1 ≈ 180k tuples; paper scale ≈ 11)")
	out := flag.String("out", "", "write the built graph+index snapshot to this file")
	shards := flag.Int("shards", 1, "also partition into N component-closed shard snapshots named <out>.shard<i>of<N>")
	mutations := flag.Int("mutations", 0, "also emit a mutation trace of N ops as a /v1/mutate request body (requires -mutations-out)")
	mutationsOut := flag.String("mutations-out", "", "write the mutation trace here (JSON, curl-able against POST /v1/mutate)")
	mutationsSeed := flag.Int64("mutations-seed", 1, "seed for the mutation trace generator")
	in := flag.String("in", "", "open a snapshot file and print stats instead of generating")
	flag.Parse()

	if *shards < 1 {
		log.Fatalf("-shards must be >= 1, got %d", *shards)
	}
	if *shards > 1 && *out == "" {
		log.Fatal("-shards requires -out (shard files are named <out>.shard<i>of<N>)")
	}
	if (*mutations > 0) != (*mutationsOut != "") {
		log.Fatal("-mutations and -mutations-out must be given together")
	}

	if *in != "" {
		printStats(*in)
		return
	}

	start := time.Now()
	var (
		ds  *datagen.Dataset
		err error
	)
	switch *dataset {
	case "dblp":
		ds, err = datagen.DBLP(datagen.DefaultDBLP(*factor))
	case "imdb":
		ds, err = datagen.IMDB(datagen.DefaultIMDB(*factor))
	case "patents":
		ds, err = datagen.Patents(datagen.DefaultPatents(*factor))
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %s (%d tuples) in %v\n", ds.Name, ds.DB.NumRows(), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	db, err := banks.Build(ds.DB, banks.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built graph (%d nodes, %d edges) + index (%d terms) + prestige in %v\n",
		db.Graph.NumNodes(), db.Graph.NumEdges(), db.Index.NumTerms(), time.Since(start).Round(time.Millisecond))

	if *out != "" {
		start = time.Now()
		if err := db.WriteSnapshotFile(*out); err != nil {
			log.Fatal(err)
		}
		st, err := os.Stat(*out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote snapshot %s (%d bytes) in %v\n", *out, st.Size(), time.Since(start).Round(time.Millisecond))

		if *shards > 1 {
			start = time.Now()
			stats, err := shard.WriteFiles(*out, *shards, db.Graph, db.Index, db.Mapping, db.EdgeTypes)
			if err != nil {
				log.Fatal(err)
			}
			for _, s := range stats {
				fmt.Printf("wrote shard %s (%d bytes): %d nodes, %d edges, %d components\n",
					s.Path, s.Bytes, s.Nodes, s.Edges, s.Components)
			}
			fmt.Printf("partitioned into %d shards in %v\n", *shards, time.Since(start).Round(time.Millisecond))
		}
	}
	if *mutations > 0 {
		if err := writeMutationTrace(*mutationsOut, *mutations, *mutationsSeed, db); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote mutation trace %s (%d ops)\n", *mutationsOut, *mutations)
	}
}

// writeMutationTrace emits n valid mutation ops as one /v1/mutate request
// body, for smoke tests that need live traffic against a served snapshot
// (e.g. `curl -d @trace.json .../v1/mutate`). Inserted-node IDs are
// predictable: the delta layer assigns them sequentially starting at the
// base node count, so later ops in the trace can reference earlier
// inserts before any server has applied them.
func writeMutationTrace(path string, n int, seed int64, db *banks.DB) error {
	rng := rand.New(rand.NewSource(seed))
	tables := db.Graph.Tables()
	base := int64(db.Graph.NumNodes())
	words := []string{"livetrace", "overlay", "delta", "generation", "compaction", "proximity", "backward", "spreading"}

	ops := make([]map[string]any, 0, n)
	appended := int64(0)
	for len(ops) < n {
		switch {
		case appended == 0 || rng.Intn(3) == 0:
			// Every trace starts with an insert_node so edge/term ops
			// always have an appended node to target.
			text := fmt.Sprintf("livetrace%d %s %s", appended,
				words[rng.Intn(len(words))], words[rng.Intn(len(words))])
			ops = append(ops, map[string]any{
				"op": "insert_node", "table": tables[rng.Intn(len(tables))], "text": text,
			})
			appended++
		case rng.Intn(2) == 0 && base > 0:
			// Appended → base edge: from >= base and to < base, so no
			// self-loops regardless of the draws.
			ops = append(ops, map[string]any{
				"op":   "insert_edge",
				"from": base + rng.Int63n(appended), "to": rng.Int63n(base),
				"weight": 1 + rng.Float64(),
			})
		default:
			ops = append(ops, map[string]any{
				"op":   "insert_term",
				"node": base + rng.Int63n(appended),
				"term": fmt.Sprintf("%s%d", words[rng.Intn(len(words))], len(ops)),
			})
		}
	}
	body, err := json.MarshalIndent(map[string]any{"ops": ops}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o666)
}

// printStats opens a snapshot and prints its stats.
func printStats(path string) {
	start := time.Now()
	db, err := banks.OpenSnapshot(path)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("%s (snapshot, zero-copy=%v, opened in %v): %d nodes, %d original edges, %d relations, %d terms, max prestige %.3f\n",
		path, db.SnapshotZeroCopy(), time.Since(start).Round(time.Millisecond),
		db.Graph.NumNodes(), db.Graph.NumEdges(), len(db.Graph.Tables()), db.Index.NumTerms(), db.Graph.MaxPrestige())
	if sm := db.ShardInfo(); sm != nil {
		fmt.Printf("  shard %d of %d: %d owned nodes, %d components, %d duplicated edges\n",
			sm.Shard, sm.NumShards, sm.OwnedNodes, sm.OwnedComponents, sm.DuplicatedEdges)
	}
}
