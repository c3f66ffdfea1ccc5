// Golden regression tests: they pin the exact top-k output (root, score,
// keyword leaves) of every algorithm on a small deterministic dataset, so
// that future performance refactors cannot silently change ranking. The
// engine is deterministic by construction (frontiers are seeded in sorted
// order); if a change legitimately alters scores or order, regenerate the
// pinned values with:
//
//	go test -run TestGolden -v -golden-print
package banks_test

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"testing"

	"banks"
	"banks/internal/relational"
)

var goldenPrint = flag.Bool("golden-print", false, "print actual golden-test output instead of asserting")

// goldenDB builds a deterministic bibliography database: 4 authors, 2
// conferences, 5 papers and 6 authorship rows, searched with the default
// (random-walk) prestige.
func goldenDB(t testing.TB) *banks.DB {
	t.Helper()
	db := relational.NewDatabase()
	author, _ := db.CreateTable("author", []string{"name"}, nil)
	conf, _ := db.CreateTable("conference", []string{"name"}, nil)
	paper, _ := db.CreateTable("paper", []string{"title"}, []relational.FK{{Name: "conf", RefTable: "conference"}})
	writes, _ := db.CreateTable("writes", nil, []relational.FK{
		{Name: "author", RefTable: "author"},
		{Name: "paper", RefTable: "paper"},
	})
	author.Append([]string{"Jim Gray"}, nil)
	author.Append([]string{"Pat Selinger"}, nil)
	author.Append([]string{"Jeffrey Ullman"}, nil)
	author.Append([]string{"Michael Stonebraker"}, nil)
	conf.Append([]string{"VLDB"}, nil)
	conf.Append([]string{"SIGMOD"}, nil)
	paper.Append([]string{"Transaction Recovery Principles"}, []int32{0})
	paper.Append([]string{"Access Path Selection"}, []int32{1})
	paper.Append([]string{"Database System Concepts"}, []int32{0})
	paper.Append([]string{"Query Optimization Survey"}, []int32{1})
	paper.Append([]string{"Distributed Transaction Management"}, []int32{0})
	writes.Append(nil, []int32{0, 0})
	writes.Append(nil, []int32{1, 1})
	writes.Append(nil, []int32{2, 2})
	writes.Append(nil, []int32{3, 3})
	writes.Append(nil, []int32{0, 4})
	writes.Append(nil, []int32{1, 4})
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	bdb, err := banks.Build(db, banks.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return bdb
}

// goldenOutput runs one golden case with the given search and near entry
// points (a DB's or an Engine's) and renders it in the pinned format: per
// answer the root label, score to 6 decimals, and the keyword leaf labels
// in keyword order; per near result the node label and activation.
func goldenOutput(t testing.TB, db *banks.DB, tc goldenCase,
	search func(string, banks.Algorithm, banks.Options) (*banks.Result, error),
	near func(string, banks.Options) ([]banks.NearResult, banks.Stats, error)) string {
	t.Helper()
	opts := banks.Options{K: tc.k}
	var sb strings.Builder
	if tc.near {
		res, _, err := near(tc.query, opts)
		if err != nil {
			t.Fatalf("near %q: %v", tc.query, err)
		}
		for _, r := range res {
			fmt.Fprintf(&sb, "node=%s act=%.6f\n", db.NodeLabel(r.Node), r.Activation)
		}
		return sb.String()
	}
	res, err := search(tc.query, tc.algo, opts)
	if err != nil {
		t.Fatalf("%s %q: %v", tc.algo, tc.query, err)
	}
	for _, a := range res.Answers {
		leaves := make([]string, len(a.KeywordNodes))
		for i, u := range a.KeywordNodes {
			leaves[i] = db.NodeLabel(u)
		}
		fmt.Fprintf(&sb, "root=%s score=%.6f leaves=[%s]\n",
			db.NodeLabel(a.Root), a.Score, strings.Join(leaves, " | "))
	}
	return sb.String()
}

type goldenCase struct {
	name  string
	query string
	algo  banks.Algorithm
	near  bool
	k     int
	want  string
}

var goldenCases = []goldenCase{
	{
		name: "gray-transaction-bidirectional", query: "gray transaction", algo: banks.Bidirectional, k: 3,
		want: "root=writes[4] score=0.417023 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n" +
			"root=writes[0] score=0.411325 leaves=[author[0]: Jim Gray | paper[0]: Transaction Recovery Principles]\n" +
			"root=conference[0]: VLDB score=0.185834 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n",
	},
	{
		name: "gray-transaction-si-backward", query: "gray transaction", algo: banks.SIBackward, k: 3,
		want: "root=writes[4] score=0.417023 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n" +
			"root=writes[0] score=0.411325 leaves=[author[0]: Jim Gray | paper[0]: Transaction Recovery Principles]\n" +
			"root=conference[0]: VLDB score=0.185834 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n",
	},
	{
		// MI-Backward's third answer differs legitimately: Backward search
		// emits per-origin tree variants (§4.6), surfacing the paper-rooted
		// tree before the conference-rooted one.
		name: "gray-transaction-mi-backward", query: "gray transaction", algo: banks.MIBackward, k: 3,
		want: "root=writes[4] score=0.417023 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n" +
			"root=writes[0] score=0.411325 leaves=[author[0]: Jim Gray | paper[0]: Transaction Recovery Principles]\n" +
			"root=paper[0]: Transaction Recovery Principles score=0.210338 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n",
	},
	{
		name: "selinger-vldb-bidirectional", query: "selinger vldb", algo: banks.Bidirectional, k: 2,
		want: "root=writes[5] score=0.317047 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n" +
			"root=writes[0] score=0.139203 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n",
	},
	{
		name: "selinger-vldb-si-backward", query: "selinger vldb", algo: banks.SIBackward, k: 2,
		want: "root=writes[5] score=0.317047 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n" +
			"root=writes[0] score=0.139203 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n",
	},
	{
		name: "selinger-vldb-mi-backward", query: "selinger vldb", algo: banks.MIBackward, k: 2,
		want: "root=writes[5] score=0.317047 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n" +
			"root=writes[0] score=0.139203 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n",
	},
	{
		name: "near-gray-recovery", query: "gray recovery", near: true, k: 4,
		want: "node=paper[0]: Transaction Recovery Principles act=1.183024\n" +
			"node=author[0]: Jim Gray act=1.083051\n" +
			"node=writes[0] act=0.557687\n" +
			"node=writes[4] act=0.246397\n",
	},
}

func TestGoldenTopK(t *testing.T) {
	db := goldenDB(t)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenOutput(t, db, tc, db.Search, db.Near)
			if *goldenPrint {
				fmt.Printf("=== %s ===\n%s", tc.name, got)
				return
			}
			if got != tc.want {
				t.Errorf("golden mismatch:\n--- want ---\n%s--- got ---\n%s", tc.want, got)
			}
		})
	}
}

// TestGoldenTopKParallel runs every pinned query as a parallel subtest
// through one shared Engine: the pins must hold on the serving path while
// the queries execute concurrently on the engine pool.
func TestGoldenTopKParallel(t *testing.T) {
	db := goldenDB(t)
	eng, err := banks.NewEngine(db, banks.EngineOptions{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	search := func(q string, algo banks.Algorithm, opts banks.Options) (*banks.Result, error) {
		return eng.Search(context.Background(), q, algo, opts)
	}
	near := func(q string, opts banks.Options) ([]banks.NearResult, banks.Stats, error) {
		return eng.Near(context.Background(), q, opts)
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := goldenOutput(t, db, tc, search, near)
			if *goldenPrint {
				return // TestGoldenTopK prints the pins
			}
			if got != tc.want {
				t.Errorf("golden mismatch through the engine:\n--- want ---\n%s--- got ---\n%s", tc.want, got)
			}
		})
	}
}
