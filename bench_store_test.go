package banks_test

// Snapshot-store benchmarks (ISSUE 2 acceptance): ready-to-query time of
// a memory-mapped snapshot open vs rebuilding the same state from raw
// relational data, on the factor-1 DBLP dataset (~180k tuples), plus the
// latency of the first query after an open (page-in cost included).
// The harness in bench/ reports the open time end to end as store.open_ms.
//
// Run with:
//
//	go test -run xxx -bench 'SnapshotOpen|BuildFromScratch|FirstQueryAfterOpen' -benchtime 5x .

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"banks"
	"banks/internal/datagen"
)

var storeBench struct {
	once sync.Once
	ds   *datagen.Dataset
	dir  string
	path string
	err  error
}

// TestMain removes the shared benchmark snapshot dir, which outlives any
// single benchmark because of the sync.Once setup.
func TestMain(m *testing.M) {
	code := m.Run()
	if storeBench.dir != "" {
		os.RemoveAll(storeBench.dir)
	}
	os.Exit(code)
}

// storeBenchSetup generates the factor-1 DBLP dataset once per process
// and writes its snapshot to a temp file shared by all benchmarks.
func storeBenchSetup(b *testing.B) (*datagen.Dataset, string) {
	b.Helper()
	storeBench.once.Do(func() {
		ds, err := datagen.DBLP(datagen.DefaultDBLP(1))
		if err != nil {
			storeBench.err = err
			return
		}
		db, err := banks.Build(ds.DB, banks.BuildOptions{})
		if err != nil {
			storeBench.err = err
			return
		}
		dir, err := os.MkdirTemp("", "banks-bench-*")
		if err != nil {
			storeBench.err = err
			return
		}
		storeBench.dir = dir
		path := filepath.Join(dir, "dblp-f1.snap")
		if err := db.WriteSnapshotFile(path); err != nil {
			storeBench.err = err
			return
		}
		storeBench.ds, storeBench.path = ds, path
	})
	if storeBench.err != nil {
		b.Fatal(storeBench.err)
	}
	return storeBench.ds, storeBench.path
}

// BenchmarkBuildFromScratch is the rebuild-from-raw baseline: graph
// conversion, keyword indexing and prestige over the already-generated
// relational rows — exactly what every consumer paid at startup before
// the snapshot store existed.
func BenchmarkBuildFromScratch(b *testing.B) {
	ds, _ := storeBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := banks.Build(ds.DB, banks.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_ = db
	}
}

// BenchmarkSnapshotOpen measures ready-to-query time from the snapshot
// file with default options (mmap + full checksum verification).
func BenchmarkSnapshotOpen(b *testing.B) {
	_, path := storeBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := banks.OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkSnapshotOpenNoVerify is the fastest open: structural
// validation only, checksums skipped.
func BenchmarkSnapshotOpenNoVerify(b *testing.B) {
	_, path := storeBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := banks.OpenSnapshotOptions(path, banks.SnapshotOptions{SkipChecksums: true})
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkFirstQueryAfterOpen measures open plus the first bidirectional
// query (cold result cache; page-in of the touched sections included).
func BenchmarkFirstQueryAfterOpen(b *testing.B) {
	_, path := storeBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := banks.OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		res, err := db.Search("database query optimization", banks.Bidirectional, banks.Options{K: 10})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) == 0 {
			b.Fatal("no answers")
		}
		db.Close()
	}
}
