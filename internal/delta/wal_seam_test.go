package delta

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"banks/internal/core"
	"banks/internal/engine"
)

// fakeLog is a LogAppender double: it records appends, and can be told
// to refuse them (the injected durability failure the atomicity tests
// need).
type fakeLog struct {
	fail      error // non-nil: Append refuses with this
	failReset error
	appended  []fakeRecord
	resets    int
}

type fakeRecord struct {
	generation, version uint64
	ops                 int
}

func (f *fakeLog) Append(generation, version uint64, ops []Op) (int64, error) {
	if f.fail != nil {
		return 0, f.fail
	}
	f.appended = append(f.appended, fakeRecord{generation, version, len(ops)})
	return int64(16 + 24*len(f.appended)), nil
}

func (f *fakeLog) Reset() error {
	if f.failReset != nil {
		return f.failReset
	}
	f.resets++
	return nil
}

// TestApplyAtomicOnWALFailure is the no-third-state proof: a valid batch
// the WAL refuses is not applied at all — the overlay, the serving
// source, and every counter stay exactly as they were, the error is a
// *WALError, and the next accepted batch reuses the version the failed
// one would have taken (no hole for replay to trip on).
func TestApplyAtomicOnWALFailure(t *testing.T) {
	fl := &fakeLog{fail: errors.New("disk full")}
	m, eng := newManagerWorldLog(t, "", fl)

	rng := rand.New(rand.NewSource(11))
	q := engine.Query{Terms: pickTerms(rng, 2), Algo: core.AlgoBidirectional, Opts: core.Options{K: 3}}
	before, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	batch := []Op{{Kind: OpInsertNode, Table: "paper", Text: "never durable"}}
	_, err = m.Apply(batch)
	var werr *WALError
	if !errors.As(err, &werr) {
		t.Fatalf("refused append returned %v, want *WALError", err)
	}
	st := m.Stats()
	if st.DeltaVersion != 0 || st.DeltaNodes != 0 || st.MutationsTotal != 0 ||
		st.MutationBatches != 0 || st.OpsSinceBase != 0 {
		t.Fatalf("failed append moved state: %+v", st)
	}
	after, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if so, sa := diffSignature(before), diffSignature(after); so != sa {
		t.Fatalf("failed append changed answers:\nbefore:\n%s\nafter:\n%s", so, sa)
	}

	// The log heals; the next batch takes version 1 — the version the
	// failed batch never burned.
	fl.fail = nil
	res, err := m.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaVersion != 1 || res.WALOffset < 0 {
		t.Fatalf("post-recovery apply: %+v", res)
	}
	if len(fl.appended) != 1 || fl.appended[0] != (fakeRecord{0, 1, 1}) {
		t.Fatalf("log saw %+v, want exactly [(gen 0, ver 1, 1 op)]", fl.appended)
	}
}

// TestCompactResetsWAL: a durable compaction truncates the log exactly
// once; a Reset failure is tolerated (WALReset false, compaction still
// succeeds) because replay skips records older than the new base.
func TestCompactResetsWAL(t *testing.T) {
	fl := &fakeLog{}
	m, _ := newManagerWorldLog(t, filepath.Join(t.TempDir(), "live.banksnap"), fl)
	if _, err := m.Apply([]Op{{Kind: OpInsertNode, Table: "paper", Text: "soon in base"}}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.WALReset || fl.resets != 1 {
		t.Fatalf("compact did not reset the log: %+v, resets=%d", res, fl.resets)
	}
	if st := m.Stats(); st.OpsSinceBase != 0 {
		t.Fatalf("OpsSinceBase not reset by compaction: %+v", st)
	}

	fl.failReset = errors.New("injected")
	if _, err := m.Apply([]Op{{Kind: OpInsertNode, Table: "paper", Text: "again"}}); err != nil {
		t.Fatal(err)
	}
	res, err = m.Compact(context.Background())
	if err != nil {
		t.Fatalf("compaction must tolerate a failed log reset: %v", err)
	}
	if res.WALReset {
		t.Fatalf("WALReset reported true despite the failure: %+v", res)
	}
}
