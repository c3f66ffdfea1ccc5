package repl_test

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"banks/internal/delta"
	"banks/internal/engine"
	"banks/internal/graph"
	"banks/internal/index"
	"banks/internal/wal"
)

// fuzzFrames encodes a frame sequence through a scratch log — the only
// encoder there is, which is the point: the follower must never accept
// bytes the primary's encoder could not have produced.
func fuzzFrames(f *testing.F, recs []struct {
	gen, ver uint64
	ops      []delta.Op
}) []byte {
	f.Helper()
	dir := f.TempDir()
	l, _, err := wal.Open(filepath.Join(dir, "seed.wal"), wal.Options{Policy: wal.PolicyNever})
	if err != nil {
		f.Fatal(err)
	}
	defer l.Close()
	for _, r := range recs {
		if _, err := l.Append(r.gen, r.ver, r.ops); err != nil {
			f.Fatal(err)
		}
	}
	data, _, err := l.ReadAt(wal.HeaderSize, 1<<30)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReplicationStream attacks the follower's chunk-application
// boundary with arbitrary bytes posing as a primary's log stream. The
// contract: torn frames, flipped bytes, forged lengths — anything that
// is not a canonically encoded frame sequence — must be rejected as
// *wal.ErrCorrupt without panicking; and whatever DOES decode must still
// pass the replay gate, which only ever applies the exactly-next version
// of the current generation (replayed offsets are skipped, forged
// generations refused — never applied).
func FuzzReplicationStream(f *testing.F) {
	ops := []delta.Op{{Kind: delta.OpInsertNode, Table: "paper", Text: "fuzz stream probe"}}
	edge := []delta.Op{{Kind: delta.OpInsertEdge, From: 0, To: 1, Weight: 1.5}}

	type rec = struct {
		gen, ver uint64
		ops      []delta.Op
	}
	valid := fuzzFrames(f, []rec{{0, 1, ops}, {0, 2, edge}})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                           // torn tail
	f.Add([]byte{})                                       // empty chunk (caught-up poll)
	f.Add(fuzzFrames(f, []rec{{0, 2, ops}, {0, 1, ops}})) // replayed offset
	f.Add(fuzzFrames(f, []rec{{7, 1, ops}}))              // forged generation
	f.Add(fuzzFrames(f, []rec{{0, 5, ops}}))              // version hole
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0xff
	f.Add(flipped)
	forgedLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(forgedLen, wal.MaxPayload+1)
	f.Add(forgedLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := wal.DecodeFrames(data)
		if err != nil {
			var c *wal.ErrCorrupt
			if !errors.As(err, &c) {
				t.Fatalf("non-ErrCorrupt decode error: %v", err)
			}
			return
		}
		// Whatever decoded is fed to a fresh replay gate at gen 0 /
		// version 0. Track what the gate MUST do and assert it does
		// nothing else.
		m := newFuzzManager(t)
		gen, ver := uint64(0), uint64(0)
		for _, r := range recs {
			applied, _, err := m.Replay(r.Generation, r.Version, r.Ops)
			if applied {
				if r.Generation != gen || r.Version != ver+1 {
					t.Fatalf("gate applied gen=%d ver=%d at state gen=%d ver=%d",
						r.Generation, r.Version, gen, ver)
				}
				ver++
			} else if err == nil && r.Generation == gen && r.Version == ver+1 {
				// The exactly-next record may still be refused for
				// semantic reasons (bad op against the tiny base) — but
				// then an error must say so.
				t.Fatalf("gate silently skipped the exactly-next record gen=%d ver=%d", r.Generation, r.Version)
			}
			_ = err // refusals are fine; panics are not
		}
	})
}

// newFuzzManager builds the smallest possible replay target: a two-node
// base graph with a delta manager over it — enough for the gate's
// gen/version arithmetic, cheap enough to rebuild per fuzz input.
func newFuzzManager(t *testing.T) *delta.Manager {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNode("paper")
	b.AddNode("paper")
	if err := b.AddEdge(0, 1, 1.0, 0); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if err := g.SetPrestige([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	ix := index.New()
	ix.AddTerm(0, "fuzz")
	ix.AddTerm(1, "stream")
	ix.Freeze(g)
	eng, err := engine.New(g, ix, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := delta.NewManager(delta.Config{
		Engine: eng,
		Graph:  g,
		Index:  ix,
		Mode:   delta.PrestigeUniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}
