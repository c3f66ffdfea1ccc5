package graph

import (
	"slices"
	"strings"
	"testing"
)

// copySections deep-copies every array, as writing the sections to a
// snapshot and mapping them back does.
func copySections(s Sections) Sections {
	s.Offsets = slices.Clone(s.Offsets)
	s.Halves = slices.Clone(s.Halves)
	s.NodeTable = slices.Clone(s.NodeTable)
	s.Prestige = slices.Clone(s.Prestige)
	s.Tables = slices.Clone(s.Tables)
	return s
}

// FuzzBuildRoundTrip builds a graph from fuzz-derived nodes/edges and
// checks that its storage sections pass FromSections' validation and
// reassemble a graph with every observable property intact — the
// contract the snapshot store relies on to reopen what Build produced.
func FuzzBuildRoundTrip(f *testing.F) {
	f.Add(uint8(4), []byte{0, 2, 1, 3, 2, 3})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(9), []byte{0, 1, 1, 2, 2, 0, 3, 4, 5, 6, 7, 8, 0, 8})
	f.Fuzz(func(t *testing.T, rawN uint8, rawEdges []byte) {
		n := 1 + int(rawN)%24
		b := NewBuilder()
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				b.AddNode("even")
			} else {
				b.AddNode("odd")
			}
		}
		for i := 0; i+1 < len(rawEdges) && i < 64; i += 2 {
			u := NodeID(int(rawEdges[i]) % n)
			v := NodeID(int(rawEdges[i+1]) % n)
			if u == v {
				continue
			}
			w := 1 + float64(rawEdges[i]%7)/4
			if err := b.AddEdge(u, v, w, EdgeType(rawEdges[i+1]%3)); err != nil {
				t.Fatalf("AddEdge(%d,%d,%v): %v", u, v, w, err)
			}
		}
		g := b.Build()
		p := make([]float64, n)
		for i := range p {
			p[i] = float64(i+1) / float64(n)
		}
		if err := g.SetPrestige(p); err != nil {
			t.Fatal(err)
		}

		s := copySections(g.Sections())
		s.MaxPrestige = 0 // make FromSections recompute it
		got, err := FromSections(s)
		if err != nil {
			t.Fatalf("FromSections rejected a built graph: %v", err)
		}
		if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
			t.Fatalf("sizes changed: %d/%d vs %d/%d", got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		if got.MaxPrestige() != g.MaxPrestige() {
			t.Fatalf("max prestige changed: %v vs %v", got.MaxPrestige(), g.MaxPrestige())
		}
		for u := 0; u < n; u++ {
			id := NodeID(u)
			if got.Table(id) != g.Table(id) {
				t.Fatalf("node %d table changed", u)
			}
			if got.Prestige(id) != g.Prestige(id) {
				t.Fatalf("node %d prestige changed", u)
			}
			if !slices.Equal(got.Neighbors(id), g.Neighbors(id)) {
				t.Fatalf("node %d adjacency changed: %+v vs %+v", u, got.Neighbors(id), g.Neighbors(id))
			}
		}
	})
}

// TestFromSectionsRejectsCorrupt: each structural invariant validate
// guards turns a corrupted section into an error, never a Graph whose
// readers would index out of range.
func TestFromSectionsRejectsCorrupt(t *testing.T) {
	b := NewBuilder()
	b.AddNodes("author", 2)
	b.AddNodes("paper", 2)
	if err := b.AddEdge(0, 2, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 3, 2, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	cases := []struct {
		name    string
		corrupt func(*Sections)
		want    string
	}{
		{"offsets past the halves", func(s *Sections) { s.Offsets[len(s.Offsets)-1]++ }, "corrupt offsets"},
		{"decreasing offsets", func(s *Sections) { s.Offsets[1], s.Offsets[2] = s.Offsets[2], s.Offsets[1] }, "decreasing offsets"},
		{"unknown table", func(s *Sections) { s.NodeTable[3] = 2 }, "unknown table"},
		{"half outside the graph", func(s *Sections) { s.Halves[0].To = 4 }, "outside [0,4)"},
		{"prestige length", func(s *Sections) { s.Prestige = s.Prestige[:3] }, "prestige has 3 entries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := copySections(g.Sections())
			tc.corrupt(&s)
			if _, err := FromSections(s); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
	if _, err := FromSections(copySections(g.Sections())); err != nil {
		t.Fatalf("uncorrupted sections rejected: %v", err)
	}
}
