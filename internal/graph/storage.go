package graph

import "fmt"

// Sections is the storage abstraction between a Graph and its backing
// memory. Each field is one contiguous fixed-layout array; the slices may
// be ordinary heap allocations (the Build path) or zero-copy views over a
// memory-mapped snapshot section (the internal/store path). A Graph built
// from mapped Sections never copies the arrays into the Go heap — readers
// fault pages in on demand, so datasets larger than RAM stay queryable.
//
// Whoever produces the slices owns their lifetime: a store.Snapshot must
// stay open for as long as a Graph built from its sections is in use.
type Sections struct {
	// Offsets has NumNodes+1 entries; the adjacency of node i is
	// Halves[Offsets[i]:Offsets[i+1]].
	Offsets []int32
	// Halves is the combined-graph half-edge array.
	Halves []Half
	// NodeTable maps each node to an index into Tables.
	NodeTable []int32
	// Prestige holds one precomputed prestige score per node.
	Prestige []float64
	// Tables lists relation names; NodeTable values index into it.
	Tables []string
	// NumOrigEdges is the original (pre-backward) directed edge count.
	NumOrigEdges int
	// MaxPrestige caches max(Prestige); 0 means "recompute from Prestige".
	MaxPrestige float64
}

// Sections exports the graph's backing arrays for serialization. The
// returned slices alias the graph and must be treated as read-only.
func (g *Graph) Sections() Sections {
	return Sections{
		Offsets:      g.offsets,
		Halves:       g.halves,
		NodeTable:    g.nodeTable,
		Prestige:     g.prestige,
		Tables:       g.tables,
		NumOrigEdges: g.numOrigEdges,
		MaxPrestige:  g.maxPrestige,
	}
}

// FromSections assembles a Graph directly over the given backing arrays
// (no copies) after validating their structural invariants: offset
// monotonicity and bounds, half-edge targets, and node→table references.
// Validation reads every array once — on mapped sections that is a single
// sequential page-in, the only full pass an open performs.
func FromSections(s Sections) (*Graph, error) {
	if len(s.Offsets) == 0 {
		return nil, fmt.Errorf("graph: sections missing offsets")
	}
	n := len(s.Offsets) - 1
	if len(s.NodeTable) != n {
		return nil, fmt.Errorf("graph: node table has %d entries for %d nodes", len(s.NodeTable), n)
	}
	if len(s.Prestige) != n {
		return nil, fmt.Errorf("graph: prestige has %d entries for %d nodes", len(s.Prestige), n)
	}
	if s.NumOrigEdges*2 != len(s.Halves) {
		return nil, fmt.Errorf("graph: %d original edges inconsistent with %d halves", s.NumOrigEdges, len(s.Halves))
	}
	g := &Graph{
		offsets:      s.Offsets,
		halves:       s.Halves,
		nodeTable:    s.NodeTable,
		prestige:     s.Prestige,
		tables:       s.Tables,
		numOrigEdges: s.NumOrigEdges,
		maxPrestige:  s.MaxPrestige,
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	if g.maxPrestige == 0 {
		for _, v := range g.prestige {
			if v > g.maxPrestige {
				g.maxPrestige = v
			}
		}
	}
	return g, nil
}

// validate checks the structural invariants every reader of the arrays
// relies on: offsets start at 0, never decrease and end at len(halves);
// every node references a known table; every half-edge targets a node.
func (g *Graph) validate() error {
	n := int32(g.NumNodes())
	if g.offsets[0] != 0 || int(g.offsets[n]) != len(g.halves) {
		return fmt.Errorf("graph: corrupt offsets")
	}
	for i := int32(0); i < n; i++ {
		if g.offsets[i] > g.offsets[i+1] {
			return fmt.Errorf("graph: decreasing offsets at node %d", i)
		}
		if g.nodeTable[i] < 0 || int(g.nodeTable[i]) >= len(g.tables) {
			return fmt.Errorf("graph: node %d references unknown table %d", i, g.nodeTable[i])
		}
	}
	for i, h := range g.halves {
		if h.To < 0 || h.To >= NodeID(n) {
			return fmt.Errorf("graph: half %d references node %d outside [0,%d)", i, h.To, n)
		}
	}
	return nil
}
