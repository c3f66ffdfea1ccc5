package core

import (
	"context"

	"banks/internal/graph"
)

// boundEvery is how many expansions pass between §4.5 bound computations,
// each followed by a drain of the answers the bound releases.
const boundEvery = 32

// frontier is the part of a search that expandLoop leaves to it: which
// node is expanded next, and how the answers generated so far are bounded
// and released.
type frontier interface {
	// empty reports that no node is left to expand.
	empty() bool
	// step pops the next node and expands it.
	step()
	// upperBound returns the §4.5 bounds on any answer not yet generated:
	// on its overall score and on its aggregate edge score.
	upperBound() (score, edge float64)
	// drain releases the buffered answers the bounds allow and reports
	// whether k answers are out.
	drain(score, edge float64) bool
	// flush releases what remains once no further expansion will run.
	flush()
}

// expandLoop is the expansion loop of all three tree searches. SI-Backward
// is Bidirectional search without the forward iterator and without
// spreading activation (§4.6): the two share this loop, the bound, Attach
// and the drain, and differ only in their frontier, that is, in which node
// it pops next and how it expands that node. MI-Backward (§3) runs one
// iterator per keyword node and brings its own step, bound and drain.
//
// Before each expansion the loop stops when k answers are out, when
// maxNodes nodes have been explored (Stats.BudgetExhausted), or at an
// amortized cancellation check (Stats.Truncated), in that order. Every
// boundEvery expansions it drains against a fresh bound. Unless the output
// is full, the loop ends with one flush.
func expandLoop(f frontier, c *canceller, out *outputHeap, maxNodes int) {
	sinceBound := 0
	for !f.empty() {
		if out.full() {
			return
		}
		if maxNodes > 0 && c.stats.NodesExplored >= maxNodes {
			c.stats.BudgetExhausted = true
			break
		}
		if c.cancelled() {
			break
		}
		f.step()
		sinceBound++
		if sinceBound >= boundEvery {
			sinceBound = 0
			if f.drain(f.upperBound()) {
				return
			}
		}
	}
	f.flush()
}

// runSearch runs SI-Backward or Bidirectional search: newFrontier builds
// the search's frontier over the query state and seeds it.
func runSearch(ctx context.Context, g graph.View, keywords [][]graph.NodeID, opts Options, newFrontier func(*searchContext) frontier) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := validateInput(g, keywords); err != nil {
		return nil, err
	}
	sc := newSearchContext(orBackground(ctx), g, keywords, opts)
	if anyEmptyKeyword(keywords) || sc.expired() {
		return sc.finishResult(), nil
	}
	expandLoop(newFrontier(sc), &sc.canceller, sc.out, opts.MaxNodes)
	return sc.finishResult(), nil
}
