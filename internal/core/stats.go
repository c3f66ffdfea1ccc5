package core

import "time"

// Stats reports the performance counters of one search, matching the
// measures of §5.2: nodes explored (popped from a frontier queue and
// processed) and nodes touched (inserted into a frontier queue), plus
// timing detail separating answer generation from answer output.
type Stats struct {
	// NodesExplored counts frontier pops (Qin/Qout, or iterator steps for
	// MI-Backward).
	NodesExplored int
	// NodesTouched counts distinct node insertions into frontier queues.
	// For MI-Backward a node touched by three iterators counts three
	// times, reflecting its per-iterator state cost.
	NodesTouched int
	// EdgesRelaxed counts edge traversals (relaxation attempts).
	EdgesRelaxed int
	// AnswersGenerated counts answers inserted into the output buffer
	// (after minimality and duplicate filtering).
	AnswersGenerated int
	// BestGeneratedScore is the highest score of any answer generated
	// during the search, including answers later superseded or suppressed
	// by duplicate filtering. At frontier exhaustion all algorithms
	// converge to the same value (they all reach true shortest keyword
	// distances), which the invariant tests exploit; the *output* list can
	// order differently under the heuristic bound (§4.5).
	BestGeneratedScore float64
	// Duration is the total wall-clock time of the search.
	Duration time.Duration
	// LastGenerated is when (relative to search start) the last answer
	// that was eventually output was generated. The paper's "generation
	// time" metric (§5.2): an answer may be generated long before the
	// bound allows outputting it.
	LastGenerated time.Duration
	// LastOutput is when the last answer was released from the output
	// buffer.
	LastOutput time.Duration
	// BudgetExhausted reports that MaxNodes stopped the search early.
	BudgetExhausted bool
	// Truncated reports that context cancellation or deadline expiry
	// stopped the search early; the Answers present are a valid partial
	// top-k prefix, but better answers may have been cut off.
	Truncated bool
}
