package server

import (
	"encoding/json"
	"net/http"
	"time"

	"banks"
	"banks/internal/api"
)

// The /v1/search/stream endpoint: the same query surface as /v1/search,
// answered incrementally as NDJSON (application/x-ndjson) — one answer
// object per line the moment the search outputs it, then exactly one
// trailer line carrying the stats. The first byte of the first answer
// reaches the client while the search is still running, which is the
// paper's interactivity contract (§5.2 separates answer generation from
// answer output precisely so the system can emit early). See
// docs/STREAMING.md for the wire format.

// streamAnswerLine is one NDJSON answer line.
type streamAnswerLine struct {
	Type string `json:"type"` // always "answer"
	// Rank is the answer's 1-based position in the stream.
	Rank int `json:"rank"`
	// GeneratedMS/OutputMS are the §5.2 generation and output offsets of
	// this answer, in milliseconds from search start.
	GeneratedMS float64    `json:"generated_ms"`
	OutputMS    float64    `json:"output_ms"`
	Answer      answerJSON `json:"answer"`
}

// streamTrailerLine is the final NDJSON line of every stream.
type streamTrailerLine struct {
	Type    string   `json:"type"` // always "trailer"
	QueryID string   `json:"query_id"`
	Algo    string   `json:"algo"`
	K       int      `json:"k"`
	Clamped []string `json:"clamped,omitempty"`
	// Truncated reports the stream is a valid prefix, not the complete
	// top-k: the deadline cut the search (or delivery) short.
	Truncated bool `json:"truncated"`
	// Cached marks a stream replayed from the engine result cache.
	Cached bool `json:"cached,omitempty"`
	// Degraded marks a stream whose context ended while an answer was
	// waiting to be delivered.
	Degraded bool `json:"degraded,omitempty"`
	// Answers is the number of answer lines that preceded this trailer.
	Answers int `json:"answers"`
	// FirstAnswerMS is the first answer's output offset in milliseconds
	// from search start (the §5.2 first-output time); absent when the
	// stream emitted nothing. Always at most stats.duration_ms: the
	// first answer was emitted before the search completed.
	FirstAnswerMS *float64 `json:"first_answer_ms,omitempty"`
	// Error carries a post-launch search failure. The HTTP status is
	// already 200 by the time a stream fails, so in-band is the only
	// channel left; request validation errors still use plain HTTP
	// status codes, never this field.
	Error string    `json:"error,omitempty"`
	Stats statsJSON `json:"stats"`
}

// decodeStreamRequest decodes and tenant-resolves one /v1/search/stream
// query. The stream endpoint accepts exactly the /v1/search parameter
// surface — same strict decoding, same tenant clamps — so asking for a
// stream can never smuggle k or a deadline past the tenant caps. It is a
// separate seam (and fuzz target: FuzzDecodeStreamRequest) so the stream
// surface can diverge later without loosening /v1/search.
func decodeStreamRequest(r *http.Request, lim TenantLimits) (*searchRequest, *api.Error) {
	return decodeSearchRequest(r, lim)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Server) handleSearchStream(w http.ResponseWriter, r *http.Request) {
	req, herr := decodeStreamRequest(r, s.limits(r))
	if herr != nil {
		api.WriteError(w, herr)
		return
	}
	ctx, cancel := queryCtx(r, req.Timeout)
	defer cancel()
	st, err := s.eng.SearchStream(ctx, req.Query, req.Algo, req.Opts, banks.StreamOptions{})
	if err != nil {
		s.met.observeQuery(string(req.Algo), outcomeError, 0)
		api.Annotate(r, req.queryID(), 0, false)
		api.WriteError(w, mapQueryError(err))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	// writeLine encodes one NDJSON line and flushes it to the wire — the
	// flush is what makes the answer reach the client now instead of
	// whenever the buffer fills. A write error means the client went
	// away: cancel the query so the search stops generating, but keep
	// draining the stream (the producer needs a reader until it notices
	// the cancellation).
	clientGone := false
	writeLine := func(v any) {
		if clientGone {
			return
		}
		if err := enc.Encode(v); err != nil {
			clientGone = true
			cancel()
			return
		}
		_ = rc.Flush()
	}

	start := time.Now()
	answers := 0
	var firstWall time.Duration // request-relative, for metrics/logs
	var firstOut float64        // search-relative, for the trailer
	for ev := range st.Answers() {
		answers++
		if answers == 1 {
			firstWall = time.Since(start)
			firstOut = ms(ev.OutputAt)
		}
		writeLine(streamAnswerLine{
			Type:        "answer",
			Rank:        ev.Rank,
			GeneratedMS: ms(ev.Answer.GeneratedAt),
			OutputMS:    ms(ev.OutputAt),
			Answer:      s.answerJSON(ev.Answer),
		})
	}
	tr, terr := st.Trailer()

	trailer := streamTrailerLine{
		Type:      "trailer",
		QueryID:   req.queryID(),
		Algo:      string(req.Algo),
		K:         req.Opts.Normalized().K,
		Clamped:   req.Clamped,
		Truncated: tr.Truncated,
		Cached:    tr.Cached,
		Degraded:  tr.Degraded,
		Answers:   answers,
		Stats:     s.statsJSON(tr.Stats),
	}
	if answers > 0 {
		trailer.FirstAnswerMS = &firstOut
	}
	if terr != nil {
		trailer.Error = terr.Error()
		s.met.observeQuery(string(req.Algo), outcomeError, 0)
	} else {
		outcome := outcomeOK
		if tr.Truncated {
			outcome = outcomeTruncated
		}
		s.met.observeQuery(string(req.Algo), outcome, tr.Stats.Duration)
	}
	writeLine(trailer)
	s.met.observeStream(answers, firstWall)
	api.Annotate(r, req.queryID(), answers, tr.Truncated)
	api.AnnotateStream(r, firstWall)
}
