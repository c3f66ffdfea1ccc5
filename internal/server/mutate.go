package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"banks"
	"banks/internal/api"
	"banks/internal/graph"
)

// maxWireEdgeType bounds the edge_type wire field to what graph.EdgeType
// (uint16) can hold; anything above would silently truncate.
const maxWireEdgeType = int64(^uint16(0))

// mutateOpJSON is the wire form of one mutation op. Node references use
// pointers so "absent" and "node 0" are distinguishable — op kinds that
// require a node must name one explicitly.
type mutateOpJSON struct {
	Op       string   `json:"op"`
	Table    string   `json:"table,omitempty"`
	Text     string   `json:"text,omitempty"`
	Node     *int64   `json:"node,omitempty"`
	From     *int64   `json:"from,omitempty"`
	To       *int64   `json:"to,omitempty"`
	Weight   *float64 `json:"weight,omitempty"`
	EdgeType int64    `json:"edge_type,omitempty"`
	Term     string   `json:"term,omitempty"`
}

// mutateParams is the POST /v1/mutate body.
type mutateParams struct {
	Ops []mutateOpJSON `json:"ops"`
}

// deltaStatsJSON is the overlay-size block shared by the mutate and
// compact response envelopes.
type deltaStatsJSON struct {
	Nodes      int `json:"nodes"`
	Edges      int `json:"edges"`
	Tombstones int `json:"tombstones"`
}

// mutateResponse is the v1 /v1/mutate envelope, reporting exactly the
// state the acknowledged batch produced (from the typed ApplyResult, not
// a racy re-sample): applied/assigned/generation/delta_version are the
// original fields (kept stable for pre-v1 clients and the reload-smoke
// assertions), wal_offset + durable + delta are the v1 additions.
// (generation, delta_version) — and wal_offset when a WAL is configured
// — are the client's read-your-writes tokens.
type mutateResponse struct {
	Applied      int            `json:"applied"`
	Assigned     []banks.NodeID `json:"assigned,omitempty"`
	Generation   uint64         `json:"generation"`
	DeltaVersion uint64         `json:"delta_version"`
	// WALOffset is the write-ahead-log end offset of this batch's
	// record; absent when the server runs without a WAL.
	WALOffset *int64 `json:"wal_offset,omitempty"`
	// Durable reports whether acknowledgment implies durability (a WAL
	// is configured; the strength depends on its fsync policy).
	Durable bool `json:"durable"`
	// Delta is the overlay size after this batch.
	Delta deltaStatsJSON `json:"delta"`
}

// compactResponse is the v1 /v1/compact envelope, shaped like
// mutateResponse: the state identity the operation produced plus its
// durability disclosure.
type compactResponse struct {
	Generation uint64  `json:"generation"`
	Path       string  `json:"path"`
	DurationMS float64 `json:"duration_ms"`
	// WALTruncated reports that the write-ahead log was emptied because
	// the new generation is durable (false when no WAL is configured).
	WALTruncated bool `json:"wal_truncated"`
	// Delta is the overlay size after compaction (all zero by
	// construction — the overlay folded into the new base).
	Delta deltaStatsJSON `json:"delta"`
}

// nodeField converts one wire node reference, enforcing presence and the
// NodeID (int32) range so an out-of-range value cannot wrap into a valid
// ID.
func nodeField(v *int64, opIdx int, name string) (graph.NodeID, *api.Error) {
	if v == nil {
		return 0, api.BadRequest(fmt.Sprintf("ops[%d].%s", opIdx, name), "%s is required for this op", name)
	}
	if *v < 0 || *v > math.MaxInt32 {
		return 0, api.BadRequest(fmt.Sprintf("ops[%d].%s", opIdx, name), "node ID %d out of range", *v)
	}
	return graph.NodeID(*v), nil
}

// decodeMutateOps decodes and validates a /v1/mutate body into mutation
// ops. maxOps is the tenant batch cap (0 = uncapped). Structural
// validation only — semantic checks (unknown nodes, tombstoned endpoints,
// bad weights in context) belong to the delta layer, which reports them
// per op.
func decodeMutateOps(body io.Reader, maxOps int) ([]banks.MutationOp, *api.Error) {
	var p mutateParams
	if herr := decodeStrictJSON(body, &p); herr != nil {
		return nil, herr
	}
	if len(p.Ops) == 0 {
		return nil, api.BadRequest("ops", "mutation batch contains no ops")
	}
	if maxOps > 0 && len(p.Ops) > maxOps {
		return nil, &api.Error{Status: http.StatusBadRequest, Code: api.CodeMutateTooLarge, Field: "ops",
			Detail: fmt.Sprintf("batch of %d ops exceeds the tenant limit %d", len(p.Ops), maxOps)}
	}
	ops := make([]banks.MutationOp, len(p.Ops))
	for i, w := range p.Ops {
		field := func(name string) string { return fmt.Sprintf("ops[%d].%s", i, name) }
		op := banks.MutationOp{Kind: banks.MutationKind(w.Op)}
		var herr *api.Error
		switch op.Kind {
		case banks.OpInsertNode:
			if w.Table == "" {
				return nil, api.BadRequest(field("table"), "insert_node requires a table")
			}
			op.Table, op.Text = w.Table, w.Text
		case banks.OpInsertEdge:
			if op.From, herr = nodeField(w.From, i, "from"); herr != nil {
				return nil, herr
			}
			if op.To, herr = nodeField(w.To, i, "to"); herr != nil {
				return nil, herr
			}
			if w.Weight == nil {
				return nil, api.BadRequest(field("weight"), "insert_edge requires a weight")
			}
			// JSON cannot express NaN/Inf, so finiteness holds by
			// construction; positivity is the delta layer's check.
			op.Weight = *w.Weight
			if w.EdgeType < 0 || w.EdgeType > maxWireEdgeType {
				return nil, api.BadRequest(field("edge_type"), "edge type %d out of range", w.EdgeType)
			}
			op.EdgeType = graph.EdgeType(w.EdgeType)
		case banks.OpDeleteNode:
			if op.Node, herr = nodeField(w.Node, i, "node"); herr != nil {
				return nil, herr
			}
		case banks.OpDeleteEdge:
			if op.From, herr = nodeField(w.From, i, "from"); herr != nil {
				return nil, herr
			}
			if op.To, herr = nodeField(w.To, i, "to"); herr != nil {
				return nil, herr
			}
		case banks.OpInsertTerm, banks.OpDeleteTerm:
			if op.Node, herr = nodeField(w.Node, i, "node"); herr != nil {
				return nil, herr
			}
			if w.Term == "" {
				return nil, api.BadRequest(field("term"), "%s requires a term", w.Op)
			}
			op.Term = w.Term
		default:
			return nil, api.BadRequest(field("op"), "unknown op kind %q", w.Op)
		}
		ops[i] = op
	}
	return ops, nil
}

// requireLive gates the mutation endpoints: 501 when the server was built
// without live mutations, 403 when the tenant's limits deny them.
func (s *Server) requireLive(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		api.WriteError(w, &api.Error{Status: http.StatusMethodNotAllowed,
			Code: api.CodeMethodNotAllowed, Detail: "mutations are POST with a JSON body"})
		return false
	}
	if s.live == nil {
		api.WriteError(w, &api.Error{Status: http.StatusNotImplemented, Code: api.CodeNotMutable,
			Detail: "this server was started without live mutations (banksd -live)"})
		return false
	}
	if s.follower != nil {
		// A follower's state is a replica of its primary's log; a local
		// write would fork it. Point the client at the leader.
		st := s.follower.Stats()
		api.WriteError(w, &api.Error{Status: http.StatusConflict, Code: api.CodeNotPrimary,
			Detail: fmt.Sprintf("this server is a replication follower; write to the primary at %s", st.Primary)})
		return false
	}
	if !s.limits(r).MutateAllowed() {
		api.WriteError(w, &api.Error{Status: http.StatusForbidden, Code: api.CodeMutateDenied,
			Detail: "this tenant is not allowed to mutate"})
		return false
	}
	return true
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if !s.requireLive(w, r) {
		return
	}
	ops, herr := decodeMutateOps(http.MaxBytesReader(nil, r.Body, maxBodyBytes), s.limits(r).MaxMutateOps)
	if herr != nil {
		api.WriteError(w, herr)
		return
	}
	res, err := s.live.Apply(ops)
	if err != nil {
		var werr *banks.WALError
		if errors.As(err, &werr) {
			// The batch was valid but could not be made durable — and
			// therefore was not applied. 503: the client may retry, the
			// data is intact.
			api.WriteError(w, &api.Error{Status: http.StatusServiceUnavailable,
				Code: api.CodeWALAppendFailed, Detail: err.Error()})
			return
		}
		// Semantic rejections from the delta layer are the caller's to
		// fix; the batch was not applied.
		api.WriteError(w, api.BadRequest("ops", "%v", err))
		return
	}
	api.Annotate(r, "mutate", len(ops), false)
	resp := mutateResponse{
		Applied:      len(ops),
		Assigned:     res.Assigned,
		Generation:   res.Generation,
		DeltaVersion: res.DeltaVersion,
		Durable:      res.WALOffset >= 0,
		Delta:        deltaStatsJSON{Nodes: res.DeltaNodes, Edges: res.DeltaEdges, Tombstones: res.Tombstones},
	}
	if res.WALOffset >= 0 {
		off := res.WALOffset
		resp.WALOffset = &off
	}
	api.WriteJSON(w, resp)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if !s.requireLive(w, r) {
		return
	}
	start := time.Now()
	res, err := s.live.Compact(r.Context())
	if err != nil {
		api.WriteError(w, &api.Error{Status: http.StatusInternalServerError, Code: api.CodeCompactFailed,
			Detail: err.Error()})
		return
	}
	api.Annotate(r, "compact", 0, false)
	api.WriteJSON(w, compactResponse{
		Generation:   res.Generation,
		Path:         res.Path,
		DurationMS:   float64(time.Since(start)) / float64(time.Millisecond),
		WALTruncated: res.WALReset,
	})
}
