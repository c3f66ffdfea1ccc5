package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"banks"
	"banks/internal/api"
	"banks/internal/repl"
)

// nodeJSON is one tree node with its display label.
type nodeJSON struct {
	ID    banks.NodeID `json:"id"`
	Label string       `json:"label"`
}

// edgeJSON is one parent→child tree edge.
type edgeJSON struct {
	From    banks.NodeID `json:"from"`
	To      banks.NodeID `json:"to"`
	Type    string       `json:"type,omitempty"`
	Forward bool         `json:"forward"`
	Weight  float64      `json:"weight"`
}

// answerJSON is one ranked answer tree.
type answerJSON struct {
	Root         banks.NodeID   `json:"root"`
	RootLabel    string         `json:"root_label"`
	Score        float64        `json:"score"`
	EdgeScore    float64        `json:"edge_score"`
	NodeScore    float64        `json:"node_score"`
	Nodes        []nodeJSON     `json:"nodes"`
	Edges        []edgeJSON     `json:"edges"`
	KeywordNodes []banks.NodeID `json:"keyword_nodes"`
	PathWeights  []float64      `json:"path_weights"`
}

// statsJSON carries the §5.2 performance counters over the wire.
type statsJSON struct {
	NodesExplored    int     `json:"nodes_explored"`
	NodesTouched     int     `json:"nodes_touched"`
	EdgesRelaxed     int     `json:"edges_relaxed"`
	AnswersGenerated int     `json:"answers_generated"`
	DurationMS       float64 `json:"duration_ms"`
	BudgetExhausted  bool    `json:"budget_exhausted,omitempty"`
}

// searchResponse is the /v1/search (and per-element /v1/batch) body.
type searchResponse struct {
	QueryID string `json:"query_id"`
	Algo    string `json:"algo"`
	K       int    `json:"k"`
	// Clamped lists request fields reduced by the tenant limits, so a
	// caller can tell "ran as asked" from "ran with caps applied".
	Clamped []string `json:"clamped,omitempty"`
	// Truncated reports that the deadline cut the search short: Answers
	// is a valid partial top-k prefix, not the complete answer.
	Truncated bool         `json:"truncated"`
	Answers   []answerJSON `json:"answers"`
	Stats     statsJSON    `json:"stats"`
}

func (s *Server) statsJSON(st banks.Stats) statsJSON {
	return statsJSON{
		NodesExplored:    st.NodesExplored,
		NodesTouched:     st.NodesTouched,
		EdgesRelaxed:     st.EdgesRelaxed,
		AnswersGenerated: st.AnswersGenerated,
		DurationMS:       float64(st.Duration) / float64(time.Millisecond),
		BudgetExhausted:  st.BudgetExhausted,
	}
}

// nodeLabel routes node rendering through the mutation overlay when live
// mutations are enabled: runtime-inserted nodes have no source row, and
// the base row mapping would fault on their IDs.
func (s *Server) nodeLabel(u banks.NodeID) string {
	if s.live != nil {
		return s.live.NodeLabel(u)
	}
	return s.db.NodeLabel(u)
}

func (s *Server) explain(a *banks.Answer) string {
	if s.live != nil {
		return s.live.Explain(a)
	}
	return s.db.Explain(a)
}

func (s *Server) answerJSON(a *banks.Answer) answerJSON {
	nodes := make([]nodeJSON, len(a.Nodes))
	for i, u := range a.Nodes {
		nodes[i] = nodeJSON{ID: u, Label: s.nodeLabel(u)}
	}
	edges := make([]edgeJSON, len(a.Edges))
	for i, e := range a.Edges {
		edges[i] = edgeJSON{
			From: e.From, To: e.To,
			Type:    s.db.EdgeTypes.Name(e.Type),
			Forward: e.Forward,
			Weight:  e.Weight,
		}
	}
	return answerJSON{
		Root:         a.Root,
		RootLabel:    s.nodeLabel(a.Root),
		Score:        a.Score,
		EdgeScore:    a.EdgeScore,
		NodeScore:    a.NodeScore,
		Nodes:        nodes,
		Edges:        edges,
		KeywordNodes: a.KeywordNodes,
		PathWeights:  a.PathWeights,
	}
}

func (s *Server) searchResponse(req *searchRequest, res *banks.Result) *searchResponse {
	answers := make([]answerJSON, len(res.Answers))
	for i, a := range res.Answers {
		answers[i] = s.answerJSON(a)
	}
	return &searchResponse{
		QueryID:   req.queryID(),
		Algo:      string(req.Algo),
		K:         req.Opts.Normalized().K,
		Clamped:   req.Clamped,
		Truncated: res.Stats.Truncated,
		Answers:   answers,
		Stats:     s.statsJSON(res.Stats),
	}
}

// limits resolves the request's tenant header to its serving limits.
func (s *Server) limits(r *http.Request) TenantLimits {
	return s.tenants.Resolve(r.Header.Get("X-Tenant"))
}

// queryCtx applies the effective deadline to the request context.
func queryCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// runSearch executes one decoded query and records its metrics outcome.
// The duration fed to the latency metric is the search's own execution
// time (Stats.Duration), the one definition every query path shares;
// errored queries have no execution time and contribute only to the
// outcome counter.
func (s *Server) runSearch(ctx context.Context, req *searchRequest) (*banks.Result, *api.Error) {
	res, err := s.eng.Search(ctx, req.Query, req.Algo, req.Opts)
	if err != nil {
		s.met.observeQuery(string(req.Algo), outcomeError, 0)
		return nil, mapQueryError(err)
	}
	outcome := outcomeOK
	if res.Stats.Truncated {
		outcome = outcomeTruncated
	}
	s.met.observeQuery(string(req.Algo), outcome, res.Stats.Duration)
	return res, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, herr := decodeSearchRequest(r, s.limits(r))
	if herr != nil {
		api.WriteError(w, herr)
		return
	}
	ctx, cancel := queryCtx(r, req.Timeout)
	defer cancel()
	res, herr := s.runSearch(ctx, req)
	if herr != nil {
		api.Annotate(r, req.queryID(), 0, false)
		api.WriteError(w, herr)
		return
	}
	resp := s.searchResponse(req, res)
	api.Annotate(r, resp.QueryID, len(resp.Answers), resp.Truncated)
	api.WriteJSON(w, resp)
}

// explainResponse is the /v1/explain body: the same search, rendered the
// way cmd/banks prints it.
type explainResponse struct {
	QueryID   string   `json:"query_id"`
	Algo      string   `json:"algo"`
	Clamped   []string `json:"clamped,omitempty"`
	Truncated bool     `json:"truncated"`
	Explains  []string `json:"explains"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, herr := decodeSearchRequest(r, s.limits(r))
	if herr != nil {
		api.WriteError(w, herr)
		return
	}
	ctx, cancel := queryCtx(r, req.Timeout)
	defer cancel()
	res, herr := s.runSearch(ctx, req)
	if herr != nil {
		api.Annotate(r, req.queryID(), 0, false)
		api.WriteError(w, herr)
		return
	}
	explains := make([]string, len(res.Answers))
	for i, a := range res.Answers {
		explains[i] = s.explain(a)
	}
	api.Annotate(r, req.queryID(), len(explains), res.Stats.Truncated)
	api.WriteJSON(w, explainResponse{
		QueryID:   req.queryID(),
		Algo:      string(req.Algo),
		Clamped:   req.Clamped,
		Truncated: res.Stats.Truncated,
		Explains:  explains,
	})
}

// nearNodeJSON is one activation-ranked node.
type nearNodeJSON struct {
	ID         banks.NodeID `json:"id"`
	Label      string       `json:"label"`
	Activation float64      `json:"activation"`
}

// nearResponse is the /v1/near body.
type nearResponse struct {
	QueryID   string         `json:"query_id"`
	Clamped   []string       `json:"clamped,omitempty"`
	Truncated bool           `json:"truncated"`
	Nodes     []nearNodeJSON `json:"nodes"`
	Stats     statsJSON      `json:"stats"`
}

func (s *Server) handleNear(w http.ResponseWriter, r *http.Request) {
	p, herr := decodeSearchParams(r)
	if herr != nil {
		api.WriteError(w, herr)
		return
	}
	// Near queries have no algorithm choice, no output-bound mode, and
	// always combine activations by sum (core.Near forces it); accepting
	// and ignoring any of these would be the silent mismatch the strict
	// decoding exists to prevent.
	if p.Algo != "" {
		api.WriteError(w, api.BadRequest("algo", "near queries have no algorithm choice"))
		return
	}
	if p.StrictBound {
		api.WriteError(w, api.BadRequest("strict_bound", "near queries have no output bound mode"))
		return
	}
	if p.ActivationSum {
		api.WriteError(w, api.BadRequest("activation_sum", "near queries always sum activations; the flag is not configurable"))
		return
	}
	req, herr := p.resolve(s.limits(r))
	if herr != nil {
		api.WriteError(w, herr)
		return
	}
	// Discriminate the stable query ID from a tree search over the same
	// terms: "near" takes the algorithm slot in the hash.
	req.Algo = "near"
	ctx, cancel := queryCtx(r, req.Timeout)
	defer cancel()
	res, stats, err := s.eng.Near(ctx, req.Query, req.Opts)
	if err != nil {
		s.met.observeQuery("near", outcomeError, 0)
		api.Annotate(r, req.queryID(), 0, false)
		api.WriteError(w, mapQueryError(err))
		return
	}
	outcome := outcomeOK
	if stats.Truncated {
		outcome = outcomeTruncated
	}
	s.met.observeQuery("near", outcome, stats.Duration)
	nodes := make([]nearNodeJSON, len(res))
	for i, n := range res {
		nodes[i] = nearNodeJSON{ID: n.Node, Label: s.nodeLabel(n.Node), Activation: n.Activation}
	}
	api.Annotate(r, req.queryID(), len(nodes), stats.Truncated)
	api.WriteJSON(w, nearResponse{
		QueryID:   req.queryID(),
		Clamped:   req.Clamped,
		Truncated: stats.Truncated,
		Nodes:     nodes,
		Stats:     s.statsJSON(stats),
	})
}

// batchResponse is the /v1/batch body: results[i] and errors[i] mirror
// queries[i]; exactly one of the pair is non-null. Clamped discloses
// batch-level reductions (the shared deadline); per-element clamps appear
// on the elements.
type batchResponse struct {
	Clamped []string          `json:"clamped,omitempty"`
	Results []*searchResponse `json:"results"`
	Errors  []*api.Error      `json:"errors"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		api.WriteError(w, &api.Error{Status: http.StatusMethodNotAllowed,
			Code: api.CodeMethodNotAllowed, Detail: "batch requests are POST with a JSON body"})
		return
	}
	reqs, timeout, clamped, herr := decodeBatchRequest(r, s.limits(r))
	if herr != nil {
		api.WriteError(w, herr)
		return
	}
	ctx, cancel := queryCtx(r, timeout)
	defer cancel()

	queries := make([]banks.BatchQuery, len(reqs))
	for i, req := range reqs {
		queries[i] = banks.BatchQuery{Query: req.Query, Algo: req.Algo, Opts: req.Opts}
	}
	results, errs := s.eng.SearchBatch(ctx, queries)

	resp := batchResponse{
		Clamped: clamped,
		Results: make([]*searchResponse, len(reqs)),
		Errors:  make([]*api.Error, len(reqs)),
	}
	answers, truncated := 0, false
	for i := range reqs {
		if errs[i] != nil {
			s.met.observeQuery(string(reqs[i].Algo), outcomeError, 0)
			he := mapQueryError(errs[i])
			if he.Field != "" {
				he.Field = fmt.Sprintf("queries[%d].%s", i, he.Field)
			}
			resp.Errors[i] = he
			continue
		}
		res := results[i]
		outcome := outcomeOK
		if res.Stats.Truncated {
			outcome = outcomeTruncated
			truncated = true
		}
		s.met.observeQuery(string(reqs[i].Algo), outcome, res.Stats.Duration)
		resp.Results[i] = s.searchResponse(reqs[i], res)
		answers += len(resp.Results[i].Answers)
	}
	api.Annotate(r, "batch", answers, truncated)
	api.WriteJSON(w, resp)
}

// statuszResponse is the /statusz introspection document.
type statuszResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Dataset       struct {
		Description string `json:"description,omitempty"`
		Nodes       int    `json:"nodes"`
		Edges       int    `json:"edges"`
		Terms       int    `json:"terms"`
		Snapshotted bool   `json:"snapshotted"`
		ZeroCopy    bool   `json:"zero_copy"`
		// Shard discloses that this server holds one partition of a
		// sharded dataset (datagen -shards); the router's routing table
		// verifies its configuration against this claim.
		Shard *shardJSON `json:"shard,omitempty"`
	} `json:"dataset"`
	Engine struct {
		PoolWorkers int    `json:"pool_workers"`
		InFlight    int    `json:"in_flight"`
		Searches    uint64 `json:"searches"`
		Nears       uint64 `json:"nears"`
		Truncated   uint64 `json:"truncated"`
		Errored     uint64 `json:"errored"`
		CacheHits   uint64 `json:"cache_hits"`
		CacheMisses uint64 `json:"cache_misses"`
		CacheLen    int    `json:"cache_len"`
	} `json:"engine"`
	Admission struct {
		Limit    int    `json:"limit"`
		InFlight int    `json:"in_flight"`
		Rejected uint64 `json:"rejected"`
		// TenantRejected counts rejections caused by per-tenant quotas
		// (included in Rejected).
		TenantRejected uint64 `json:"tenant_rejected,omitempty"`
		// Tenants discloses the per-tenant admission state: the
		// configured max in-flight quota for every tenant that has one,
		// plus live in-flight/rejected counts for tenants currently
		// holding or recently refused slots.
		Tenants map[string]tenantAdmissionJSON `json:"tenants,omitempty"`
	} `json:"admission"`
	// Live discloses the mutation-overlay state when live mutations are
	// enabled: the current generation, how much delta has accumulated
	// since it, and cumulative mutation/compaction activity.
	Live *liveJSON `json:"live,omitempty"`
	// Replication discloses follower state when this server tails a
	// primary's write-ahead log (banksd -follow): connection state, the
	// local and primary log positions, and the lag between them.
	Replication *repl.FollowerStats `json:"replication,omitempty"`
	Tenants     []string            `json:"tenants,omitempty"`
	Runtime     struct {
		GoVersion  string `json:"go_version"`
		Goroutines int    `json:"goroutines"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		HeapBytes  uint64 `json:"heap_bytes"`
	} `json:"runtime"`
}

// shardJSON is the /statusz disclosure of a shard snapshot's metadata.
type shardJSON struct {
	Shard           uint32 `json:"shard"`
	NumShards       uint32 `json:"num_shards"`
	OwnedNodes      uint64 `json:"owned_nodes"`
	OwnedComponents uint64 `json:"owned_components"`
	DuplicatedEdges uint64 `json:"duplicated_edges"`
}

// liveJSON is the /statusz disclosure of the live-mutation state.
type liveJSON struct {
	Generation            uint64  `json:"generation"`
	DeltaVersion          uint64  `json:"delta_version"`
	DeltaNodes            int     `json:"delta_nodes"`
	DeltaEdges            int     `json:"delta_edges"`
	Tombstones            int     `json:"tombstones"`
	OpsSinceBase          uint64  `json:"ops_since_base"`
	MutationsTotal        uint64  `json:"mutations_total"`
	MutationBatches       uint64  `json:"mutation_batches"`
	CompactionsTotal      uint64  `json:"compactions_total"`
	LastCompactionSeconds float64 `json:"last_compaction_seconds,omitempty"`
	// WAL discloses the write-ahead log when one is configured; its
	// absence means mutation acks are memory-only between compactions.
	WAL *walJSON `json:"wal,omitempty"`
}

// walJSON is the /statusz disclosure of the write-ahead log.
type walJSON struct {
	Path           string `json:"path"`
	FsyncPolicy    string `json:"fsync_policy"`
	SizeBytes      int64  `json:"size_bytes"`
	Records        uint64 `json:"records"`
	Appends        uint64 `json:"appends"`
	Syncs          uint64 `json:"syncs"`
	Resets         uint64 `json:"resets"`
	AppendFailures uint64 `json:"append_failures"`
	// ReplayedRecords is how many records crash recovery replayed at
	// startup (0 after a clean start).
	ReplayedRecords int `json:"replayed_records"`
}

// tenantAdmissionJSON is one tenant's admission disclosure in /statusz.
type tenantAdmissionJSON struct {
	// MaxInFlight is the configured quota (0 = none; the global limit
	// alone applies).
	MaxInFlight int    `json:"max_in_flight"`
	InFlight    int    `json:"in_flight"`
	Rejected    uint64 `json:"rejected"`
}

// tenantAdmission merges the configured quotas with the live gate state:
// every configured tenant with a quota appears (even when idle), and so
// does any tenant currently holding quota slots or with past rejections.
func (s *Server) tenantAdmission() map[string]tenantAdmissionJSON {
	out := make(map[string]tenantAdmissionJSON)
	for _, name := range s.tenants.Names() {
		if q := s.tenants.Resolve(name).MaxInFlight; q > 0 {
			out[name] = tenantAdmissionJSON{MaxInFlight: q}
		}
	}
	// The default chain may impose a quota on every unconfigured tenant;
	// disclose it under the empty-header key only when active below.
	for name, st := range s.adm.tenantSnapshot() {
		out[name] = tenantAdmissionJSON{
			MaxInFlight: s.tenants.Resolve(name).MaxInFlight,
			InFlight:    st.InFlight,
			Rejected:    st.Rejected,
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	var resp statuszResponse
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	resp.Draining = s.draining.Load()

	resp.Dataset.Description = s.dataset
	resp.Dataset.Nodes = s.db.Graph.NumNodes()
	resp.Dataset.Edges = s.db.Graph.NumEdges()
	resp.Dataset.Terms = s.db.Index.NumTerms()
	resp.Dataset.Snapshotted = s.db.Snapshotted()
	resp.Dataset.ZeroCopy = s.db.SnapshotZeroCopy()
	if sm := s.db.ShardInfo(); sm != nil {
		resp.Dataset.Shard = &shardJSON{
			Shard:           sm.Shard,
			NumShards:       sm.NumShards,
			OwnedNodes:      sm.OwnedNodes,
			OwnedComponents: sm.OwnedComponents,
			DuplicatedEdges: sm.DuplicatedEdges,
		}
	}

	es := s.eng.Stats()
	resp.Engine.PoolWorkers = es.Workers
	resp.Engine.InFlight = es.InFlight
	resp.Engine.Searches = es.Searches
	resp.Engine.Nears = es.Nears
	resp.Engine.Truncated = es.Truncated
	resp.Engine.Errored = es.Errored
	resp.Engine.CacheHits = es.CacheHits
	resp.Engine.CacheMisses = es.CacheMisses
	resp.Engine.CacheLen = es.CacheLen

	resp.Admission.Limit = s.adm.limit
	resp.Admission.InFlight = s.adm.inFlight()
	resp.Admission.Rejected = s.adm.rejectedTotal()
	resp.Admission.TenantRejected = s.adm.tenantRejectedTotal()
	resp.Admission.Tenants = s.tenantAdmission()

	if s.live != nil {
		st := s.live.Stats()
		resp.Live = &liveJSON{
			Generation:            st.Generation,
			DeltaVersion:          st.DeltaVersion,
			DeltaNodes:            st.DeltaNodes,
			DeltaEdges:            st.DeltaEdges,
			Tombstones:            st.Tombstones,
			OpsSinceBase:          st.OpsSinceBase,
			MutationsTotal:        st.MutationsTotal,
			MutationBatches:       st.MutationBatches,
			CompactionsTotal:      st.CompactionsTotal,
			LastCompactionSeconds: st.LastCompactionSeconds,
		}
		if s.live.HasWAL() {
			ws := s.live.WALStats()
			resp.Live.WAL = &walJSON{
				Path:            ws.Path,
				FsyncPolicy:     string(ws.Policy),
				SizeBytes:       ws.SizeBytes,
				Records:         ws.Records,
				Appends:         ws.Appends,
				Syncs:           ws.Syncs,
				Resets:          ws.Resets,
				AppendFailures:  ws.AppendFailures,
				ReplayedRecords: s.live.Replayed(),
			}
		}
	}

	if s.follower != nil {
		st := s.follower.Stats()
		resp.Replication = &st
	}

	resp.Tenants = s.tenants.Names()

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	resp.Runtime.GoVersion = runtime.Version()
	resp.Runtime.Goroutines = runtime.NumGoroutine()
	resp.Runtime.GOMAXPROCS = runtime.GOMAXPROCS(0)
	resp.Runtime.HeapBytes = mem.HeapAlloc

	api.WriteJSON(w, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	es := s.eng.Stats()
	counters := []api.Counter{
		{Name: "banksd_admission_rejected_total", Help: "Requests rejected by the admission gate (HTTP 429).", Value: s.adm.rejectedTotal()},
		{Name: "banksd_admission_tenant_rejected_total", Help: "Requests rejected by a per-tenant in-flight quota (subset of rejected).", Value: s.adm.tenantRejectedTotal()},
		{Name: "banksd_cache_hits_total", Help: "Engine result-cache hits.", Value: es.CacheHits},
		{Name: "banksd_cache_misses_total", Help: "Engine result-cache misses.", Value: es.CacheMisses},
	}
	gauges := []api.Gauge{
		{Name: "banksd_admission_in_flight", Help: "Requests currently admitted.", Value: float64(s.adm.inFlight())},
		{Name: "banksd_admission_limit", Help: "Admission in-flight limit.", Value: float64(s.adm.limit)},
		{Name: "banksd_engine_in_flight", Help: "Engine pool slots currently held.", Value: float64(es.InFlight)},
		{Name: "banksd_engine_pool_workers", Help: "Engine pool width.", Value: float64(es.Workers)},
		{Name: "banksd_cache_entries", Help: "Entries in the engine result cache.", Value: float64(es.CacheLen)},
		{Name: "banksd_draining", Help: "1 once graceful drain has begun.", Value: api.BoolGauge(s.draining.Load())},
		{Name: "banksd_uptime_seconds", Help: "Seconds since the server started.", Value: time.Since(s.start).Seconds()},
		{Name: "go_goroutines", Help: "Number of goroutines.", Value: float64(runtime.NumGoroutine())},
	}
	if s.live != nil {
		st := s.live.Stats()
		counters = append(counters,
			api.Counter{Name: "banksd_mutations_total", Help: "Mutation ops applied (cumulative across compactions).", Value: st.MutationsTotal},
			api.Counter{Name: "banksd_mutation_batches_total", Help: "Mutation batches accepted.", Value: st.MutationBatches},
			api.Counter{Name: "banksd_compactions_total", Help: "Completed snapshot compactions.", Value: st.CompactionsTotal},
		)
		gauges = append(gauges,
			api.Gauge{Name: "banksd_generation", Help: "Current base snapshot generation.", Value: float64(st.Generation)},
			api.Gauge{Name: "banksd_delta_version", Help: "Mutation batches applied since the current base.", Value: float64(st.DeltaVersion)},
			api.Gauge{Name: "banksd_delta_nodes", Help: "Live nodes inserted since the current base.", Value: float64(st.DeltaNodes)},
			api.Gauge{Name: "banksd_delta_edges", Help: "Live edges inserted since the current base.", Value: float64(st.DeltaEdges)},
			api.Gauge{Name: "banksd_delta_tombstones", Help: "Nodes deleted since the current base.", Value: float64(st.Tombstones)},
			api.Gauge{Name: "banksd_ops_since_base", Help: "Mutation ops applied since the current base generation (resets on compaction).", Value: float64(st.OpsSinceBase)},
			api.Gauge{Name: "banksd_compaction_seconds_sum", Help: "Total seconds spent in compactions (pair with banksd_compactions_total for averages).", Value: st.CompactionSecondsSum},
			api.Gauge{Name: "banksd_last_compaction_seconds", Help: "Duration of the most recent compaction.", Value: st.LastCompactionSeconds},
		)
		if s.live.HasWAL() {
			ws := s.live.WALStats()
			counters = append(counters,
				api.Counter{Name: "banksd_wal_appends_total", Help: "Mutation batches appended to the write-ahead log.", Value: ws.Appends},
				api.Counter{Name: "banksd_wal_syncs_total", Help: "fsync calls issued by the write-ahead log.", Value: ws.Syncs},
				api.Counter{Name: "banksd_wal_resets_total", Help: "Write-ahead log truncations (one per compaction).", Value: ws.Resets},
				api.Counter{Name: "banksd_wal_append_failures_total", Help: "Mutation batches the write-ahead log refused (batch not applied).", Value: ws.AppendFailures},
			)
			gauges = append(gauges,
				api.Gauge{Name: "banksd_wal_size_bytes", Help: "Current write-ahead log file size.", Value: float64(ws.SizeBytes)},
				api.Gauge{Name: "banksd_wal_records", Help: "Records currently in the write-ahead log.", Value: float64(ws.Records)},
			)
		}
	}
	if s.follower != nil {
		st := s.follower.Stats()
		counters = append(counters,
			api.Counter{Name: "banksd_replication_records_applied_total", Help: "WAL records applied from the primary's log.", Value: st.RecordsApplied},
			api.Counter{Name: "banksd_replication_bytes_applied_total", Help: "WAL bytes applied from the primary's log.", Value: uint64(st.BytesApplied)},
			api.Counter{Name: "banksd_replication_bootstraps_total", Help: "Snapshot bootstraps (initial sync or re-sync across a compaction).", Value: st.Bootstraps},
			api.Counter{Name: "banksd_replication_reconnects_total", Help: "Stream reconnects after an error or cut.", Value: st.Reconnects},
		)
		gauges = append(gauges,
			api.Gauge{Name: "banksd_replication_connected", Help: "1 while the follower's tail of the primary's log is healthy.", Value: api.BoolGauge(st.Connected)},
			api.Gauge{Name: "banksd_replication_lag_records", Help: "Mutation batches the primary has acknowledged that this follower has not yet applied.", Value: float64(st.LagRecords)},
			api.Gauge{Name: "banksd_replication_lag_bytes", Help: "WAL bytes between the primary's log end and this follower's.", Value: float64(st.LagBytes)},
			api.Gauge{Name: "banksd_replication_lag_seconds", Help: "Seconds this follower has continuously been behind the primary (0 when caught up).", Value: st.LagSeconds},
		)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, counters, gauges)
}
