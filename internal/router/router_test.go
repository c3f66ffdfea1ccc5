package router_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"banks"
	"banks/internal/relational"
	"banks/internal/router"
	"banks/internal/server"
	"banks/internal/shard"
)

// corpusDB builds the golden bibliography corpus (a single connected
// component, so the sharded deployment must be bit-exact for every
// algorithm).
func corpusDB(t testing.TB) *banks.DB {
	t.Helper()
	db := relational.NewDatabase()
	author, _ := db.CreateTable("author", []string{"name"}, nil)
	conf, _ := db.CreateTable("conference", []string{"name"}, nil)
	paper, _ := db.CreateTable("paper", []string{"title"}, []relational.FK{{Name: "conf", RefTable: "conference"}})
	writes, _ := db.CreateTable("writes", nil, []relational.FK{
		{Name: "author", RefTable: "author"},
		{Name: "paper", RefTable: "paper"},
	})
	author.Append([]string{"Jim Gray"}, nil)
	author.Append([]string{"Pat Selinger"}, nil)
	author.Append([]string{"Jeffrey Ullman"}, nil)
	author.Append([]string{"Michael Stonebraker"}, nil)
	conf.Append([]string{"VLDB"}, nil)
	conf.Append([]string{"SIGMOD"}, nil)
	paper.Append([]string{"Transaction Recovery Principles"}, []int32{0})
	paper.Append([]string{"Access Path Selection"}, []int32{1})
	paper.Append([]string{"Database System Concepts"}, []int32{0})
	paper.Append([]string{"Query Optimization Survey"}, []int32{1})
	paper.Append([]string{"Distributed Transaction Management"}, []int32{0})
	writes.Append(nil, []int32{0, 0})
	writes.Append(nil, []int32{1, 1})
	writes.Append(nil, []int32{2, 2})
	writes.Append(nil, []int32{3, 3})
	writes.Append(nil, []int32{0, 4})
	writes.Append(nil, []int32{1, 4})
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	bdb, err := banks.Build(db, banks.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return bdb
}

func newBackend(t *testing.T, db *banks.DB, desc string) *httptest.Server {
	t.Helper()
	eng, err := banks.NewEngine(db, banks.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Generous admission headroom: failover tests concentrate every
	// worker on one surviving replica, and a transient 429 from the
	// default 4x-pool gate would read as a routing failure. Admission
	// overflow has its own tests in internal/server.
	srv, err := server.New(server.Config{Engine: eng, DB: db, Dataset: desc, MaxInFlight: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// deployment is one complete sharded test topology: a single-node server
// over the unsharded snapshot, N shard servers over the shard files, and
// a router fanning across them. All DBs are served from snapshot files —
// the same serving mode production uses — so node labels match between
// the single-node and shard backends.
type deployment struct {
	single    *httptest.Server
	shards    []*httptest.Server
	router    *httptest.Server
	routerRaw *router.Router
}

const nshards = 3

func deploy(t *testing.T) *deployment {
	t.Helper()
	built := corpusDB(t)
	base := filepath.Join(t.TempDir(), "corpus.snap")
	if err := built.WriteSnapshotFile(base); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.WriteFiles(base, nshards, built.Graph, built.Index, built.Mapping, built.EdgeTypes); err != nil {
		t.Fatal(err)
	}
	open := func(path string) *banks.DB {
		db, err := banks.OpenSnapshot(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	d := &deployment{single: newBackend(t, open(base), "single")}
	topology := make([][]string, nshards)
	for s := 0; s < nshards; s++ {
		ts := newBackend(t, open(shard.FilePath(base, s, nshards)), fmt.Sprintf("shard %d", s))
		d.shards = append(d.shards, ts)
		topology[s] = []string{ts.URL}
	}
	rt, err := router.New(router.Config{Shards: topology, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	d.routerRaw = rt
	d.router = httptest.NewServer(rt.Handler())
	t.Cleanup(d.router.Close)
	return d
}

// searchBody is the subset of the /v1/search response the differential
// compares; answers stay raw so the comparison is at the byte level.
type searchBody struct {
	QueryID   string            `json:"query_id"`
	Algo      string            `json:"algo"`
	K         int               `json:"k"`
	Truncated bool              `json:"truncated"`
	Answers   []json.RawMessage `json:"answers"`
	Stats     struct {
		Shards    int `json:"shards"`
		Failovers int `json:"failovers"`
	} `json:"stats"`
}

func fetchSearch(t *testing.T, rawURL string) *searchBody {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", rawURL, resp.StatusCode)
	}
	var body searchBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return &body
}

// TestRouterDifferential is the serving-tier acceptance proof: for every
// algorithm, the routed scatter-gather answer list is byte-identical —
// order, scores, float formatting, labels — to the single-node server's,
// across real HTTP servers and real shard snapshot files.
func TestRouterDifferential(t *testing.T) {
	d := deploy(t)
	queries := []string{"gray transaction", "database query", "selinger vldb", "transaction"}
	for _, q := range queries {
		for _, algo := range banks.Algorithms() {
			for _, k := range []int{3, 10} {
				path := fmt.Sprintf("/v1/search?q=%s&algo=%s&k=%d", url.QueryEscape(q), algo, k)
				want := fetchSearch(t, d.single.URL+path)
				got := fetchSearch(t, d.router.URL+path)
				name := fmt.Sprintf("%s/%s/k=%d", q, algo, k)
				if got.QueryID != want.QueryID || got.Algo != want.Algo || got.K != want.K {
					t.Errorf("%s: header mismatch: got (%s,%s,%d), want (%s,%s,%d)",
						name, got.QueryID, got.Algo, got.K, want.QueryID, want.Algo, want.K)
				}
				if got.Truncated != want.Truncated {
					t.Errorf("%s: truncated %v, want %v", name, got.Truncated, want.Truncated)
				}
				if len(got.Answers) != len(want.Answers) {
					t.Errorf("%s: %d answers, want %d", name, len(got.Answers), len(want.Answers))
					continue
				}
				for i := range got.Answers {
					if string(got.Answers[i]) != string(want.Answers[i]) {
						t.Errorf("%s: answer %d differs:\n  routed: %s\n  single: %s",
							name, i, got.Answers[i], want.Answers[i])
					}
				}
			}
		}
	}
}

// streamLine mirrors the NDJSON wire lines for assertions.
type streamLine struct {
	Type     string          `json:"type"`
	Rank     int             `json:"rank"`
	Answer   json.RawMessage `json:"answer"`
	Answers  int             `json:"answers"`
	Cached   bool            `json:"cached"`
	Degraded bool            `json:"degraded"`
	Error    string          `json:"error"`
	Stats    struct {
		Shards    int `json:"shards"`
		Failovers int `json:"failovers"`
	} `json:"stats"`
}

func fetchStream(t *testing.T, rawURL string) (answers []streamLine, trailer *streamLine) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", rawURL, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "answer":
			answers = append(answers, line)
		case "trailer":
			l := line
			trailer = &l
		default:
			t.Fatalf("unknown line type %q", line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if trailer == nil {
		t.Fatal("stream ended without a trailer")
	}
	return answers, trailer
}

// TestRouterStreamDifferential proves the routed stream carries the same
// answer objects in the same order as the single-node stream, with
// router-assigned ranks and a well-formed trailer.
func TestRouterStreamDifferential(t *testing.T) {
	d := deploy(t)
	path := "/v1/search?q=" + url.QueryEscape("gray transaction") + "&algo=bidirectional&k=10"
	spath := strings.Replace(path, "/v1/search?", "/v1/search/stream?", 1)

	wantAnswers, _ := fetchStream(t, d.single.URL+spath)
	gotAnswers, trailer := fetchStream(t, d.router.URL+spath)
	if len(gotAnswers) != len(wantAnswers) {
		t.Fatalf("routed stream has %d answers, single %d", len(gotAnswers), len(wantAnswers))
	}
	for i := range gotAnswers {
		if gotAnswers[i].Rank != i+1 {
			t.Errorf("answer %d has rank %d, want %d", i, gotAnswers[i].Rank, i+1)
		}
		if string(gotAnswers[i].Answer) != string(wantAnswers[i].Answer) {
			t.Errorf("answer %d differs:\n  routed: %s\n  single: %s", i, gotAnswers[i].Answer, wantAnswers[i].Answer)
		}
	}
	if trailer.Answers != len(gotAnswers) {
		t.Errorf("trailer.answers = %d, want %d", trailer.Answers, len(gotAnswers))
	}
	if trailer.Stats.Shards != nshards {
		t.Errorf("trailer.stats.shards = %d, want %d", trailer.Stats.Shards, nshards)
	}
	if trailer.Error != "" {
		t.Errorf("trailer.error = %q", trailer.Error)
	}
	// The routed batch and stream responses agree with each other too.
	batch := fetchSearch(t, d.router.URL+path)
	if len(batch.Answers) != len(gotAnswers) {
		t.Fatalf("batch/stream disagree: %d vs %d answers", len(batch.Answers), len(gotAnswers))
	}
	for i := range batch.Answers {
		if string(batch.Answers[i]) != string(gotAnswers[i].Answer) {
			t.Errorf("batch answer %d differs from stream answer", i)
		}
	}
}

// waitStatusz polls the router's /statusz until cond holds or the
// deadline passes, returning the last document.
func waitStatusz(t *testing.T, routerURL string, cond func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var doc map[string]any
	for time.Now().Before(deadline) {
		resp, err := http.Get(routerURL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		doc = map[string]any{}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cond(doc) {
			return doc
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("statusz condition not reached; last: %v", doc)
	return nil
}

func TestRouterStatuszRoutingTable(t *testing.T) {
	d := deploy(t)
	doc := waitStatusz(t, d.router.URL, func(doc map[string]any) bool {
		ok, _ := doc["all_healthy"].(bool)
		return ok
	})
	if got := doc["num_shards"].(float64); int(got) != nshards {
		t.Errorf("num_shards = %v, want %d", got, nshards)
	}
	rows := doc["shards"].([]any)
	if len(rows) != nshards {
		t.Fatalf("routing table has %d rows, want %d", len(rows), nshards)
	}
	for i, r := range rows {
		row := r.(map[string]any)
		if !row["healthy"].(bool) {
			t.Errorf("shard %d unhealthy: %v", i, row)
		}
		reps := row["replicas"].([]any)
		if len(reps) != 1 {
			t.Fatalf("shard %d has %d replica rows, want 1", i, len(reps))
		}
		rep := reps[0].(map[string]any)
		if !rep["healthy"].(bool) {
			t.Errorf("shard %d replica unhealthy: %v", i, rep["last_error"])
		}
		if rep["misrouted"] == true {
			t.Errorf("shard %d flagged misrouted: %v", i, rep)
		}
		if cs, ok := rep["claimed_shard"].(float64); !ok || int(cs) != i {
			t.Errorf("shard %d claims shard %v", i, rep["claimed_shard"])
		}
		if cn, ok := rep["claimed_num_shards"].(float64); !ok || int(cn) != nshards {
			t.Errorf("shard %d claims %v shards", i, rep["claimed_num_shards"])
		}
	}
	if tr, ok := doc["total_replicas"].(float64); !ok || int(tr) != nshards {
		t.Errorf("total_replicas = %v, want %d", doc["total_replicas"], nshards)
	}
	if doc["degraded"] != false {
		t.Errorf("degraded = %v, want false with every replica up", doc["degraded"])
	}
}

func TestRouterMetrics(t *testing.T) {
	d := deploy(t)
	fetchSearch(t, d.router.URL+"/v1/search?q=gray&k=3")
	resp, err := http.Get(d.router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	text := sb.String()
	for _, want := range []string{
		`banksrouter_queries_total{outcome="ok"} 1`,
		`banksrouter_shard_requests_total{shard="0",replica="0",outcome="ok"} 1`,
		`banksrouter_shard_requests_total{shard="2",replica="0",outcome="ok"} 1`,
		`banksrouter_shard_latency_seconds_count{shard="1",replica="0"} 1`,
		`banksrouter_shard_healthy{shard="0"} 1`,
		`banksrouter_replica_healthy{shard="0",replica="0"} 1`,
		`banksrouter_failovers_total{shard="0"} 0`,
		`banksrouter_hedges_total 0`,
		`banksrouter_shards 3`,
		`banksrouter_replicas 3`,
		`banksrouter_http_requests_total{path="/v1/search",code="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRouterShardFailure pins the all-shards-must-succeed contract: with
// one shard down the router fails the query with 502 (never a silently
// partial top-k) and discloses the failure in /statusz and /metrics.
func TestRouterShardFailure(t *testing.T) {
	d := deploy(t)
	d.shards[1].Close()
	resp, err := http.Get(d.router.URL + "/v1/search?q=gray&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("HTTP %d, want 502", resp.StatusCode)
	}
	var body struct {
		Error struct {
			Code   string `json:"code"`
			Detail string `json:"detail"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "shard_error" {
		t.Errorf("error code %q, want shard_error", body.Error.Code)
	}
	if !strings.Contains(body.Error.Detail, "shard 1") {
		t.Errorf("error detail %q does not name the failed shard", body.Error.Detail)
	}
	doc := waitStatusz(t, d.router.URL, func(doc map[string]any) bool {
		return doc["all_healthy"] == false
	})
	row := doc["shards"].([]any)[1].(map[string]any)
	if row["healthy"].(bool) {
		t.Error("failed shard still marked healthy")
	}
	rep := row["replicas"].([]any)[0].(map[string]any)
	if rep["healthy"].(bool) {
		t.Error("failed replica still marked healthy")
	}
	if rep["errors"].(float64) == 0 {
		t.Error("failed replica shows zero errors")
	}
	if doc["degraded"] != true {
		t.Errorf("degraded = %v, want true with a replica down", doc["degraded"])
	}
}

// TestRouterShardRejectionPassthrough: a shard-side 4xx (the client's
// fault on every shard equally) keeps its status and code instead of
// being relabeled 502.
func TestRouterShardRejectionPassthrough(t *testing.T) {
	d := deploy(t)
	resp, err := http.Get(d.router.URL + "/v1/search?q=gray&algo=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
}

func TestRouterNearUnsupported(t *testing.T) {
	d := deploy(t)
	resp, err := http.Get(d.router.URL + "/v1/near?q=gray")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("HTTP %d, want 501", resp.StatusCode)
	}
	var body struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "not_routed" {
		t.Errorf("error code %q, want not_routed", body.Error.Code)
	}
}

func TestRouterHealthzDrain(t *testing.T) {
	d := deploy(t)
	resp, err := http.Get(d.router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz HTTP %d, want 200", resp.StatusCode)
	}
	d.routerRaw.BeginDrain()
	resp, err = http.Get(d.router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz HTTP %d, want 503", resp.StatusCode)
	}
}

// TestRouterPOSTBody: the router replays a POST body to every shard;
// the routed result matches the equivalent GET.
func TestRouterPOSTBody(t *testing.T) {
	d := deploy(t)
	body := `{"query":"gray transaction","algo":"bidirectional","k":5}`
	resp, err := http.Post(d.router.URL+"/v1/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", resp.StatusCode)
	}
	var got searchBody
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := fetchSearch(t, d.router.URL+"/v1/search?q="+url.QueryEscape("gray transaction")+"&algo=bidirectional&k=5")
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("POST returned %d answers, GET %d", len(got.Answers), len(want.Answers))
	}
	for i := range got.Answers {
		if string(got.Answers[i]) != string(want.Answers[i]) {
			t.Errorf("answer %d differs between POST and GET", i)
		}
	}
}

// batchBody is the routed /v1/batch response shape under test.
type batchBody struct {
	Results []*searchBody `json:"results"`
	Errors  []*struct {
		Code string `json:"code"`
	} `json:"errors"`
}

func postBatch(t *testing.T, baseURL, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, []byte(buf.String())
}

// TestRouterBatchDifferential: each routed batch element carries exactly
// the answers the routed single-query endpoint serves for the same
// query, and a failing element lands in errors[i] without failing its
// siblings.
func TestRouterBatchDifferential(t *testing.T) {
	d := deploy(t)
	code, raw := postBatch(t, d.router.URL, `{"queries":[
		{"query":"gray transaction","algo":"bidirectional","k":5},
		{"query":"database query","algo":"si-backward","k":3},
		{"query":"","algo":"bidirectional"}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, raw)
	}
	var body batchBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Results) != 3 || len(body.Errors) != 3 {
		t.Fatalf("results/errors arrays: %d/%d, want 3/3", len(body.Results), len(body.Errors))
	}
	singles := []string{
		"/v1/search?q=" + url.QueryEscape("gray transaction") + "&algo=bidirectional&k=5",
		"/v1/search?q=" + url.QueryEscape("database query") + "&algo=si-backward&k=3",
	}
	for i, path := range singles {
		if body.Errors[i] != nil {
			t.Fatalf("element %d errored: %+v", i, body.Errors[i])
		}
		got := body.Results[i]
		want := fetchSearch(t, d.router.URL+path)
		if got == nil {
			t.Fatalf("element %d has no result", i)
		}
		if got.QueryID != want.QueryID || len(got.Answers) != len(want.Answers) {
			t.Fatalf("element %d: (%s, %d answers), want (%s, %d answers)",
				i, got.QueryID, len(got.Answers), want.QueryID, len(want.Answers))
		}
		for j := range got.Answers {
			if string(got.Answers[j]) != string(want.Answers[j]) {
				t.Errorf("element %d answer %d differs:\n  batch:  %s\n  single: %s",
					i, j, got.Answers[j], want.Answers[j])
			}
		}
	}
	if body.Results[2] != nil {
		t.Error("invalid element produced a result")
	}
	if body.Errors[2] == nil || body.Errors[2].Code != "bad_request" {
		t.Errorf("invalid element error: %+v, want the shard's bad_request", body.Errors[2])
	}
}

// TestRouterBatchValidation: structural rejects fail the whole batch
// with 400, mirroring the shard batch decoder's contract.
func TestRouterBatchValidation(t *testing.T) {
	d := deploy(t)
	big := `{"queries":[` + strings.Repeat(`{"query":"x"},`, 64) + `{"query":"x"}]}`
	cases := []struct {
		name, body, code string
	}{
		{"empty", `{"queries":[]}`, "bad_request"},
		{"unknown top-level field", `{"queries":[{"query":"x"}],"deadline":5}`, "bad_body"},
		{"element timeout", `{"queries":[{"query":"x","timeout_ms":50}]}`, "bad_request"},
		{"negative timeout", `{"timeout_ms":-1,"queries":[{"query":"x"}]}`, "bad_request"},
		{"oversized", big, "batch_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := postBatch(t, d.router.URL, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("HTTP %d: %s", code, raw)
			}
			var e struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatal(err)
			}
			if e.Error.Code != tc.code {
				t.Errorf("error code %q, want %q", e.Error.Code, tc.code)
			}
		})
	}
}
