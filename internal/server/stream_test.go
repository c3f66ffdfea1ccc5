package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"banks"
	"banks/internal/api"
)

// parseStreamBody splits an NDJSON stream body into its answer lines and
// the trailer, asserting the framing invariants: every line parses, all
// but the last are answers with ranks 1..n, the last is the trailer.
func parseStreamBody(t *testing.T, body []byte) ([]streamAnswerLine, streamTrailerLine) {
	t.Helper()
	var answers []streamAnswerLine
	var trailer streamTrailerLine
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatalf("empty stream body:\n%s", body)
	}
	for i, line := range lines[:len(lines)-1] {
		var a streamAnswerLine
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i, err, line)
		}
		if a.Type != "answer" {
			t.Fatalf("line %d has type %q, want answer", i, a.Type)
		}
		if a.Rank != i+1 {
			t.Fatalf("line %d has rank %d", i, a.Rank)
		}
		answers = append(answers, a)
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &trailer); err != nil {
		t.Fatalf("trailer does not parse: %v\n%s", err, last)
	}
	if trailer.Type != "trailer" {
		t.Fatalf("last line has type %q, want trailer\n%s", trailer.Type, last)
	}
	return answers, trailer
}

// TestStreamEndToEnd proves the wire contract: NDJSON content type,
// answer lines in rank order bit-matching the batch endpoint's answers,
// and a trailer consistent with the batch response.
func TestStreamEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, batchBody, _ := get(t, ts, "/v1/search?q=database+query&k=3", "")
	if code != http.StatusOK {
		t.Fatalf("batch status %d\n%s", code, batchBody)
	}
	batch := decodeSearchResponse(t, batchBody)

	code, body, hdr := get(t, ts, "/v1/search/stream?q=database+query&k=3", "")
	if code != http.StatusOK {
		t.Fatalf("stream status %d\n%s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	answers, trailer := parseStreamBody(t, body)
	if len(answers) != len(batch.Answers) {
		t.Fatalf("stream has %d answers, batch %d", len(answers), len(batch.Answers))
	}
	for i, a := range answers {
		b := batch.Answers[i]
		if a.Answer.Root != b.Root || a.Answer.Score != b.Score || a.Answer.RootLabel != b.RootLabel {
			t.Fatalf("stream answer %d diverged from batch: %+v vs %+v", i, a.Answer, b)
		}
		if a.OutputMS < a.GeneratedMS {
			t.Fatalf("answer %d output %.3fms before generation %.3fms", i, a.OutputMS, a.GeneratedMS)
		}
	}
	if trailer.QueryID != batch.QueryID {
		t.Fatalf("trailer query id %q, batch %q", trailer.QueryID, batch.QueryID)
	}
	if trailer.Truncated {
		t.Fatal("trailer reports truncation")
	}
	if trailer.Answers != len(answers) {
		t.Fatalf("trailer counts %d answers, stream has %d", trailer.Answers, len(answers))
	}
	if trailer.FirstAnswerMS == nil {
		t.Fatal("trailer missing first_answer_ms")
	}
	// First-answer latency is strictly inside the search duration: the
	// first answer was on the wire before the search finished.
	if *trailer.FirstAnswerMS > trailer.Stats.DurationMS {
		t.Fatalf("first answer at %.3fms after completion at %.3fms",
			*trailer.FirstAnswerMS, trailer.Stats.DurationMS)
	}
	if trailer.K != 3 || trailer.Algo != string(banks.Bidirectional) {
		t.Fatalf("trailer identity wrong: %+v", trailer)
	}
}

// TestStreamFlushesThroughHandler: the stream endpoint, served through
// the full middleware chain, flushes its lines to the wire as it writes
// them instead of leaving them in the response buffer.
func TestStreamFlushesThroughHandler(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search/stream?q=database+query&k=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d\n%s", rec.Code, rec.Body)
	}
	if !rec.Flushed {
		t.Fatal("stream lines were never flushed")
	}
}

// TestStreamTenantClamping proves caps apply to streams exactly as to
// batch searches, with the clamp disclosed in the trailer.
func TestStreamTenantClamping(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: &TenantConfig{
		Default: TenantLimits{MaxK: 2, MaxTimeoutMS: 5000, DefaultTimeoutMS: 2000},
	}})
	code, body, _ := get(t, ts, "/v1/search/stream?q=database+query&k=500", "")
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	answers, trailer := parseStreamBody(t, body)
	if len(answers) > 2 {
		t.Fatalf("clamped stream delivered %d answers", len(answers))
	}
	if len(trailer.Clamped) != 1 || trailer.Clamped[0] != "k" {
		t.Fatalf("clamp not disclosed: %+v", trailer.Clamped)
	}
	if trailer.K != 2 {
		t.Fatalf("trailer k = %d, want 2", trailer.K)
	}
}

// TestStreamBadRequests: validation failures happen before any NDJSON is
// written and use the plain JSON error envelope.
func TestStreamBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{
		"/v1/search/stream",                     // no query
		"/v1/search/stream?q=db&algo=nope",      // unknown algorithm
		"/v1/search/stream?q=db&bogus=1",        // unknown parameter
		"/v1/search/stream?q=db&k=-1",           // core-invalid option
		"/v1/search/stream?q=db&timeout=banana", // malformed timeout
	} {
		code, body, hdr := get(t, ts, path, "")
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400\n%s", path, code, body)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: error content type %q", path, ct)
		}
		var eb api.ErrorEnvelope
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code == "" {
			t.Fatalf("%s: bad error body: %s", path, body)
		}
	}
}

// TestStreamDeadlineTruncates: a stream under a tiny deadline ends
// cleanly with a trailer disclosing truncation, mirroring the batch
// endpoint's 200 + truncated contract.
func TestStreamDeadlineTruncates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The batch endpoint's truncation test uses the same shape: a heavy
	// query (big k, all algorithms are fine) with a microscopic timeout.
	code, body, _ := get(t, ts, "/v1/search/stream?q=database+query+optimization&k=2000&timeout=1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	_, trailer := parseStreamBody(t, body)
	if !trailer.Truncated {
		t.Fatal("1ms stream was not truncated")
	}
}

// TestStreamCacheReplay: a stream after an identical batch query replays
// the cached result and says so.
func TestStreamCacheReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, body, _ := get(t, ts, "/v1/search?q=gray+transaction&k=2", ""); code != http.StatusOK {
		t.Fatalf("warm-up status %d\n%s", code, body)
	}
	code, body, _ := get(t, ts, "/v1/search/stream?q=gray+transaction&k=2", "")
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	_, trailer := parseStreamBody(t, body)
	if !trailer.Cached {
		t.Fatal("stream after identical batch query was not served from cache")
	}
}

// TestTenantQuota is the per-tenant admission acceptance scenario: with
// max_in_flight 1 for tenant "limited", one pinned request fills the
// quota; the tenant's next request gets 429 tenant_over_capacity with
// Retry-After while other tenants still get through; the quota frees on
// completion; and /statusz discloses the quota.
func TestTenantQuota(t *testing.T) {
	db := testDB(t)
	eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: 2, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &TenantConfig{
		Default: generousTenants().Default,
		Tenants: map[string]TenantLimits{"limited": {MaxInFlight: 1}},
	}
	s, ts := newTestServer(t, Config{Engine: eng, DB: db, Tenants: cfg, MaxInFlight: 8})

	pinned := startPinnedRequest(t, ts, "limited")
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.inFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("pinned request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Same tenant, quota full: immediate 429 with the tenant-specific code.
	code, body, hdr := get(t, ts, "/v1/search?q=database&k=1", "limited")
	if code != http.StatusTooManyRequests {
		t.Fatalf("quota breach: status %d\n%s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("tenant 429 without Retry-After")
	}
	var eb api.ErrorEnvelope
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "tenant_over_capacity" {
		t.Fatalf("bad tenant 429 body: %s", body)
	}

	// A different tenant is unaffected (global gate has room).
	if code, body, _ := get(t, ts, "/v1/search?q=database&k=1", "other"); code != http.StatusOK {
		t.Fatalf("other tenant: status %d\n%s", code, body)
	}

	// Streams occupy the quota too: a stream request from the tenant is
	// rejected the same way.
	if code, body, _ := get(t, ts, "/v1/search/stream?q=database&k=1", "limited"); code != http.StatusTooManyRequests {
		t.Fatalf("stream past quota: status %d\n%s", code, body)
	}

	// /statusz discloses the quota and the live usage.
	code, body, _ = get(t, ts, "/statusz", "")
	if code != http.StatusOK {
		t.Fatalf("statusz status %d", code)
	}
	var status struct {
		Admission struct {
			TenantRejected uint64                         `json:"tenant_rejected"`
			Tenants        map[string]tenantAdmissionJSON `json:"tenants"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("statusz does not parse: %v", err)
	}
	lim, ok := status.Admission.Tenants["limited"]
	if !ok {
		t.Fatalf("statusz does not disclose the limited tenant: %s", body)
	}
	if lim.MaxInFlight != 1 || lim.InFlight != 1 || lim.Rejected < 2 {
		t.Fatalf("statusz tenant state %+v", lim)
	}
	if status.Admission.TenantRejected < 2 {
		t.Fatalf("tenant_rejected = %d, want >= 2", status.Admission.TenantRejected)
	}

	// Completing the pinned request frees the quota.
	if out := pinned.finish(t); out.err != nil || out.code != http.StatusOK {
		t.Fatalf("pinned request: %+v", out)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, _, _ := get(t, ts, "/v1/search?q=database&k=1", "limited")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quota never freed (last status %d)", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTenantGatePruning pins the bounded-memory property of the
// per-tenant gates: names that are not explicitly configured (they
// merely inherit a default-chain quota) are pruned once idle — the
// X-Tenant header is attacker-controlled and must not mint permanent
// map entries — while configured names persist so /statusz keeps their
// rejection history.
func TestTenantGatePruning(t *testing.T) {
	a := newAdmission(8)
	// Spoofed name under an inherited quota: admitted, trips the quota
	// once, then goes idle → pruned despite the recorded rejection.
	tok, ok, _ := a.tryAcquire("spoofed-123", 1, false)
	if !ok {
		t.Fatal("first spoofed request refused")
	}
	if _, ok, byTenant := a.tryAcquire("spoofed-123", 1, false); ok || !byTenant {
		t.Fatalf("quota breach not rejected by tenant gate (ok=%v byTenant=%v)", ok, byTenant)
	}
	a.release("spoofed-123", 1, tok)
	if snap := a.tenantSnapshot(); snap != nil {
		t.Fatalf("idle unconfigured gate survived: %+v", snap)
	}
	if a.tenantRejectedTotal() != 1 {
		t.Fatalf("aggregate tenant rejections = %d, want 1", a.tenantRejectedTotal())
	}
	// Configured name: the gate persists across idleness with its count.
	tok, ok, _ = a.tryAcquire("limited", 1, true)
	if !ok {
		t.Fatal("configured tenant refused")
	}
	if _, ok, _ := a.tryAcquire("limited", 1, true); ok {
		t.Fatal("configured quota breach admitted")
	}
	a.release("limited", 1, tok)
	snap := a.tenantSnapshot()
	if st, ok := snap["limited"]; !ok || st.Rejected != 1 || st.InFlight != 0 {
		t.Fatalf("configured gate lost after idle: %+v", snap)
	}
}

// TestStreamMetrics: serving a stream moves the streaming counters and
// the first-answer summary.
func TestStreamMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, body, _ := get(t, ts, "/v1/search/stream?q=database+query&k=2", ""); code != http.StatusOK {
		t.Fatalf("stream status %d\n%s", code, body)
	}
	code, body, _ := get(t, ts, "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		"banksd_streams_total 1",
		"banksd_first_answer_seconds_count 1",
		"banksd_stream_answers_total 2",
		"banksd_admission_tenant_rejected_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(string(body), fmt.Sprintf("banksd_http_requests_total{path=%q,code=%q}", "/v1/search/stream", "200")) {
		t.Fatalf("stream route not counted:\n%s", body)
	}
}
