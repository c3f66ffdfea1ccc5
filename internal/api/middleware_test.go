package api

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// instrumented serves a small route table through Instrument, recording
// the request counter and the log lines.
type instrumented struct {
	h        http.Handler
	requests CounterVec
	log      bytes.Buffer
}

func newInstrumented() *instrumented {
	in := &instrumented{}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		Annotate(r, "q-1", 2, false)
		WriteJSON(w, map[string]int{"answers": 2})
	})
	mux.HandleFunc("/v1/search/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}\n"))
		Annotate(r, "q-2", 1, true)
		AnnotateStream(r, 1500*time.Microsecond)
	})
	mux.HandleFunc("/v1/boom", func(w http.ResponseWriter, r *http.Request) { panic("boom") })
	in.h = Instrument(mux, log.New(&in.log, "", 0), &in.requests)
	return in
}

func (in *instrumented) get(t *testing.T, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	in.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func (in *instrumented) metrics() string {
	var b strings.Builder
	WriteRequests(&b, "test", &in.requests)
	return b.String()
}

var pathLabel = regexp.MustCompile(`path="([^"]*)"`)

// paths lists the distinct path label values in a scrape.
func paths(scrape string) []string {
	var out []string
	for _, m := range pathLabel.FindAllStringSubmatch(scrape, -1) {
		if !slices.Contains(out, m[1]) {
			out = append(out, m[1])
		}
	}
	return out
}

// TestInstrumentPanicContained: a panicking handler answers the v1
// internal envelope, the process survives, and the request counts once.
func TestInstrumentPanicContained(t *testing.T) {
	in := newInstrumented()
	rec := in.get(t, "/v1/boom")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if got, want := rec.Body.String(), `{"error":{"code":"internal","detail":"internal server error"}}`+"\n"; got != want {
		t.Fatalf("body = %s, want %s", got, want)
	}
	if got := in.metrics(); !strings.Contains(got, `test_http_requests_total{path="/v1/boom",code="500"} 1`+"\n") ||
		strings.Count(got, "/v1/boom") != 1 {
		t.Fatalf("panic not counted exactly once:\n%s", got)
	}
	if !strings.Contains(in.log.String(), "panic rid=1 GET /v1/boom: boom") {
		t.Fatalf("panic not logged: %q", in.log.String())
	}
}

// TestInstrumentScannerPathIsOther: a path no route matches counts under
// "other" and never appears as a label.
func TestInstrumentScannerPathIsOther(t *testing.T) {
	in := newInstrumented()
	if rec := in.get(t, "/wp-login.php"); rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	got := in.metrics()
	if !strings.Contains(got, `test_http_requests_total{path="other",code="404"} 1`) {
		t.Fatalf("scanner path not counted as other:\n%s", got)
	}
	if strings.Contains(got, "wp-login") {
		t.Fatalf("scanner path leaked into a label:\n%s", got)
	}
}

// TestInstrumentNonCanonicalPath: a non-canonical spelling of a route
// (the mux redirects it) counts under the route's pattern, so it mints
// no new path series.
func TestInstrumentNonCanonicalPath(t *testing.T) {
	in := newInstrumented()
	in.get(t, "/v1/search")
	before := paths(in.metrics())
	if rec := in.get(t, "/v1//search"); rec.Code != http.StatusMovedPermanently {
		t.Fatalf("status = %d, want the mux's 301", rec.Code)
	}
	got := in.metrics()
	if after := paths(got); !slices.Equal(after, before) {
		t.Fatalf("path labels %v after the non-canonical request, want %v:\n%s", after, before, got)
	}
	if !strings.Contains(got, `test_http_requests_total{path="/v1/search",code="301"} 1`) {
		t.Fatalf("redirect not counted under its route:\n%s", got)
	}
}

// TestInstrumentFlushes: a handler behind Instrument can flush through
// http.ResponseController — the per-answer NDJSON stream depends on it.
func TestInstrumentFlushes(t *testing.T) {
	var flushErr error
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}\n"))
		flushErr = http.NewResponseController(w).Flush()
	}), nil, new(CounterVec))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search/stream", nil))
	if flushErr != nil {
		t.Fatalf("flush behind Instrument: %v", flushErr)
	}
	if !rec.Flushed {
		t.Fatal("recorder was not flushed")
	}
}

// TestInstrumentLogLine: one line per /v1/ request carrying the request
// ID, tenant, query ID, status and annotations; streams add first=.
func TestInstrumentLogLine(t *testing.T) {
	in := newInstrumented()
	req := httptest.NewRequest(http.MethodGet, "/v1/search?q=db", nil)
	req.Header.Set("X-Tenant", "acme")
	in.h.ServeHTTP(httptest.NewRecorder(), req)
	in.get(t, "/v1/search/stream?q=db")
	lines := strings.Split(strings.TrimSpace(in.log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 log lines, got %q", lines)
	}
	if !strings.HasPrefix(lines[0], "rid=1 tenant=acme qid=q-1 GET /v1/search?q=db 200 ") ||
		!strings.HasSuffix(lines[0], " answers=2 truncated=false") {
		t.Fatalf("search log line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "rid=2 tenant=- qid=q-2 GET /v1/search/stream?q=db 200 ") ||
		!strings.HasSuffix(lines[1], " answers=1 truncated=true first=1.5ms") {
		t.Fatalf("stream log line %q", lines[1])
	}
}
