package api

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// handlers behind Instrument can still flush (per-answer NDJSON streams).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// reqInfo is the per-request record handlers annotate (query ID, answer
// count, truncation) so Instrument can emit one complete log line after
// the response is written.
type reqInfo struct {
	id        uint64
	tenant    string
	queryID   string
	answers   int
	truncated bool
	// stream/firstAnswer annotate streaming requests: whether the request
	// streamed, and the wall-clock latency from handler start to the
	// first emitted answer (0 when no answer was emitted).
	stream      bool
	firstAnswer time.Duration
}

type reqInfoKey struct{}

func infoFrom(r *http.Request) *reqInfo {
	info, _ := r.Context().Value(reqInfoKey{}).(*reqInfo)
	return info
}

// Annotate fills the request-log record for Instrument.
func Annotate(r *http.Request, queryID string, answers int, truncated bool) {
	if info := infoFrom(r); info != nil {
		info.queryID = queryID
		info.answers = answers
		info.truncated = truncated
	}
}

// AnnotateStream marks the request as a stream whose first answer left
// firstAnswer after the handler started; the log line gains first=.
func AnnotateStream(r *http.Request, firstAnswer time.Duration) {
	if info := infoFrom(r); info != nil {
		info.stream = true
		info.firstAnswer = firstAnswer
	}
}

// Instrument wraps a route mux with panic containment, per-request IDs,
// the request counter, and (for /v1/ endpoints, when logger is non-nil)
// one structured log line per request.
//
// Requests count under the route pattern the http.ServeMux matched
// (r.Pattern, which the mux sets on the request it is handed), or
// "other" when it matched none. The path label is therefore always a
// registered route or "other": scanners probing /wp-login.php, typos and
// non-canonical spellings of a route cannot mint a permanent series each,
// an unbounded memory and scrape-size leak on an exposed listener.
func Instrument(next http.Handler, logger *log.Logger, requests *CounterVec) http.Handler {
	var seq atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &reqInfo{id: seq.Add(1), tenant: r.Header.Get("X-Tenant")}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				// A handler panic must not take the process (and every
				// other in-flight request) down with it.
				if logger != nil {
					logger.Printf("panic rid=%d %s %s: %v\n%s", info.id, r.Method, r.URL.Path, p, debug.Stack())
				}
				if sw.status == 0 {
					WriteError(sw, &Error{Status: http.StatusInternalServerError,
						Code: CodeInternal, Detail: "internal server error"})
				}
			}
			path := r.Pattern
			if path == "" {
				path = "other"
			}
			requests.Inc(path, strconv.Itoa(sw.status))
			if logger != nil && strings.HasPrefix(r.URL.Path, "/v1/") {
				tenant := info.tenant
				if tenant == "" {
					tenant = "-"
				}
				qid := info.queryID
				if qid == "" {
					qid = "-"
				}
				first := ""
				if info.stream {
					first = fmt.Sprintf(" first=%s", info.firstAnswer.Round(time.Microsecond))
				}
				logger.Printf("rid=%d tenant=%s qid=%s %s %s %d %s answers=%d truncated=%v%s",
					info.id, tenant, qid, r.Method, r.URL.RequestURI(), sw.status,
					time.Since(start).Round(time.Microsecond), info.answers, info.truncated, first)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// Healthz answers liveness probes: 200 "ok", or 503 "draining" once
// draining is set, so load balancers stop routing to an instance that is
// shutting down.
func Healthz(draining *atomic.Bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ok\n"))
	}
}
