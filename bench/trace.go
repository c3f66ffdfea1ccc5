package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a boundary the harness can interpose on
// from outside the program: the client's request (root), a handler
// wrapper around a server or router, a RoundTripper wrapper on the
// router's outbound client, the follower-visibility poller. Spans of one
// client request share Request; Parent is the span that caused this one
// (0 for roots).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// traceHeader carries "<request>/<parent span>" across an HTTP hop so the
// receiving wrapper can parent its span. A request without it is not
// traced — that is how untraced slices of a run stay span-free.
const traceHeader = "X-Bench-Span"

// tracer is the benchmark's own in-memory span recorder. A nil *tracer is
// valid and records nothing, so untraced runs carry no wrappers at all.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	// sliced selects time-sliced tracing (see sliceLen); when false every
	// op is traced, which is what the serial ladders want.
	sliced atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sliceLen is the length of the alternating traced/untraced slices of a
// traced run. Interleaving the two populations cancels drift (cache
// warm-up, overlay growth) that a first-half/second-half split would
// book as tracing overhead.
const sliceLen = 250 * time.Millisecond

// active reports whether an op starting now falls into a traced slice.
func (t *tracer) active(now time.Time) bool {
	if t == nil {
		return false
	}
	return !t.sliced.Load() || (now.Sub(t.epoch)/sliceLen)%2 == 1
}

// begin opens a span; the returned func closes and records it.
func (t *tracer) begin(name string, request, parent uint64) (id uint64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.nextID.Add(1)
	start := time.Since(t.epoch)
	return id, func() {
		stop := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name,
			StartNS: int64(start), EndNS: int64(stop)})
		t.mu.Unlock()
	}
}

// newRequest mints a request identifier for a root span.
func (t *tracer) newRequest() uint64 { return t.nextID.Add(1) }

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func formatTraceHeader(request, parent uint64) string {
	return strconv.FormatUint(request, 10) + "/" + strconv.FormatUint(parent, 10)
}

func parseTraceHeader(v string) (request, parent uint64, ok bool) {
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	request, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	return request, parent, err1 == nil && err2 == nil
}

type traceCtxKey struct{}

// traceInfo identifies the span a callee should parent on; the zero value
// means the request is untraced.
type traceInfo struct{ request, span uint64 }

// stamp puts the trace header on an outbound request, if it is traced.
func (ti traceInfo) stamp(r *http.Request) {
	if ti.request != 0 {
		r.Header.Set(traceHeader, formatTraceHeader(ti.request, ti.span))
	}
}

// wrapHandler records one span per traced request entering h and puts the
// span's identity into the request context, where wrapTransport finds it
// on any outbound call h makes with a context derived from the request's.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		request, parent, ok := parseTraceHeader(r.Header.Get(traceHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, end := t.begin(name, request, parent)
		defer end()
		ctx := context.WithValue(r.Context(), traceCtxKey{}, traceInfo{request, id})
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// wrapTransport records one span per outbound call made on behalf of a
// traced request and forwards the trace header so the callee parents on
// it.
func (t *tracer) wrapTransport(name string, rt http.RoundTripper) http.RoundTripper {
	if t == nil {
		return rt
	}
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		tc, ok := r.Context().Value(traceCtxKey{}).(traceInfo)
		if !ok {
			return rt.RoundTrip(r)
		}
		id, end := t.begin(name+" "+r.URL.Host, tc.request, tc.span)
		r = r.Clone(r.Context())
		traceInfo{tc.request, id}.stamp(r)
		resp, err := rt.RoundTrip(r)
		if err != nil {
			end()
			return nil, err
		}
		// The call lasts until the body is drained, not until the
		// headers arrive: shard responses stream.
		resp.Body = &spanBody{ReadCloser: resp.Body, end: end}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type spanBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// spanTree indexes spans by parent for self-time queries.
type spanTree struct {
	byID     map[uint64]span
	children map[uint64][]span
}

func buildSpanTree(spans []span) *spanTree {
	t := &spanTree{byID: make(map[uint64]span, len(spans)), children: make(map[uint64][]span)}
	for _, s := range spans {
		t.byID[s.ID] = s
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Overlapping children (parallel shard calls) count
// once, and a child is clipped to its parent's interval.
func (t *spanTree) selfTime(id uint64) (time.Duration, error) {
	s, ok := t.byID[id]
	if !ok {
		return 0, fmt.Errorf("trace: no span %d", id)
	}
	kids := append([]span(nil), t.children[id]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var covered int64
	cursor := s.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, cursor), min(k.EndNS, s.EndNS)
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	return time.Duration(s.EndNS - s.StartNS - covered), nil
}

// named returns the spans whose name starts with prefix.
func named(spans []span, prefix string) []span {
	var out []span
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	return out
}
