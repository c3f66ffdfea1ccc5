package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "router", StartNS: 0, EndNS: 100},
		// Two overlapping shard calls cover [10,70]; a third runs past
		// the parent's end and is clipped to [80,100].
		{ID: 2, Parent: 1, Name: "call", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Name: "call", StartNS: 20, EndNS: 70},
		{ID: 4, Parent: 1, Name: "call", StartNS: 80, EndNS: 130},
		// A grandchild does not count against the grandparent.
		{ID: 5, Parent: 2, Name: "server", StartNS: 15, EndNS: 55},
		{ID: 6, Name: "unrelated", StartNS: 0, EndNS: 1000},
	}
	tree := buildSpanTree(spans)
	if got, err := tree.selfTime(1); err != nil || got != 20 {
		t.Errorf("router self = %v, %v; want 20ns (100 - [10,70] - [80,100])", got, err)
	}
	if got, _ := tree.selfTime(2); got != 10 {
		t.Errorf("call self = %v, want 10ns", got)
	}
	if got, _ := tree.selfTime(5); got != 40 {
		t.Errorf("leaf self = %v, want its whole 40ns", got)
	}
	if _, err := tree.selfTime(99); err == nil {
		t.Error("missing span accepted")
	}
	if n := len(tree.children[1]); n != 3 {
		t.Errorf("router has %d children, want 3", n)
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	req, parent, ok := parseTraceHeader(formatTraceHeader(7, 9))
	if !ok || req != 7 || parent != 9 {
		t.Errorf("round trip = %d/%d %v", req, parent, ok)
	}
	for _, bad := range []string{"", "7", "a/b", "7/"} {
		if _, _, ok := parseTraceHeader(bad); ok {
			t.Errorf("header %q accepted", bad)
		}
	}
}

// TestWrappersLinkSpansAcrossHops drives client → outer handler →
// (wrapped transport) → inner handler and checks the recorded spans form
// one chain under one request, and that an untraced request records
// nothing.
func TestWrappersLinkSpansAcrossHops(t *testing.T) {
	tr := newTracer()
	inner := httptest.NewServer(tr.wrapHandler("inner", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})))
	defer inner.Close()
	client := &http.Client{Transport: tr.wrapTransport("call", http.DefaultTransport)}
	outer := httptest.NewServer(tr.wrapHandler("outer", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, inner.URL, nil)
		resp, err := client.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		io.Copy(w, resp.Body)
		resp.Body.Close()
	})))
	defer outer.Close()

	get := func(header string) {
		req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, outer.URL, nil)
		if header != "" {
			req.Header.Set(traceHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	get("") // untraced
	if n := len(tr.snapshot()); n != 0 {
		t.Fatalf("untraced request recorded %d spans", n)
	}

	request := tr.newRequest()
	root, end := tr.begin("client", request, 0)
	get(formatTraceHeader(request, root))
	end()

	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want client, outer, call, inner: %+v", len(spans), spans)
	}
	byName := map[string]span{}
	for _, s := range spans {
		if s.Request != request {
			t.Errorf("span %q carries request %d, want %d", s.Name, s.Request, request)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %q ends before it starts", s.Name)
		}
		byName[s.Name[:4]] = s // "call <host>" → "call"
	}
	if byName["clie"].Parent != 0 {
		t.Error("client span is not a root")
	}
	if byName["oute"].Parent != byName["clie"].ID {
		t.Error("outer handler span is not a child of the client span")
	}
	if byName["call"].Parent != byName["oute"].ID {
		t.Error("outbound call span is not a child of the outer handler span")
	}
	if byName["inne"].Parent != byName["call"].ID {
		t.Error("inner handler span is not a child of the outbound call span")
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	if tr.active(time.Now()) {
		t.Error("nil tracer reports active")
	}
	h := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	if got := tr.wrapHandler("x", h); got == nil {
		t.Error("nil tracer dropped the handler")
	}
	if got := tr.wrapTransport("x", http.DefaultTransport); got != http.DefaultTransport {
		t.Error("nil tracer wrapped the transport")
	}
	_, end := tr.begin("x", 1, 0)
	end()
	if tr.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
}

func TestSlicedTracerAlternates(t *testing.T) {
	tr := newTracer()
	tr.sliced.Store(true)
	if tr.active(tr.epoch.Add(sliceLen / 2)) {
		t.Error("first slice is traced")
	}
	if !tr.active(tr.epoch.Add(sliceLen + sliceLen/2)) {
		t.Error("second slice is untraced")
	}
	tr.sliced.Store(false)
	if !tr.active(tr.epoch.Add(sliceLen / 2)) {
		t.Error("unsliced tracer is not always on")
	}
}
