package api

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRegistryCoversConstants pins that every code constant resolves in
// the registry with a sane HTTP status.
func TestRegistryCoversConstants(t *testing.T) {
	codes := []string{
		CodeBadRequest, CodeBadOptions, CodeBadBody, CodeBodyTooLarge,
		CodeBatchTooLarge, CodeMutateTooLarge, CodeMethodNotAllowed,
		CodeOverCapacity, CodeTenantOverCapacity, CodeDeadlineExceeded,
		CodeCanceled, CodeInternal, CodeNotMutable, CodeMutateDenied,
		CodeWALAppendFailed, CodeCompactFailed, CodeNotPrimary,
		CodeShardError, CodeShardRejected, CodeNotRouted,
	}
	if len(codes) != len(Registry) {
		t.Fatalf("registry has %d entries, constants list %d — keep them in lockstep", len(Registry), len(codes))
	}
	for _, c := range codes {
		info, ok := Registry[c]
		if !ok {
			t.Fatalf("code %q missing from registry", c)
		}
		if info.Status < 400 || info.Status > 599 {
			t.Fatalf("code %q has non-error status %d", c, info.Status)
		}
		if info.Description == "" {
			t.Fatalf("code %q has no description", c)
		}
		if !Known(c) {
			t.Fatalf("Known(%q) = false", c)
		}
	}
	if Known("no_such_code") {
		t.Fatal("Known accepted an unregistered code")
	}
}

// TestEnvelopeShape pins the exact v1 wire shape WriteError emits: the
// status line and headers outside, {"error":{code,field,detail}} inside,
// and nothing else — no legacy top-level code, status or message mirror.
func TestEnvelopeShape(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, &Error{Status: http.StatusTooManyRequests, Code: CodeOverCapacity, Field: "k",
		Detail: "server is at its in-flight limit", RetryAfter: 3})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want 3", ra)
	}
	want := `{"error":{"code":"over_capacity","field":"k","detail":"server is at its in-flight limit"}}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("body = %s, want %s", got, want)
	}
}

// TestEnvelopeOmitsEmptyField pins that field is omitted when unknown
// rather than emitted as "", and that Retry-After is absent unless set.
func TestEnvelopeOmitsEmptyField(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, &Error{Status: http.StatusInternalServerError, Code: CodeInternal, Detail: "boom"})
	if got, want := rec.Body.String(), `{"error":{"code":"internal","detail":"boom"}}`+"\n"; got != want {
		t.Fatalf("body = %s, want %s", got, want)
	}
	if _, ok := rec.Header()["Retry-After"]; ok {
		t.Fatal("Retry-After set without a RetryAfter")
	}
}
