package router_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"banks/internal/api"
)

// decodeV1Envelope asserts body is exactly the v1 error envelope — the
// top level holds only "error", and error only code, field and detail,
// with code and detail present — and returns its error object.
func decodeV1Envelope(t *testing.T, body []byte) api.Error {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(top) != 1 || top["error"] == nil {
		t.Fatalf("top-level keys must be exactly {error}: %s", body)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(top["error"], &keys); err != nil {
		t.Fatalf("error is not an object: %s", body)
	}
	for k := range keys {
		if k != "code" && k != "field" && k != "detail" {
			t.Fatalf("error carries key %q outside {code, field, detail}: %s", k, body)
		}
	}
	var e api.Error
	if err := json.Unmarshal(top["error"], &e); err != nil {
		t.Fatal(err)
	}
	if e.Code == "" || e.Detail == "" {
		t.Fatalf("error lacks code or detail: %s", body)
	}
	return e
}

// TestErrorEnvelopeV1 pins the router's error shape to the v1 envelope
// the shard servers emit — clients cannot tell which tier answered — for
// the router's own rejection (not_routed) and for a shard's 4xx passed
// through with its status, code and diagnosis.
func TestErrorEnvelopeV1(t *testing.T) {
	d := deploy(t)
	cases := []struct {
		name, path string
		status     int
		code       string
		detail     string // substring
	}{
		{"not routed", "/v1/near?q=gray", http.StatusNotImplemented, api.CodeNotRouted, "cannot be merged exactly"},
		{"shard 4xx passthrough", "/v1/search?q=gray&algo=bogus", http.StatusBadRequest, api.CodeBadRequest, "unknown algorithm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(d.router.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			e := decodeV1Envelope(t, body)
			if e.Code != tc.code || !strings.Contains(e.Detail, tc.detail) {
				t.Fatalf("error = %+v, want code %q with detail containing %q", e, tc.code, tc.detail)
			}
		})
	}
}

// TestRouterCodesRegistered pins that every code the router can emit is
// in the shared registry.
func TestRouterCodesRegistered(t *testing.T) {
	for _, code := range []string{
		api.CodeBadBody, api.CodeBodyTooLarge, api.CodeMethodNotAllowed,
		api.CodeBadRequest, api.CodeBatchTooLarge, api.CodeShardRejected,
		api.CodeShardError, api.CodeNotRouted, api.CodeInternal,
	} {
		if !api.Known(code) {
			t.Errorf("router-emitted code %q not in registry", code)
		}
	}
}
