package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"banks/internal/api"
)

// decodeV1Error asserts raw is a v1 error object — keys within {code,
// field, detail}, code and detail present — and decodes it.
func decodeV1Error(t *testing.T, raw []byte) api.Error {
	t.Helper()
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatalf("error is not an object: %s", raw)
	}
	for k := range keys {
		if k != "code" && k != "field" && k != "detail" {
			t.Fatalf("error carries key %q outside {code, field, detail}: %s", k, raw)
		}
	}
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code == "" || e.Detail == "" {
		t.Fatalf("error lacks code or detail: %s", raw)
	}
	return e
}

// decodeV1Body asserts an error response body's top level is exactly
// {error} and decodes the error object within it.
func decodeV1Body(t *testing.T, body []byte) api.Error {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(top) != 1 || top["error"] == nil {
		t.Fatalf("top-level keys must be exactly {error}: %s", body)
	}
	return decodeV1Error(t, top["error"])
}

// TestV1OnlyErrorShape pins the envelope on a request rejection: the
// legacy mirrors (top-level code, error.status, error.message) are gone and
// only the v1 contract remains.
func TestV1OnlyErrorShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := get(t, ts, "/v1/search?q=cite&bogus=1", "")
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", code, body)
	}
	if e := decodeV1Body(t, body); e.Code != api.CodeBadRequest || e.Field != "bogus" {
		t.Fatalf("error = %+v, want bad_request on bogus", e)
	}
}

// TestErrorEnvelopeV1 pins the v1 error shape on the errors the server
// emits outside its request parser: a replication publisher error and a
// /v1/batch element error.
func TestErrorEnvelopeV1(t *testing.T) {
	_, ts, _ := newWALServer(t)
	t.Run("publisher error", func(t *testing.T) {
		code, body, _ := get(t, ts, "/v1/replication/log?gen=x&from=0", "")
		if code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400; body %s", code, body)
		}
		if e := decodeV1Body(t, body); e.Code != api.CodeBadRequest || e.Field != "gen" {
			t.Fatalf("error = %+v, want bad_request on gen", e)
		}
	})
	t.Run("batch element error", func(t *testing.T) {
		code, body := post(t, ts, "/v1/batch", "", `{"queries":[{"query":"database","k":1},{"query":"db","k":-1}]}`)
		if code != http.StatusOK {
			t.Fatalf("status = %d, want 200; body %s", code, body)
		}
		var resp struct {
			Errors []json.RawMessage `json:"errors"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if e := decodeV1Error(t, resp.Errors[1]); e.Code != api.CodeBadOptions || e.Field != "queries[1].K" {
			t.Fatalf("element error = %+v, want bad_options on queries[1].K", e)
		}
	})
}

// TestEmittedCodesRegistered pins that every code the server can emit is
// in the shared registry with a matching status.
func TestEmittedCodesRegistered(t *testing.T) {
	cases := []struct {
		code   string
		status int
	}{
		{api.CodeBadRequest, http.StatusBadRequest},
		{api.CodeBadOptions, http.StatusBadRequest},
		{api.CodeBatchTooLarge, http.StatusBadRequest},
		{api.CodeMutateTooLarge, http.StatusBadRequest},
		{api.CodeMethodNotAllowed, http.StatusMethodNotAllowed},
		{api.CodeOverCapacity, http.StatusTooManyRequests},
		{api.CodeTenantOverCapacity, http.StatusTooManyRequests},
		{api.CodeDeadlineExceeded, http.StatusGatewayTimeout},
		{api.CodeCanceled, http.StatusServiceUnavailable},
		{api.CodeInternal, http.StatusInternalServerError},
		{api.CodeNotMutable, http.StatusNotImplemented},
		{api.CodeMutateDenied, http.StatusForbidden},
		{api.CodeWALAppendFailed, http.StatusServiceUnavailable},
		{api.CodeCompactFailed, http.StatusInternalServerError},
	}
	for _, c := range cases {
		info, ok := api.Registry[c.code]
		if !ok {
			t.Errorf("code %q not in registry", c.code)
			continue
		}
		if info.Status != c.status {
			t.Errorf("registry status for %q = %d, server emits %d", c.code, info.Status, c.status)
		}
	}
}
