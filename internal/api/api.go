// Package api is the HTTP chassis shared by every serving surface of the
// system — banksd (internal/server), banksrouter (internal/router) and the
// replication publisher (internal/repl): the v1 error envelope and the
// registry of machine-readable error codes, the JSON writers, the
// instrument middleware every request passes through, the health
// handler, and the Prometheus text helpers (metrics.go).
//
// The v1 error contract is one schema:
//
//	{"error": {"code": "...", "field": "...", "detail": "..."}}
//
// where code is a slug from the registry below, field names the
// offending request field for validation errors (omitted otherwise), and
// detail is the human-readable diagnosis. docs/ERRORS.md is the registry
// of record.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Error codes of the v1 registry. Every error either surface emits uses
// one of these slugs; adding a call site with a new literal means adding
// it here and to docs/ERRORS.md first.
const (
	// CodeBadRequest: a structurally invalid request (unknown field or
	// parameter, malformed value, missing required field).
	CodeBadRequest = "bad_request"
	// CodeBadOptions: search options rejected by core's typed validation
	// (field carries the offending option).
	CodeBadOptions = "bad_options"
	// CodeBadBody: the request body is not valid JSON.
	CodeBadBody = "bad_body"
	// CodeBodyTooLarge: the request body exceeds the wire cap.
	CodeBodyTooLarge = "body_too_large"
	// CodeBatchTooLarge: a /v1/batch request exceeds the tenant's batch
	// cap.
	CodeBatchTooLarge = "batch_too_large"
	// CodeMutateTooLarge: a /v1/mutate batch exceeds the tenant's op cap.
	CodeMutateTooLarge = "mutate_too_large"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverCapacity: the global admission gate is at its in-flight
	// limit (429 + Retry-After).
	CodeOverCapacity = "over_capacity"
	// CodeTenantOverCapacity: the tenant's in-flight quota is exhausted
	// (429 + Retry-After).
	CodeTenantOverCapacity = "tenant_over_capacity"
	// CodeDeadlineExceeded: the deadline expired before the query could
	// start executing (mid-search expiry returns a truncated 200 instead).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCanceled: the client went away before the query could start.
	CodeCanceled = "canceled"
	// CodeInternal: unexpected server-side failure.
	CodeInternal = "internal"
	// CodeNotMutable: mutation endpoint on a server started without live
	// mutations.
	CodeNotMutable = "not_mutable"
	// CodeMutateDenied: the tenant's limits forbid mutations.
	CodeMutateDenied = "mutate_denied"
	// CodeWALAppendFailed: the mutation batch could not be made durable;
	// it was NOT applied.
	CodeWALAppendFailed = "wal_append_failed"
	// CodeCompactFailed: compaction failed; the previous state still
	// serves.
	CodeCompactFailed = "compact_failed"
	// CodeShardError: a shard backend failed and no replica could answer
	// (router, 502).
	CodeShardError = "shard_error"
	// CodeShardRejected: a shard backend rejected the request with a 4xx
	// that carried no code of its own (router passthrough fallback).
	CodeShardRejected = "shard_rejected"
	// CodeNotRouted: the endpoint is not available through the router.
	CodeNotRouted = "not_routed"
	// CodeNotPrimary: mutation sent to a replication follower; the error
	// detail names the primary's URL.
	CodeNotPrimary = "not_primary"
)

// CodeInfo documents one registry entry: the HTTP status the code is
// emitted with and a one-line description for docs/ERRORS.md.
type CodeInfo struct {
	Status      int
	Description string
}

// Registry is the v1 error-code registry. Tests in internal/server and
// internal/router assert every emitted code resolves here.
var Registry = map[string]CodeInfo{
	CodeBadRequest:         {http.StatusBadRequest, "structurally invalid request (unknown or malformed field/parameter)"},
	CodeBadOptions:         {http.StatusBadRequest, "search options rejected by typed validation; field names the option"},
	CodeBadBody:            {http.StatusBadRequest, "request body is not valid JSON"},
	CodeBodyTooLarge:       {http.StatusRequestEntityTooLarge, "request body exceeds the wire cap"},
	CodeBatchTooLarge:      {http.StatusBadRequest, "batch exceeds the tenant's query cap"},
	CodeMutateTooLarge:     {http.StatusBadRequest, "mutation batch exceeds the tenant's op cap"},
	CodeMethodNotAllowed:   {http.StatusMethodNotAllowed, "wrong HTTP method for this endpoint"},
	CodeOverCapacity:       {http.StatusTooManyRequests, "server at its global in-flight limit; honor Retry-After"},
	CodeTenantOverCapacity: {http.StatusTooManyRequests, "tenant in-flight quota exhausted; honor Retry-After"},
	CodeDeadlineExceeded:   {http.StatusGatewayTimeout, "deadline expired before the query could start executing"},
	CodeCanceled:           {http.StatusServiceUnavailable, "request canceled before the query could start executing"},
	CodeInternal:           {http.StatusInternalServerError, "unexpected server-side failure"},
	CodeNotMutable:         {http.StatusNotImplemented, "server was started without live mutations"},
	CodeMutateDenied:       {http.StatusForbidden, "tenant is not allowed to mutate"},
	CodeWALAppendFailed:    {http.StatusServiceUnavailable, "batch could not be made durable; it was not applied"},
	CodeCompactFailed:      {http.StatusInternalServerError, "compaction failed; previous state still serves"},
	CodeShardError:         {http.StatusBadGateway, "a shard failed and no replica could answer"},
	CodeShardRejected:      {http.StatusBadRequest, "shard rejected the request without a code of its own"},
	CodeNotRouted:          {http.StatusNotImplemented, "endpoint not available through the router"},
	CodeNotPrimary:         {http.StatusConflict, "this server is a replication follower; write to the primary named in detail"},
}

// Known reports whether code is in the v1 registry.
func Known(code string) bool {
	_, ok := Registry[code]
	return ok
}

// Error is one client-facing failure with a definite HTTP mapping. It
// marshals as the body of the v1 envelope (and as one element of a
// per-element error array such as /v1/batch's errors[i]); Status and
// RetryAfter travel in the status line and the Retry-After header.
type Error struct {
	Status     int    `json:"-"`
	Code       string `json:"code"`
	Field      string `json:"field,omitempty"`
	Detail     string `json:"detail"`
	RetryAfter int    `json:"-"` // seconds; emitted as Retry-After when > 0
}

func (e *Error) Error() string { return e.Detail }

// BadRequest is the common 400: a structurally invalid request, with the
// offending field when known.
func BadRequest(field, format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeBadRequest, Field: field,
		Detail: fmt.Sprintf(format, args...)}
}

// ErrorEnvelope is the complete v1 error response body.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// WriteError renders e as the v1 error envelope. As in WriteJSON, an
// encode error can only be a broken client connection.
func WriteError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	w.WriteHeader(e.Status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: *e})
}

// WriteJSON encodes a response body. An encode error at this point is a
// broken client connection — the status line is already out, so there is
// nothing useful left to report to the peer.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
