package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"banks"
	"banks/internal/api"
	"banks/internal/core"
)

// maxBodyBytes bounds request bodies: a keyword query fits in a line, so
// one MiB is already generous for the largest sane batch.
const maxBodyBytes = 1 << 20

// maxWireTimeoutMS bounds the timeout a request may name: 24 hours,
// far above any sane interactive deadline but small enough that
// converting to time.Duration can never overflow int64 — an overflowed
// (negative) duration would read as "no deadline" and smuggle a request
// past the tenant timeout cap.
const maxWireTimeoutMS = 24 * 60 * 60 * 1000

// mapQueryError converts an engine/core failure into its HTTP form. The
// contract with internal/core is typed: every invalid-option failure is a
// *core.OptionsError carrying the offending field, which becomes a 400
// the client can correct. Deadline expiry *while waiting for a pool slot*
// is the one case where a deadline yields an error instead of a truncated
// partial result, and maps to 504.
func mapQueryError(err error) *api.Error {
	var oe *core.OptionsError
	if errors.As(err, &oe) {
		return &api.Error{Status: http.StatusBadRequest, Code: api.CodeBadOptions,
			Field: oe.Field, Detail: oe.Error()}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &api.Error{Status: http.StatusGatewayTimeout, Code: api.CodeDeadlineExceeded,
			Detail: "deadline expired before the query could start executing"}
	}
	if errors.Is(err, context.Canceled) {
		return &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeCanceled,
			Detail: "request canceled before the query could start executing"}
	}
	return &api.Error{Status: http.StatusInternalServerError, Code: api.CodeInternal,
		Detail: err.Error()}
}

// searchParams is the wire form of one query, shared by the /v1/search
// query string, the /v1/search JSON body, and /v1/batch elements. Zero
// values mean "use the default". Decoding is strict: unknown parameters
// and fields are rejected so client typos fail loudly instead of
// silently running with defaults.
type searchParams struct {
	Query         string  `json:"query"`
	Algo          string  `json:"algo,omitempty"`
	K             int     `json:"k,omitempty"`
	TimeoutMS     int64   `json:"timeout_ms,omitempty"`
	MaxNodes      int     `json:"max_nodes,omitempty"`
	DMax          int     `json:"dmax,omitempty"`
	Mu            float64 `json:"mu,omitempty"`
	Lambda        float64 `json:"lambda,omitempty"`
	StrictBound   bool    `json:"strict_bound,omitempty"`
	ActivationSum bool    `json:"activation_sum,omitempty"`
}

// searchRequest is a decoded, tenant-clamped query ready to execute.
type searchRequest struct {
	Query   string
	Terms   []string // normalized keywords of Query (non-empty)
	Algo    banks.Algorithm
	Opts    banks.Options
	Timeout time.Duration // effective deadline, after tenant resolution
	// Clamped lists the wire fields the tenant limits reduced, so
	// responses can disclose that the request was not run as asked.
	Clamped []string
}

// queryID derives the stable identifier logged and returned for a query:
// a hash of the normalized terms, the algorithm, and the options that
// change the answer (the deadline is excluded — it affects how long the
// search runs, not which query it is). Identical logical queries
// therefore share an ID across requests, retries and replicas, which is
// what makes server logs greppable by query.
func (r *searchRequest) queryID() string {
	h := fnv.New64a()
	io.WriteString(h, string(r.Algo))
	for _, t := range r.Terms {
		h.Write([]byte{0})
		io.WriteString(h, t)
	}
	o := r.Opts.Normalized()
	fmt.Fprintf(h, "|k=%d|mu=%g|lambda=%g|dmax=%d|maxnodes=%d|strict=%v|asum=%v",
		o.K, o.Mu, o.Lambda, o.DMax, o.MaxNodes, o.StrictBound, o.ActivationSum)
	return fmt.Sprintf("q-%016x", h.Sum64())
}

// knownParams lists the accepted /v1/search and /v1/near query-string
// parameters.
var knownParams = map[string]bool{
	"q": true, "algo": true, "k": true, "timeout": true,
	"max_nodes": true, "dmax": true, "mu": true, "lambda": true,
	"strict_bound": true, "activation_sum": true,
}

// paramsFromQueryString decodes a URL query string into searchParams.
func paramsFromQueryString(values url.Values) (*searchParams, *api.Error) {
	for k, vs := range values {
		if !knownParams[k] {
			return nil, api.BadRequest(k, "unknown query parameter %q", k)
		}
		if len(vs) != 1 {
			return nil, api.BadRequest(k, "parameter %q given %d times, want once", k, len(vs))
		}
	}
	p := &searchParams{Query: values.Get("q"), Algo: values.Get("algo")}
	var err *api.Error
	if p.K, err = intParam(values, "k"); err != nil {
		return nil, err
	}
	if p.MaxNodes, err = intParam(values, "max_nodes"); err != nil {
		return nil, err
	}
	if p.DMax, err = intParam(values, "dmax"); err != nil {
		return nil, err
	}
	if p.Mu, err = floatParam(values, "mu"); err != nil {
		return nil, err
	}
	if p.Lambda, err = floatParam(values, "lambda"); err != nil {
		return nil, err
	}
	if p.StrictBound, err = boolParam(values, "strict_bound"); err != nil {
		return nil, err
	}
	if p.ActivationSum, err = boolParam(values, "activation_sum"); err != nil {
		return nil, err
	}
	if raw := values.Get("timeout"); raw != "" {
		d, derr := parseTimeout(raw)
		if derr != nil {
			return nil, api.BadRequest("timeout", "bad timeout %q: want a duration like 250ms or integral milliseconds", raw)
		}
		p.TimeoutMS = d.Milliseconds()
		// Sub-millisecond durations round to 0 == "unset"; reject instead
		// of silently removing the caller's deadline.
		if p.TimeoutMS == 0 && d != 0 {
			return nil, api.BadRequest("timeout", "timeout %q is below 1ms resolution", raw)
		}
		if d < 0 {
			return nil, api.BadRequest("timeout", "timeout must be non-negative, got %q", raw)
		}
	}
	return p, nil
}

// parseTimeout accepts a Go duration string ("250ms", "2s") or a bare
// integer meaning milliseconds (curl ergonomics). The bound check runs
// before the multiplication so an enormous wire value cannot overflow
// into a negative Duration.
func parseTimeout(raw string) (time.Duration, error) {
	if ms, err := strconv.ParseInt(raw, 10, 64); err == nil {
		if ms > maxWireTimeoutMS {
			return 0, fmt.Errorf("timeout %dms exceeds the maximum %dms", ms, maxWireTimeoutMS)
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	return time.ParseDuration(raw)
}

func intParam(values url.Values, name string) (int, *api.Error) {
	raw := values.Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, api.BadRequest(name, "bad integer %q for %s", raw, name)
	}
	return v, nil
}

func floatParam(values url.Values, name string) (float64, *api.Error) {
	raw := values.Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	// ParseFloat accepts "NaN" and "Inf", which no search parameter
	// means and which a JSON response could not even encode; only
	// finite numbers cross this boundary (JSON bodies cannot express
	// non-finite values at all, so this closes the one transport that
	// can).
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, api.BadRequest(name, "bad number %q for %s", raw, name)
	}
	return v, nil
}

func boolParam(values url.Values, name string) (bool, *api.Error) {
	raw := values.Get(name)
	if raw == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, api.BadRequest(name, "bad boolean %q for %s", raw, name)
	}
	return v, nil
}

// decodeStrictJSON decodes exactly one JSON document into v: unknown
// fields are rejected (a typoed cap or option must fail loudly, not
// silently run with defaults), and a second document in the body is a
// framing error, not extra input to ignore.
func decodeStrictJSON(body io.Reader, v any) *api.Error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return api.BadRequest("", "bad JSON body: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return api.BadRequest("", "trailing data after JSON body")
	}
	return nil
}

// paramsFromJSON decodes a JSON request body into searchParams, strictly.
func paramsFromJSON(body io.Reader) (*searchParams, *api.Error) {
	var p searchParams
	if herr := decodeStrictJSON(body, &p); herr != nil {
		return nil, herr
	}
	return &p, nil
}

// resolve validates searchParams and applies tenant limits, producing an
// executable searchRequest. Values *above* a tenant cap are clamped (and
// reported in Clamped); structurally invalid values (negative k, mu out
// of range, ...) are left for core's typed validation so every limit
// lives in exactly one place.
func (p *searchParams) resolve(lim TenantLimits) (*searchRequest, *api.Error) {
	terms := banks.Keywords(p.Query)
	if len(terms) == 0 {
		return nil, api.BadRequest("q", "query contains no keywords")
	}
	if len(terms) > core.MaxKeywords {
		return nil, api.BadRequest("q", "query has %d keywords, maximum is %d", len(terms), core.MaxKeywords)
	}
	algo := banks.Bidirectional
	if p.Algo != "" {
		algo = banks.Algorithm(p.Algo)
		if !knownAlgo(algo) {
			return nil, api.BadRequest("algo", "unknown algorithm %q (have %s)", p.Algo, algoNames())
		}
	}
	if p.TimeoutMS < 0 {
		return nil, api.BadRequest("timeout_ms", "timeout must be non-negative, got %d", p.TimeoutMS)
	}
	if p.TimeoutMS > maxWireTimeoutMS {
		return nil, api.BadRequest("timeout_ms", "timeout %dms exceeds the maximum %dms", p.TimeoutMS, maxWireTimeoutMS)
	}

	req := &searchRequest{
		Query: p.Query,
		Terms: terms,
		Algo:  algo,
		Opts: banks.Options{
			K:             p.K,
			MaxNodes:      p.MaxNodes,
			DMax:          p.DMax,
			Mu:            p.Mu,
			Lambda:        p.Lambda,
			StrictBound:   p.StrictBound,
			ActivationSum: p.ActivationSum,
		},
		Timeout: time.Duration(p.TimeoutMS) * time.Millisecond,
	}
	// The cap applies to the k the search would actually run with: an
	// omitted k means core's default (10), which a tighter tenant cap
	// must still clamp — otherwise omitting the field would beat any
	// legal value.
	if lim.MaxK > 0 {
		effK := req.Opts.K
		if effK == 0 {
			effK = core.DefaultK
		}
		if effK > lim.MaxK {
			req.Opts.K = lim.MaxK
			req.Clamped = append(req.Clamped, "k")
		}
	}
	var timeoutClamped bool
	req.Timeout, timeoutClamped = clampTimeout(req.Timeout, lim)
	if timeoutClamped {
		req.Clamped = append(req.Clamped, "timeout")
	}
	return req, nil
}

// clampTimeout resolves a requested deadline against the tenant limits:
// zero (unset) becomes the tenant default, itself bounded by the cap
// (Resolve guarantees this for configs; the guard here keeps a
// hand-built TenantLimits from handing out more than MaxTimeout), and an
// explicit request above the cap is clamped with clamped=true — only an
// explicit over-ask is a disclosure, the default is not.
func clampTimeout(requested time.Duration, lim TenantLimits) (effective time.Duration, clamped bool) {
	switch {
	case requested == 0:
		effective = lim.DefaultTimeout()
		if lim.MaxTimeoutMS > 0 && effective > lim.MaxTimeout() {
			effective = lim.MaxTimeout()
		}
	case lim.MaxTimeoutMS > 0 && requested > lim.MaxTimeout():
		effective = lim.MaxTimeout()
		clamped = true
	default:
		effective = requested
	}
	return effective, clamped
}

func knownAlgo(a banks.Algorithm) bool {
	for _, algo := range banks.Algorithms() {
		if a == algo {
			return true
		}
	}
	return false
}

func algoNames() string {
	names := make([]string, 0, 3)
	for _, a := range banks.Algorithms() {
		names = append(names, string(a))
	}
	return strings.Join(names, ", ")
}

// decodeSearchParams decodes the wire form of one query from an HTTP
// request — the query string on GET, a JSON body on POST — without
// resolving tenant limits (handlers that restrict the parameter surface,
// like /v1/near, inspect the raw params first).
func decodeSearchParams(r *http.Request) (*searchParams, *api.Error) {
	switch r.Method {
	case http.MethodGet:
		return paramsFromQueryString(r.URL.Query())
	case http.MethodPost:
		return paramsFromJSON(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	default:
		return nil, &api.Error{Status: http.StatusMethodNotAllowed, Code: api.CodeMethodNotAllowed,
			Detail: "use GET with query parameters or POST with a JSON body"}
	}
}

// decodeSearchRequest decodes and tenant-resolves one query.
func decodeSearchRequest(r *http.Request, lim TenantLimits) (*searchRequest, *api.Error) {
	p, herr := decodeSearchParams(r)
	if herr != nil {
		return nil, herr
	}
	return p.resolve(lim)
}

// batchParams is the wire form of a /v1/batch request. The deadline is
// per batch, not per element: the whole batch shares one request context,
// so a per-element timeout would be a lie the server cannot keep.
type batchParams struct {
	TimeoutMS int64          `json:"timeout_ms,omitempty"`
	Queries   []searchParams `json:"queries"`
}

// decodeBatchRequest decodes and resolves a POST /v1/batch body. The
// returned clamped list discloses batch-level reductions (today only the
// shared deadline); per-element clamps are disclosed on each element.
func decodeBatchRequest(r *http.Request, lim TenantLimits) (reqs []*searchRequest, timeout time.Duration, clamped []string, herr *api.Error) {
	var b batchParams
	if herr := decodeStrictJSON(http.MaxBytesReader(nil, r.Body, maxBodyBytes), &b); herr != nil {
		return nil, 0, nil, herr
	}
	if len(b.Queries) == 0 {
		return nil, 0, nil, api.BadRequest("queries", "batch contains no queries")
	}
	if lim.MaxBatch > 0 && len(b.Queries) > lim.MaxBatch {
		return nil, 0, nil, &api.Error{Status: http.StatusBadRequest, Code: api.CodeBatchTooLarge, Field: "queries",
			Detail: fmt.Sprintf("batch of %d queries exceeds the tenant limit %d", len(b.Queries), lim.MaxBatch)}
	}
	if b.TimeoutMS < 0 {
		return nil, 0, nil, api.BadRequest("timeout_ms", "timeout must be non-negative, got %d", b.TimeoutMS)
	}
	if b.TimeoutMS > maxWireTimeoutMS {
		return nil, 0, nil, api.BadRequest("timeout_ms", "timeout %dms exceeds the maximum %dms", b.TimeoutMS, maxWireTimeoutMS)
	}
	reqs = make([]*searchRequest, len(b.Queries))
	for i := range b.Queries {
		if b.Queries[i].TimeoutMS != 0 {
			return nil, 0, nil, api.BadRequest(fmt.Sprintf("queries[%d].timeout_ms", i),
				"timeout_ms is per batch: set it at the top level")
		}
		req, eherr := b.Queries[i].resolve(lim)
		if eherr != nil {
			eherr.Field = fmt.Sprintf("queries[%d].%s", i, eherr.Field)
			return nil, 0, nil, eherr
		}
		reqs[i] = req
	}
	var timeoutClamped bool
	timeout, timeoutClamped = clampTimeout(time.Duration(b.TimeoutMS)*time.Millisecond, lim)
	if timeoutClamped {
		clamped = append(clamped, "timeout")
	}
	return reqs, timeout, clamped, nil
}
