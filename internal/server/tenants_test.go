package server

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func testTenantConfig() *TenantConfig {
	return &TenantConfig{
		Default: TenantLimits{MaxK: 50, DefaultTimeoutMS: 1000},
		Tenants: map[string]TenantLimits{
			"autocomplete": {MaxK: 5, MaxTimeoutMS: 100, DefaultTimeoutMS: 50},
			"analytics":    {MaxK: 1000, MaxTimeoutMS: 30000, MaxBatch: 64},
			"tight":        {MaxTimeoutMS: 100},
		},
	}
}

// TestTenantResolve: resolution overlays tenant → config default →
// built-ins, field by field.
func TestTenantResolve(t *testing.T) {
	cfg := testTenantConfig()
	cases := []struct {
		name   string
		tenant string
		want   TenantLimits
	}{
		{
			name:   "no header gets config default over builtins",
			tenant: "",
			want: TenantLimits{MaxK: 50,
				MaxTimeoutMS: BuiltinMaxTimeout.Milliseconds(), DefaultTimeoutMS: 1000, MaxBatch: BuiltinMaxBatch, MaxMutateOps: BuiltinMaxMutateOps},
		},
		{
			name:   "unknown tenant falls back to default chain",
			tenant: "nobody",
			want: TenantLimits{MaxK: 50,
				MaxTimeoutMS: BuiltinMaxTimeout.Milliseconds(), DefaultTimeoutMS: 1000, MaxBatch: BuiltinMaxBatch, MaxMutateOps: BuiltinMaxMutateOps},
		},
		{
			name:   "tight tenant overrides, inherits the rest",
			tenant: "autocomplete",
			want: TenantLimits{MaxK: 5,
				MaxTimeoutMS: 100, DefaultTimeoutMS: 50, MaxBatch: BuiltinMaxBatch, MaxMutateOps: BuiltinMaxMutateOps},
		},
		{
			name:   "generous tenant may raise caps above builtins",
			tenant: "analytics",
			want: TenantLimits{MaxK: 1000,
				MaxTimeoutMS: 30000, DefaultTimeoutMS: 1000, MaxBatch: 64, MaxMutateOps: BuiltinMaxMutateOps},
		},
		{
			// Tightening the cap without restating the default must pull
			// the inherited default (1000) under the new cap — otherwise
			// omitting a timeout would beat any legal value.
			name:   "inherited default deadline is bounded by the tenant cap",
			tenant: "tight",
			want: TenantLimits{MaxK: 50,
				MaxTimeoutMS: 100, DefaultTimeoutMS: 100, MaxBatch: BuiltinMaxBatch, MaxMutateOps: BuiltinMaxMutateOps},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := cfg.Resolve(tc.tenant); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Resolve(%q) = %+v, want %+v", tc.tenant, got, tc.want)
			}
		})
	}
}

// TestTenantClamping: requests above a cap are clamped (and the clamp
// disclosed), requests inside it run untouched.
func TestTenantClamping(t *testing.T) {
	cfg := testTenantConfig()
	cases := []struct {
		name        string
		tenant      string
		params      searchParams
		wantK       int
		wantTimeout time.Duration
		wantClamped []string
	}{
		{
			name:        "k above tenant cap is clamped",
			tenant:      "autocomplete",
			params:      searchParams{Query: "database query", K: 100},
			wantK:       5,
			wantTimeout: 50 * time.Millisecond,
			wantClamped: []string{"k"},
		},
		{
			name:        "k inside the cap is untouched",
			tenant:      "autocomplete",
			params:      searchParams{Query: "database query", K: 3},
			wantK:       3,
			wantTimeout: 50 * time.Millisecond,
		},
		{
			name:        "timeout above the cap is clamped",
			tenant:      "autocomplete",
			params:      searchParams{Query: "database query", K: 3, TimeoutMS: 5000},
			wantK:       3,
			wantTimeout: 100 * time.Millisecond,
			wantClamped: []string{"timeout"},
		},
		{
			// An omitted k runs as core's default (10); a cap below that
			// must clamp it — the cap bounds the search, not the wire value.
			name:        "omitted k is clamped by a cap below the default",
			tenant:      "autocomplete",
			params:      searchParams{Query: "database query"},
			wantK:       5,
			wantTimeout: 50 * time.Millisecond,
			wantClamped: []string{"k"},
		},
		{
			name:        "generous tenant keeps what default would clamp",
			tenant:      "analytics",
			params:      searchParams{Query: "database query", K: 500, TimeoutMS: 20000},
			wantK:       500,
			wantTimeout: 20 * time.Second,
		},
		{
			name:        "unset timeout gets the tenant default deadline",
			tenant:      "",
			params:      searchParams{Query: "database query"},
			wantTimeout: time.Second,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, herr := tc.params.resolve(cfg.Resolve(tc.tenant))
			if herr != nil {
				t.Fatalf("resolve: %v", herr)
			}
			if req.Opts.K != tc.wantK {
				t.Errorf("K = %d, want %d", req.Opts.K, tc.wantK)
			}
			if req.Timeout != tc.wantTimeout {
				t.Errorf("Timeout = %v, want %v", req.Timeout, tc.wantTimeout)
			}
			if !reflect.DeepEqual(req.Clamped, tc.wantClamped) {
				t.Errorf("Clamped = %v, want %v", req.Clamped, tc.wantClamped)
			}
		})
	}
}

// TestTenantClampingOverHTTP: the clamp is visible in the response body,
// and negative (structurally invalid) values are NOT clamped — they reach
// core's typed validation and come back 400.
func TestTenantClampingOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: testTenantConfig()})

	code, body, _ := get(t, ts, "/v1/search?q=database+query&k=100", "autocomplete")
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	resp := decodeSearchResponse(t, body)
	if resp.K != 5 {
		t.Fatalf("effective k %d, want tenant cap 5", resp.K)
	}
	if len(resp.Answers) > 5 {
		t.Fatalf("%d answers, want <= clamped k", len(resp.Answers))
	}
	if !reflect.DeepEqual(resp.Clamped, []string{"k"}) {
		t.Fatalf("clamped %v, want [k]", resp.Clamped)
	}

	// Same field, invalid instead of over-cap: typed 400, not a clamp.
	code, body, _ = get(t, ts, "/v1/search?q=database+query&k=-1", "autocomplete")
	if code != http.StatusBadRequest {
		t.Fatalf("negative k: status %d, want 400\n%s", code, body)
	}
}

func TestLoadTenants(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	good := write("good.json",
		`{"default":{"max_k":50},"tenants":{"a":{"max_k":5,"max_timeout_ms":100}}}`)
	cfg, err := LoadTenants(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Resolve("a").MaxK; got != 5 {
		t.Fatalf("loaded config: MaxK = %d, want 5", got)
	}

	cases := []struct {
		name, content string
	}{
		{"unknown field", `{"default":{"max_kk":50}}`},
		{"negative cap", `{"default":{"max_k":-2}}`},
		{"negative tenant cap", `{"tenants":{"a":{"max_batch":-1}}}`},
		{"not json", `max_k: 50`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := write("bad.json", tc.content)
			if _, err := LoadTenants(p); err == nil {
				t.Fatalf("config %q accepted", tc.content)
			}
		})
	}

	if _, err := LoadTenants(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
