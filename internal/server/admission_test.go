package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"banks"
	"banks/internal/api"
)

// pinnedRequest is one in-flight request the test holds open
// deterministically: a POST /v1/search whose JSON body arrives through a
// pipe the test controls. Admission happens before body decoding, so the
// handler sits inside the gate, blocked on the body, until the test calls
// finish — no dependence on query duration or scheduler timing.
type pinnedRequest struct {
	pw   *io.PipeWriter
	done chan outcome
}

type outcome struct {
	code int
	body []byte
	err  error
}

func startPinnedRequest(t *testing.T, ts *httptest.Server, tenant string) *pinnedRequest {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/search", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	p := &pinnedRequest{pw: pw, done: make(chan outcome, 1)}
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			p.done <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		p.done <- outcome{code: resp.StatusCode, body: body, err: err}
	}()
	return p
}

// finish delivers the request body, letting the pinned handler decode and
// run a real (cheap) query, and returns the outcome.
func (p *pinnedRequest) finish(t *testing.T) outcome {
	t.Helper()
	if _, err := p.pw.Write([]byte(`{"query":"database query","k":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := p.pw.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-p.done:
		return out
	case <-time.After(30 * time.Second):
		t.Fatal("pinned request never completed")
		return outcome{}
	}
}

// TestAdmissionOverflow is the acceptance-criterion scenario, table-driven
// over the in-flight limit: with limit n, n concurrent requests are
// admitted and all complete successfully, while the (n+1)-th is rejected
// with 429 and a Retry-After hint.
func TestAdmissionOverflow(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("limit=%d", n), func(t *testing.T) {
			db := testDB(t)
			eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: 1, CacheSize: -1})
			if err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, Config{Engine: eng, DB: db, MaxInFlight: n})

			// Occupy all n in-flight slots with requests pinned open on
			// their half-sent bodies.
			pinned := make([]*pinnedRequest, n)
			for i := range pinned {
				pinned[i] = startPinnedRequest(t, ts, "")
			}
			deadline := time.Now().Add(10 * time.Second)
			for s.adm.inFlight() != n {
				if time.Now().After(deadline) {
					t.Fatalf("in-flight never reached %d (at %d)", n, s.adm.inFlight())
				}
				time.Sleep(time.Millisecond)
			}

			// The (n+1)-th concurrent request: rejected immediately, with
			// the slots still pinned by the first n.
			code, body, hdr := get(t, ts, "/v1/search?q=database+query&k=1", "")
			if code != http.StatusTooManyRequests {
				t.Fatalf("overflow request: status %d, want 429\n%s", code, body)
			}
			ra := hdr.Get("Retry-After")
			if ra == "" {
				t.Fatal("429 without Retry-After")
			}
			if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
				t.Fatalf("bad Retry-After %q", ra)
			}
			var eb api.ErrorEnvelope
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "over_capacity" {
				t.Fatalf("bad 429 body: %s", body)
			}

			// The first n complete successfully once their bodies arrive.
			for i, p := range pinned {
				out := p.finish(t)
				if out.err != nil {
					t.Fatalf("admitted request %d: %v", i, out.err)
				}
				if out.code != http.StatusOK {
					t.Fatalf("admitted request %d: status %d\n%s", i, out.code, out.body)
				}
				if resp := decodeSearchResponse(t, out.body); len(resp.Answers) == 0 {
					t.Fatalf("admitted request %d returned no answers", i)
				}
			}
			if got := s.adm.rejectedTotal(); got != 1 {
				t.Fatalf("rejected counter %d, want 1", got)
			}
			if got := s.adm.inFlight(); got != 0 {
				t.Fatalf("in-flight %d after completion, want 0", got)
			}

			// And the gate admits again now that the slots are free.
			if code, body, _ := get(t, ts, "/v1/search?q=database+query&k=1", ""); code != http.StatusOK {
				t.Fatalf("post-overflow request: status %d\n%s", code, body)
			}
		})
	}
}

// TestAdmissionRecovers: after load subsides, the gate admits again.
func TestAdmissionRecovers(t *testing.T) {
	db := testDB(t)
	eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Engine: eng, DB: db, MaxInFlight: 1})
	for i := 0; i < 3; i++ {
		code, body, _ := get(t, ts, "/v1/search?q=database&k=1", "")
		if code != http.StatusOK {
			t.Fatalf("sequential request %d: status %d\n%s", i, code, body)
		}
	}
}

// fakeClock makes the admission gate's time observable to tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestRetryAfterEstimate(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(1)
	a.now = clk.now
	if got := a.retryAfterSeconds(); got != 1 {
		t.Fatalf("cold estimate %d, want 1", got)
	}
	tok, ok, _ := a.tryAcquire("", 0, false)
	if !ok {
		t.Fatal("empty gate refused")
	}
	clk.advance(2500 * time.Millisecond)
	a.release("", 0, tok)
	if got := a.retryAfterSeconds(); got != 3 {
		t.Fatalf("estimate after 2.5s request: %d, want 3 (ceil)", got)
	}
	tok, ok, _ = a.tryAcquire("", 0, false)
	if !ok {
		t.Fatal("gate refused after release")
	}
	clk.advance(10 * time.Millisecond)
	a.release("", 0, tok)
	// EWMA moves toward the fast request but stays >= 1s floor.
	if got := a.retryAfterSeconds(); got < 1 || got > 3 {
		t.Fatalf("estimate drifted to %d", got)
	}
}

// TestRetryAfterOldestInFlightFloor is the regression test for the hint
// returning its 1-second floor while every slot was pinned by requests
// that had never released (ewmaNS still zero): the age of the oldest
// in-flight request must floor the estimate.
func TestRetryAfterOldestInFlightFloor(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(2)
	a.now = clk.now

	// Occupy both slots; nothing has ever released, so the EWMA is zero.
	tok1, ok, _ := a.tryAcquire("", 0, false)
	if !ok {
		t.Fatal("first acquire refused")
	}
	clk.advance(90 * time.Second)
	tok2, ok, _ := a.tryAcquire("", 0, false)
	if !ok {
		t.Fatal("second acquire refused")
	}
	clk.advance(30 * time.Second)

	// Oldest slot has been held 120s, newest 30s: the hint follows the
	// oldest, not the 1s cold floor.
	if got := a.retryAfterSeconds(); got != 120 {
		t.Fatalf("estimate with pinned slots = %d, want 120 (oldest age)", got)
	}

	// Releasing the oldest leaves the 30s-old occupant as the floor
	// (its age now beats the fresh EWMA).
	a.release("", 0, tok1)
	if got := a.retryAfterSeconds(); got != 120 {
		t.Fatalf("estimate after first release = %d, want 120 (EWMA of the 120s request)", got)
	}
	a.release("", 0, tok2)
	if got := a.retryAfterSeconds(); got < 1 {
		t.Fatalf("estimate after drain = %d", got)
	}
}

// TestRetryAfterPinnedStreamE2E pins the same scenario through the real
// server: a pinned-open request holds the only slot, the admission
// clock is advanced five minutes, and the resulting 429 must carry a
// Retry-After reflecting the held slot's age — not the 1-second floor
// the zeroed EWMA used to produce.
func TestRetryAfterPinnedStreamE2E(t *testing.T) {
	db := testDB(t)
	eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Engine: eng, DB: db, MaxInFlight: 1})

	p := startPinnedRequest(t, ts, "")
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.inFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("pinned request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Shift the gate's clock five minutes ahead of the recorded admit
	// time: from the gate's point of view the stream has been holding
	// its slot for five minutes without ever releasing. Every gate read
	// of the clock happens under mu, so the swap synchronizes there too.
	s.adm.mu.Lock()
	s.adm.now = func() time.Time { return time.Now().Add(5 * time.Minute) }
	s.adm.mu.Unlock()

	code, body, hdr := get(t, ts, "/v1/search?q=database+query&k=1", "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429\n%s", code, body)
	}
	secs, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil {
		t.Fatalf("bad Retry-After %q", hdr.Get("Retry-After"))
	}
	if secs < 300 {
		t.Fatalf("Retry-After %ds with a slot held 5 minutes, want >= 300", secs)
	}

	if out := p.finish(t); out.err != nil || out.code != http.StatusOK {
		t.Fatalf("pinned request failed: %v %d\n%s", out.err, out.code, out.body)
	}
}
