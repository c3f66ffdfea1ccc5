package server

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"banks/internal/api"
)

// admitted wraps a query handler with the admission gates: the global
// in-flight bound first, then the tenant's own quota (when its limits
// configure one). At capacity the request is rejected immediately with
// 429 and a Retry-After estimate instead of queueing without bound; the
// error code says which gate refused. The slot — global and tenant —
// is held until the handler returns, so a streaming response counts
// against both gates for its entire lifetime.
func (s *Server) admitted(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get("X-Tenant")
		quota := s.tenants.Resolve(tenant).MaxInFlight
		token, ok, byTenant := s.adm.tryAcquire(tenant, quota, s.tenants.Configured(tenant))
		if !ok {
			herr := &api.Error{
				Status:     http.StatusTooManyRequests,
				Code:       api.CodeOverCapacity,
				Detail:     fmt.Sprintf("server is at its in-flight limit (%d); retry after the indicated delay", s.adm.limit),
				RetryAfter: s.adm.retryAfterSeconds(),
			}
			if byTenant {
				herr.Code = api.CodeTenantOverCapacity
				herr.Detail = fmt.Sprintf("tenant is at its in-flight limit (%d); retry after the indicated delay", quota)
			}
			api.WriteError(w, herr)
			return
		}
		defer func() { s.adm.release(tenant, quota, token) }()
		next(w, r)
	}
}

// admission is the bounded in-flight gate in front of the query
// endpoints. It admits at most limit requests simultaneously; the
// (limit+1)-th concurrent request is rejected immediately with
// ErrOverCapacity rather than queued, so overload turns into fast 429s
// (with a Retry-After hint) instead of an unbounded latency tail. The
// engine's own worker pool below still bounds executing searches; the
// admission limit bounds how many requests may be *waiting on* that pool,
// which is what keeps memory and tail latency flat when traffic spikes.
type admission struct {
	limit    int
	slots    chan struct{}
	rejected atomic.Uint64
	// tenantRejected counts rejections caused by a per-tenant quota
	// specifically (also included in rejected).
	tenantRejected atomic.Uint64

	// now is the clock, injectable by tests. Defaults to time.Now.
	now func() time.Time

	// ewmaNS tracks an exponentially-weighted moving average of admitted
	// request durations, the basis of the Retry-After hint. starts
	// records when each currently admitted request entered the gate
	// (keyed by the token tryAcquire returned): the age of the oldest
	// in-flight request floors the hint, so a server whose slots are all
	// pinned by long-lived streams that have never released — leaving
	// ewmaNS at zero — does not advertise the 1-second minimum while
	// callers would in truth wait minutes.
	mu     sync.Mutex
	ewmaNS float64
	nextID uint64
	starts map[uint64]time.Time

	// tenants tracks per-tenant in-flight counts for tenants subject to a
	// quota (TenantLimits.MaxInFlight), keyed by the raw X-Tenant header
	// value. Streams hold their slot for their full duration, so
	// long-lived streams count against the quota the whole time they are
	// open. The header value is attacker-controlled, so the map must not
	// grow one entry per name ever seen: gates for names that are not
	// explicitly configured tenants (keep=false — they merely inherit the
	// default chain's quota) are pruned as soon as they go idle, keeping
	// the map bounded by the config size plus currently-active traffic.
	// A pruned gate's rejection count survives in the aggregate
	// tenantRejected counter.
	tmu     sync.Mutex
	tenants map[string]*tenantGate
}

// tenantGate is one tenant's admission state.
type tenantGate struct {
	inFlight int
	rejected uint64
	// keep pins the gate across idle periods (explicitly configured
	// tenants only — a bounded set, so their rejection counts can stay
	// visible in /statusz).
	keep bool
}

// ewmaAlpha weights the latest observation at 1/8 — smooth enough to
// ignore one slow query, fresh enough to follow a load shift.
const ewmaAlpha = 0.125

func newAdmission(limit int) *admission {
	return &admission{
		limit:   limit,
		slots:   make(chan struct{}, limit),
		tenants: make(map[string]*tenantGate),
		now:     time.Now,
		starts:  make(map[uint64]time.Time),
	}
}

// tryAcquire claims an in-flight slot for the tenant, applying first the
// global gate and then the tenant's own quota (quota ≤ 0 means the
// tenant has none). keep marks explicitly configured tenant names whose
// gates persist across idle periods (see the tenants field comment). It
// never blocks: ok=false means the caller must reject the request, and
// byTenant tells which gate refused (so the 429 can say whether the
// server or the tenant is saturated). On admission the returned token
// identifies the slot and must be handed back to release.
func (a *admission) tryAcquire(tenant string, quota int, keep bool) (token uint64, ok, byTenant bool) {
	select {
	case a.slots <- struct{}{}:
	default:
		a.rejected.Add(1)
		return 0, false, false
	}
	if quota > 0 {
		a.tmu.Lock()
		g := a.tenants[tenant]
		if g == nil {
			g = &tenantGate{keep: keep}
			a.tenants[tenant] = g
		}
		if g.inFlight >= quota {
			g.rejected++
			a.tmu.Unlock()
			<-a.slots // hand the global slot back
			a.rejected.Add(1)
			a.tenantRejected.Add(1)
			return 0, false, true
		}
		g.inFlight++
		a.tmu.Unlock()
	}
	a.mu.Lock()
	a.nextID++
	token = a.nextID
	a.starts[token] = a.now()
	a.mu.Unlock()
	return token, true, false
}

// release returns a slot (and the tenant's quota share, mirroring the
// tryAcquire that admitted the request) and feeds the request's duration
// — measured from the admit time the token records — into the latency
// average.
func (a *admission) release(tenant string, quota int, token uint64) {
	if quota > 0 {
		a.tmu.Lock()
		if g := a.tenants[tenant]; g != nil {
			g.inFlight--
			if g.inFlight <= 0 && !g.keep {
				delete(a.tenants, tenant)
			}
		}
		a.tmu.Unlock()
	}
	<-a.slots
	a.mu.Lock()
	elapsed := float64(0)
	if start, found := a.starts[token]; found {
		elapsed = float64(a.now().Sub(start))
		delete(a.starts, token)
	}
	if a.ewmaNS == 0 {
		a.ewmaNS = elapsed
	} else {
		a.ewmaNS += ewmaAlpha * (elapsed - a.ewmaNS)
	}
	a.mu.Unlock()
}

// retryAfterSeconds estimates how long a rejected caller should back off:
// the average request duration, floored by the age of the oldest
// currently admitted request, rounded up to whole seconds, at least 1
// (Retry-After is integral seconds and 0 would invite an immediate,
// equally doomed retry).
//
// The oldest-age floor matters when the average is misleadingly small or
// absent: a fresh server whose slots are all held by pinned-open streams
// has ewmaNS == 0 — no request has ever released — yet a slot will not
// free for at least as long as the current occupants have already run.
// Hinting the 1-second minimum there invites doomed retries; the age of
// the longest-held slot is the honest lower bound the gate can compute.
func (a *admission) retryAfterSeconds() int {
	a.mu.Lock()
	est := a.ewmaNS
	now := a.now()
	for _, start := range a.starts {
		if age := float64(now.Sub(start)); age > est {
			est = age
		}
	}
	a.mu.Unlock()
	s := int(math.Ceil(est / float64(time.Second)))
	if s < 1 {
		s = 1
	}
	return s
}

// inFlight reports the number of currently admitted requests.
func (a *admission) inFlight() int { return len(a.slots) }

// rejectedTotal reports how many requests have been turned away (global
// and per-tenant gates combined).
func (a *admission) rejectedTotal() uint64 { return a.rejected.Load() }

// tenantRejectedTotal reports rejections caused by per-tenant quotas.
func (a *admission) tenantRejectedTotal() uint64 { return a.tenantRejected.Load() }

// tenantState is a point-in-time snapshot of one tenant's gate, for
// /statusz disclosure.
type tenantState struct {
	InFlight int    `json:"in_flight"`
	Rejected uint64 `json:"rejected"`
}

// tenantSnapshot returns the active per-tenant gates.
func (a *admission) tenantSnapshot() map[string]tenantState {
	a.tmu.Lock()
	defer a.tmu.Unlock()
	if len(a.tenants) == 0 {
		return nil
	}
	out := make(map[string]tenantState, len(a.tenants))
	for name, g := range a.tenants {
		out[name] = tenantState{InFlight: g.inFlight, Rejected: g.rejected}
	}
	return out
}
