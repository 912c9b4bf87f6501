package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
)

// TenantConfig declares one tenant of a multi-tenant service: an
// API-key identity plus the tenant's resource quotas. Any quota left
// at ≤ 0 is unlimited for that tenant.
type TenantConfig struct {
	// Name labels the tenant in metrics, traces, and the operator
	// console. Required, unique.
	Name string
	// Key is the tenant's API key, presented as "Authorization: Bearer
	// <key>" or "X-API-Key: <key>" on data-plane requests. Required,
	// unique.
	Key string
	// QPS is the sustained query-rate quota in requests per second,
	// enforced by a token bucket. ≤ 0 disables rate limiting.
	QPS float64
	// Burst is the token bucket capacity — the number of requests the
	// tenant may issue back-to-back before the QPS rate applies. ≤ 0
	// selects 1 (meaningful only when QPS > 0).
	Burst int
	// MaxInFlightLoad bounds the summed predicted load, in tuples, of
	// the tenant's concurrently executing queries — the same
	// plan-predicted cost the global admission gate budgets
	// (plan.CostEstimate.LoadTuples × p). A single query larger than
	// the whole quota is clamped to it and so runs alone. ≤ 0 is
	// unlimited.
	MaxInFlightLoad int64
	// MaxResidentBytes bounds the estimated resident bytes of datasets
	// the tenant registers (and grows through deltas). ≤ 0 is
	// unlimited.
	MaxResidentBytes int64
}

// Quota-rejection reasons, reported in QuotaError.Reason and as the
// reason label of mpcserve_tenant_rejected_total.
const (
	// ReasonRate is a token-bucket rejection (QPS/Burst exceeded).
	ReasonRate = "rate"
	// ReasonLoad is an in-flight predicted-load rejection.
	ReasonLoad = "load"
	// ReasonBytes is a resident-dataset-bytes rejection.
	ReasonBytes = "bytes"
)

// QuotaError is the structured body of a 429 response. RetryAfterMs
// is the earliest time a retry can succeed for rate rejections; for
// load rejections it is a polling hint (capacity frees when an
// in-flight query finishes); for bytes rejections it is 0 — retrying
// cannot succeed until the tenant frees datasets.
type QuotaError struct {
	// Err is the human-readable failure.
	Err string `json:"error"`
	// Tenant is the rejected tenant's name.
	Tenant string `json:"tenant"`
	// Reason is ReasonRate, ReasonLoad, or ReasonBytes.
	Reason string `json:"reason"`
	// RetryAfterMs is the suggested retry delay in milliseconds.
	RetryAfterMs int64 `json:"retryAfterMs"`
}

// Error implements error.
func (q *QuotaError) Error() string { return q.Err }

// writeQuotaError renders a 429 with the structured body and a
// Retry-After header in (ceiled) seconds when a retry can succeed.
func writeQuotaError(w http.ResponseWriter, q *QuotaError) {
	if q.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", fmt.Sprint((q.RetryAfterMs+999)/1000))
	}
	writeJSON(w, http.StatusTooManyRequests, q)
}

// Tenant is the runtime state of one configured tenant: its token
// bucket, in-flight load and resident-bytes accounting, and its
// metric counters. All methods are safe for concurrent use.
type Tenant struct {
	cfg TenantConfig

	mu            sync.Mutex
	tokens        float64
	lastRefill    time.Time
	inFlightLoad  int64
	residentBytes int64

	// QueriesServed counts the tenant's successfully answered queries.
	QueriesServed atomic.Int64
	// QueryErrors counts the tenant's queries that failed after
	// admission.
	QueryErrors atomic.Int64
	// RejectedRate, RejectedLoad, and RejectedBytes count 429s by
	// quota reason.
	RejectedRate  atomic.Int64
	RejectedLoad  atomic.Int64
	RejectedBytes atomic.Int64
	// InFlight is the tenant's currently executing query count.
	InFlight atomic.Int64
	// AnswersReturned counts answer tuples shipped to the tenant.
	AnswersReturned atomic.Int64
}

// Name returns the tenant's configured name.
func (t *Tenant) Name() string { return t.cfg.Name }

// Config returns the tenant's quota configuration.
func (t *Tenant) Config() TenantConfig { return t.cfg }

// InFlightLoad returns the summed predicted load of the tenant's
// currently admitted queries, in tuples.
func (t *Tenant) InFlightLoad() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inFlightLoad
}

// ResidentBytes returns the tenant's accounted resident dataset
// bytes.
func (t *Tenant) ResidentBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.residentBytes
}

// AdmitRate spends one token from the tenant's bucket, refilled at
// QPS up to Burst as of now. It returns nil on admission or a
// ReasonRate QuotaError whose RetryAfterMs is the exact time until
// the next token accrues. The rejection counter is updated here, so
// callers only render the error.
func (t *Tenant) AdmitRate(now time.Time) *QuotaError {
	if t.cfg.QPS <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	burst := float64(t.cfg.Burst)
	if burst < 1 {
		burst = 1
	}
	if t.lastRefill.IsZero() {
		t.tokens = burst
	} else if el := now.Sub(t.lastRefill).Seconds(); el > 0 {
		t.tokens = math.Min(burst, t.tokens+el*t.cfg.QPS)
	}
	t.lastRefill = now
	if t.tokens >= 1 {
		t.tokens--
		return nil
	}
	t.RejectedRate.Add(1)
	retryMs := int64(math.Ceil((1 - t.tokens) / t.cfg.QPS * 1000))
	return &QuotaError{
		Err:          fmt.Sprintf("tenant %s over query-rate quota (%.3g qps, burst %d)", t.cfg.Name, t.cfg.QPS, t.cfg.Burst),
		Tenant:       t.cfg.Name,
		Reason:       ReasonRate,
		RetryAfterMs: retryMs,
	}
}

// clampLoad applies the oversized-query rule: a single query whose
// predicted cost exceeds the whole quota books exactly the quota, so
// it can run — alone. Admit and Release apply the same clamp.
func (t *Tenant) clampLoad(cost int64) int64 {
	if t.cfg.MaxInFlightLoad > 0 && cost > t.cfg.MaxInFlightLoad {
		cost = t.cfg.MaxInFlightLoad
	}
	return cost
}

// AdmitLoad books a query of the given predicted cost (in tuples)
// against the tenant's in-flight load quota, or returns a ReasonLoad
// QuotaError without blocking — per-tenant quota breaches reject
// immediately rather than queueing, unlike the global gate. Every nil
// return must be paired with ReleaseLoad(cost).
func (t *Tenant) AdmitLoad(cost int64) *QuotaError {
	if t.cfg.MaxInFlightLoad <= 0 {
		return nil
	}
	cost = t.clampLoad(cost)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inFlightLoad+cost > t.cfg.MaxInFlightLoad {
		t.RejectedLoad.Add(1)
		return &QuotaError{
			Err: fmt.Sprintf("tenant %s over in-flight load quota (%d of %d tuples booked, query needs %d)",
				t.cfg.Name, t.inFlightLoad, t.cfg.MaxInFlightLoad, cost),
			Tenant:       t.cfg.Name,
			Reason:       ReasonLoad,
			RetryAfterMs: 1000,
		}
	}
	t.inFlightLoad += cost
	return nil
}

// ReleaseLoad returns a query's predicted-load booking. The cost must
// equal the value passed to the paired AdmitLoad.
func (t *Tenant) ReleaseLoad(cost int64) {
	if t.cfg.MaxInFlightLoad <= 0 {
		return
	}
	cost = t.clampLoad(cost)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inFlightLoad -= cost
}

// AdmitBytes books n estimated resident bytes against the tenant's
// dataset quota, or returns a ReasonBytes QuotaError. Unlike load,
// bytes are not clamped: a dataset larger than the quota is rejected
// outright, since residency is not transient.
func (t *Tenant) AdmitBytes(n int64) *QuotaError {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.MaxResidentBytes > 0 && t.residentBytes+n > t.cfg.MaxResidentBytes {
		t.RejectedBytes.Add(1)
		return &QuotaError{
			Err: fmt.Sprintf("tenant %s over resident-bytes quota (%d of %d bytes resident, dataset adds %d)",
				t.cfg.Name, t.residentBytes, t.cfg.MaxResidentBytes, n),
			Tenant: t.cfg.Name,
			Reason: ReasonBytes,
		}
	}
	t.residentBytes += n
	return nil
}

// ReleaseBytes returns previously booked resident bytes (dataset
// deltas that net-delete, or a registration undone by a late
// failure).
func (t *Tenant) ReleaseBytes(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.residentBytes -= n
	if t.residentBytes < 0 {
		t.residentBytes = 0
	}
}

// Tenants is the tenant directory of a multi-tenant server: API-key
// lookup plus the per-tenant metric export. A nil *Tenants means
// single-tenant open mode (no authentication, no per-tenant quotas).
type Tenants struct {
	byKey  map[string]*Tenant
	byName map[string]*Tenant
	list   []*Tenant // configuration order
}

// NewTenants validates the configs (names and keys required and
// unique) and returns the directory.
func NewTenants(cfgs []TenantConfig) (*Tenants, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("serve: no tenants configured")
	}
	ts := &Tenants{
		byKey:  make(map[string]*Tenant, len(cfgs)),
		byName: make(map[string]*Tenant, len(cfgs)),
	}
	for _, cfg := range cfgs {
		if cfg.Name == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		if cfg.Key == "" {
			return nil, fmt.Errorf("serve: tenant %s has an empty API key", cfg.Name)
		}
		if _, dup := ts.byName[cfg.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant name %s", cfg.Name)
		}
		if _, dup := ts.byKey[cfg.Key]; dup {
			return nil, fmt.Errorf("serve: tenant %s reuses another tenant's API key", cfg.Name)
		}
		t := &Tenant{cfg: cfg}
		ts.byKey[cfg.Key] = t
		ts.byName[cfg.Name] = t
		ts.list = append(ts.list, t)
	}
	return ts, nil
}

// Authenticate resolves the request's API key — "Authorization:
// Bearer <key>" or "X-API-Key: <key>" — to a tenant. A missing or
// unknown key is an error (rendered as 401 by the handlers).
func (ts *Tenants) Authenticate(r *http.Request) (*Tenant, error) {
	key := r.Header.Get("X-API-Key")
	if auth := r.Header.Get("Authorization"); key == "" && auth != "" {
		var ok bool
		if key, ok = strings.CutPrefix(auth, "Bearer "); !ok {
			return nil, fmt.Errorf("serve: Authorization header is not a Bearer token")
		}
	}
	if key == "" {
		return nil, fmt.Errorf("serve: missing API key (use Authorization: Bearer <key> or X-API-Key)")
	}
	t, ok := ts.byKey[key]
	if !ok {
		return nil, fmt.Errorf("serve: unknown API key")
	}
	return t, nil
}

// Get returns the named tenant.
func (ts *Tenants) Get(name string) (*Tenant, bool) {
	t, ok := ts.byName[name]
	return t, ok
}

// All returns the tenants in configuration order.
func (ts *Tenants) All() []*Tenant { return ts.list }

// WriteProm renders the per-tenant counters as labeled Prometheus
// series, appended to the server's metric exposition.
func (ts *Tenants) WriteProm(w io.Writer) {
	series := func(name, typ, help string, value func(t *Tenant) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, t := range ts.list {
			fmt.Fprintf(w, "%s{tenant=%q} %s\n", name, t.cfg.Name, value(t))
		}
	}
	series("mpcserve_tenant_queries_total", "counter", "Queries answered successfully, by tenant.",
		func(t *Tenant) string { return fmt.Sprint(t.QueriesServed.Load()) })
	series("mpcserve_tenant_query_errors_total", "counter", "Queries that failed after admission, by tenant.",
		func(t *Tenant) string { return fmt.Sprint(t.QueryErrors.Load()) })
	series("mpcserve_tenant_in_flight", "gauge", "Queries currently executing, by tenant.",
		func(t *Tenant) string { return fmt.Sprint(t.InFlight.Load()) })
	series("mpcserve_tenant_inflight_load_tuples", "gauge", "Summed predicted load of executing queries, by tenant.",
		func(t *Tenant) string { return fmt.Sprint(t.InFlightLoad()) })
	series("mpcserve_tenant_resident_bytes", "gauge", "Estimated resident dataset bytes, by tenant.",
		func(t *Tenant) string { return fmt.Sprint(t.ResidentBytes()) })
	series("mpcserve_tenant_answers_total", "counter", "Answer tuples returned, by tenant.",
		func(t *Tenant) string { return fmt.Sprint(t.AnswersReturned.Load()) })
	fmt.Fprintf(w, "# HELP mpcserve_tenant_rejected_total Requests rejected 429, by tenant and quota reason.\n# TYPE mpcserve_tenant_rejected_total counter\n")
	for _, t := range ts.list {
		for _, rc := range []struct {
			reason string
			n      int64
		}{
			{ReasonRate, t.RejectedRate.Load()},
			{ReasonLoad, t.RejectedLoad.Load()},
			{ReasonBytes, t.RejectedBytes.Load()},
		} {
			fmt.Fprintf(w, "mpcserve_tenant_rejected_total{tenant=%q,reason=%q} %d\n", t.cfg.Name, rc.reason, rc.n)
		}
	}
}

// DatasetBytes estimates a database's resident footprint: 8 bytes per
// stored integer across every relation's tuples. It is the unit of
// the MaxResidentBytes quota.
func DatasetBytes(db *relation.Database) int64 {
	var n int64
	for _, name := range db.Names() {
		rel, _ := db.Relation(name)
		n += int64(rel.Size()) * int64(rel.Arity()) * 8
	}
	return n
}
