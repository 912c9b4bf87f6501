package serve

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/trace"
)

// TraceSummary is one query execution in the GET /trace listing and
// the /ops report: identity, shape, and the predicted-vs-actual load
// numbers the console's heatmap renders.
type TraceSummary struct {
	// QueryID keys GET /trace/{queryID}.
	QueryID string `json:"queryID"`
	// Tenant is the owning tenant (empty in open mode).
	Tenant string `json:"tenant,omitempty"`
	// Query is the canonical query text.
	Query string `json:"query,omitempty"`
	// Engine names the executed strategy.
	Engine string `json:"engine,omitempty"`
	// P is the cluster size.
	P int `json:"p"`
	// Rounds is the number of communication rounds recorded so far.
	Rounds int `json:"rounds"`
	// Replacements counts workers replaced mid-query.
	Replacements int `json:"replacements,omitempty"`
	// PredictedLoadTuples is the planner's per-worker load prediction L.
	PredictedLoadTuples float64 `json:"predictedLoadTuples"`
	// BudgetLoadTuples is the MPC(ε) budget c·N/p^(1−ε).
	BudgetLoadTuples int64 `json:"budgetLoadTuples,omitempty"`
	// WorkerLoadTuples is the actual maximum per-round received load,
	// per worker index — the heatmap's observed column.
	WorkerLoadTuples []int64 `json:"workerLoadTuples,omitempty"`
	// StartUnixNs is the execution's start time.
	StartUnixNs int64 `json:"startUnixNs"`
	// DurationMs is the execution time (0 while still running).
	DurationMs float64 `json:"durationMs"`
	// Active reports the query is still executing.
	Active bool `json:"active,omitempty"`
}

// summarizeTrace condenses a (possibly still-live) trace.
func summarizeTrace(tc *trace.Trace) TraceSummary {
	sn := tc.Snapshot()
	return TraceSummary{
		QueryID:             sn.QueryID,
		Tenant:              sn.Tenant,
		Query:               sn.Query,
		Engine:              sn.Engine,
		P:                   sn.P,
		Rounds:              sn.Rounds(),
		Replacements:        sn.Replacements,
		PredictedLoadTuples: sn.PredictedLoadTuples,
		BudgetLoadTuples:    sn.BudgetLoadTuples,
		WorkerLoadTuples:    tc.WorkerLoad(),
		StartUnixNs:         sn.StartUnixNs,
		DurationMs:          float64(sn.DurationNs) / 1e6,
		Active:              sn.DurationNs == 0,
	}
}

// handleTraceList is GET /trace: recent executions, newest first. The
// optional ?n= caps the listing.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	n := s.traces.Len()
	if arg := r.URL.Query().Get("n"); arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad n %q", arg)
			return
		}
		n = v
	}
	out := []TraceSummary{}
	for _, tc := range s.traces.Recent(n) {
		out = append(out, summarizeTrace(tc))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraceOne is GET /trace/{queryID}: the execution's full span
// tree — one "round" span per round, one "worker" child span per
// worker per round carrying the actual received load the planner's
// predicted L bounds, join/gather phase spans, and recovery events.
func (s *Server) handleTraceOne(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := r.PathValue("queryID")
	tc, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown query id %q (the trace ring keeps the last %d executions)", id, traceCapacity)
		return
	}
	writeJSON(w, http.StatusOK, tc.Snapshot())
}

// TenantStatus is one tenant's row in the /ops report.
type TenantStatus struct {
	// Name is the tenant's name.
	Name string `json:"name"`
	// QPS and Burst echo the rate quota (0 = unlimited).
	QPS   float64 `json:"qps,omitempty"`
	Burst int     `json:"burst,omitempty"`
	// InFlight is the tenant's executing query count.
	InFlight int64 `json:"inFlight"`
	// InFlightLoadTuples and MaxInFlightLoad are the booked and
	// maximum predicted load.
	InFlightLoadTuples int64 `json:"inFlightLoadTuples"`
	MaxInFlightLoad    int64 `json:"maxInFlightLoad,omitempty"`
	// ResidentBytes and MaxResidentBytes are the booked and maximum
	// dataset residency.
	ResidentBytes    int64 `json:"residentBytes"`
	MaxResidentBytes int64 `json:"maxResidentBytes,omitempty"`
	// Served, Errors, and the Rejected* counters mirror the tenant's
	// Prometheus series.
	Served        int64 `json:"served"`
	Errors        int64 `json:"errors"`
	RejectedRate  int64 `json:"rejectedRate"`
	RejectedLoad  int64 `json:"rejectedLoad"`
	RejectedBytes int64 `json:"rejectedBytes"`
}

// GateStatus is the global admission gate's state in the /ops report.
type GateStatus struct {
	// InFlight and Queued are current executions and blocked waiters.
	InFlight int `json:"inFlight"`
	Queued   int `json:"queued"`
	// Slots is the concurrency capacity.
	Slots int `json:"slots"`
	// LoadTuples and BudgetTuples are the booked and maximum summed
	// predicted load (budget 0 = unbounded).
	LoadTuples   int64 `json:"loadTuples"`
	BudgetTuples int64 `json:"budgetTuples"`
}

// CacheStatus is the plan cache's state in the /ops report.
type CacheStatus struct {
	// Len and Capacity are the resident and maximum compiled plans.
	Len      int `json:"len"`
	Capacity int `json:"capacity"`
	// HitRate is hits/(hits+misses) over lookups.
	HitRate float64 `json:"hitRate"`
}

// OpsReport is the GET /ops body — everything the operator console
// renders in one read.
type OpsReport struct {
	// UptimeSeconds is the service age.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// MultiTenant reports tenant auth and quotas are active.
	MultiTenant bool `json:"multiTenant"`
	// Datasets lists the registered dataset names.
	Datasets []string `json:"datasets"`
	// Gate is the global admission state.
	Gate GateStatus `json:"gate"`
	// PlanCache is the compiled-plan cache state.
	PlanCache CacheStatus `json:"planCache"`
	// StatsCacheHitRate is the statistics memoization hit rate.
	StatsCacheHitRate float64 `json:"statsCacheHitRate"`
	// QueriesServed, QueryErrors, and QueriesRejected are the global
	// outcome counters.
	QueriesServed   int64 `json:"queriesServed"`
	QueryErrors     int64 `json:"queryErrors"`
	QueriesRejected int64 `json:"queriesRejected"`
	// PerRoundBits is the cumulative shuffle-bit histogram by round
	// number.
	PerRoundBits []int64 `json:"perRoundBits,omitempty"`
	// Tenants lists per-tenant quota state (multi-tenant mode only).
	Tenants []TenantStatus `json:"tenants,omitempty"`
	// Queries lists recent executions, newest first, in-flight
	// included.
	Queries []TraceSummary `json:"queries"`
}

// handleOps is GET /ops: the operator console's JSON feed.
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	rep := OpsReport{
		UptimeSeconds: time.Since(s.started).Seconds(),
		MultiTenant:   s.tenants != nil,
		Datasets:      s.registry.Names(),
		Gate: GateStatus{
			InFlight:     s.gate.InFlight(),
			Queued:       s.gate.Queued(),
			Slots:        s.gate.Slots(),
			LoadTuples:   s.gate.Load(),
			BudgetTuples: s.gate.Budget(),
		},
		PlanCache: CacheStatus{
			Len:      s.cache.Len(),
			Capacity: s.cache.Capacity(),
			HitRate:  s.metrics.PlanCacheHitRate(),
		},
		StatsCacheHitRate: s.metrics.StatsCacheHitRate(),
		QueriesServed:     s.metrics.QueriesServed.Load(),
		QueryErrors:       s.metrics.QueryErrors.Load(),
		QueriesRejected:   s.metrics.QueriesRejected.Load(),
		PerRoundBits:      s.metrics.PerRoundBits(),
		Queries:           []TraceSummary{},
	}
	if s.tenants != nil {
		for _, t := range s.tenants.All() {
			cfg := t.Config()
			rep.Tenants = append(rep.Tenants, TenantStatus{
				Name:               cfg.Name,
				QPS:                cfg.QPS,
				Burst:              cfg.Burst,
				InFlight:           t.InFlight.Load(),
				InFlightLoadTuples: t.InFlightLoad(),
				MaxInFlightLoad:    cfg.MaxInFlightLoad,
				ResidentBytes:      t.ResidentBytes(),
				MaxResidentBytes:   cfg.MaxResidentBytes,
				Served:             t.QueriesServed.Load(),
				Errors:             t.QueryErrors.Load(),
				RejectedRate:       t.RejectedRate.Load(),
				RejectedLoad:       t.RejectedLoad.Load(),
				RejectedBytes:      t.RejectedBytes.Load(),
			})
		}
	}
	for _, tc := range s.traces.Recent(50) {
		rep.Queries = append(rep.Queries, summarizeTrace(tc))
	}
	writeJSON(w, http.StatusOK, rep)
}
