// Package serve is the long-running multi-query service layer of the
// reproduction: cmd/mpcserve in library form.
//
// The Beame–Koutris–Suciu MPC model is about answering many
// conjunctive queries on one shared cluster under a per-worker load
// budget, and everything below this package is per-query: parse, plan,
// shuffle, join, gather. Serve adds the amortization layer a sustained
// workload needs:
//
//   - a named-dataset Registry keeps relations resident across
//     requests as sealed runs — an inline CSV upload's body is read
//     once and each relation's text scanned straight into one run
//     (upload.go), and every query binds a
//     schema-only view that shares them — with the statistics catalog
//     read off the runs and memoized on first use
//     (relation.Database.Stats);
//   - a PlanCache holds compiled plan.Plans under plan.CacheKey
//     fingerprints, so repeated queries skip the LP solve, share
//     rounding, and cost model entirely — Plans are immutable and
//     concurrency-safe, so one cached plan serves any number of
//     simultaneous executions;
//   - a Gate admission-controls executions: a bounded worker pool
//     (slots) plus a global predicted-load budget in tuples, FIFO to
//     avoid starvation;
//   - Metrics counts queries, cache hit rates, and per-round shuffle
//     bits, rendered in Prometheus text format.
//
// Datasets are versioned, not frozen: POST /datasets/{name}/delta
// ingests a batch of appends and deletes copy-on-write, maintaining
// the statistics catalog incrementally from the delta's touched
// occurrences, and POST /continuous registers a continuous query whose
// hypercube distribution and materialized answer are maintained under
// every delta — GET /continuous/{name} then reads the warm answer
// without executing anything.
//
// The HTTP surface is JSON: POST /query plans (or cache-hits) and
// executes a query against a named dataset and returns answers plus
// the EXPLAIN report and round statistics; GET /datasets lists the
// registry; POST /datasets registers a dataset from inline CSV or a
// generator spec; POST /datasets/{name}/delta applies a delta batch
// and maintains continuous queries; GET/POST /continuous lists and
// registers continuous queries, GET/DELETE /continuous/{name} reads
// warm answers and deregisters; GET /healthz serves liveness plus the
// metrics.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/mpc"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// DefaultP is the server count used when a query request does not
	// set p. ≤ 0 selects 64.
	DefaultP int
	// MaxP bounds the per-query p (each simulated worker is a
	// goroutine, so p is a real resource). ≤ 0 selects 1024.
	MaxP int
	// CapFactor is the constant c of the per-round receive budget
	// c·N/p^{1−ε}. A query plans with it and a Datalog program's rules
	// do, and both executions check it: a round past the budget sets the
	// reply's capExceeded. ≤ 0 selects the planner default and checks
	// nothing.
	CapFactor float64
	// MaxConcurrent is the admission gate's worker-pool size. ≤ 0
	// selects 128.
	MaxConcurrent int
	// LoadBudgetTuples is the gate's global predicted-load budget; ≤ 0
	// disables the load bound (slots still bound concurrency).
	LoadBudgetTuples int64
	// CacheSize is the plan cache capacity; ≤ 0 selects 128.
	CacheSize int
	// MaxAnswers caps answers returned per response when the request
	// does not set its own cap. ≤ 0 selects 100.
	MaxAnswers int
	// WorkerAddrs, when non-empty, executes every query, Datalog
	// program and continuous query against the distributed TCP worker
	// pool at these mpcworker addresses (internal/dist) instead of the
	// in-process loopback. The pool size replaces DefaultP; requests
	// must leave p unset or set it to the pool size. Each execution
	// borrows a session of its own — a parked one, reset after an
	// earlier execution, or a new dial — so concurrent queries stay
	// isolated on shared worker processes and a warm query pays no dial.
	// A continuous query's maintainer holds its session until DELETE.
	WorkerAddrs []string
	// SpareAddrs lists standby mpcworker addresses, held by the pool
	// registry with the members. A member found dead — by a query's
	// dial, mid-query, or by the background heartbeat — is replaced by
	// the first live spare, once, for every later query: the service
	// heals instead of returning 502 until an operator intervenes, and a
	// query healed mid-flight parks its session like any other. Only
	// meaningful with WorkerAddrs.
	SpareAddrs []string
	// MaxReplacements bounds worker replacements per query execution;
	// ≤ 0 selects the pool size. A maintainer a worker failure breaks
	// is built again on a fresh session instead.
	MaxReplacements int
	// MaxContinuous bounds the registered continuous queries (each one
	// keeps a maintained grid distribution resident — on a worker pool,
	// one session held per query). ≤ 0 selects 16.
	MaxContinuous int
	// Tenants, when non-empty, switches the service to multi-tenant
	// mode: data-plane endpoints (/query, /datasets, deltas,
	// /continuous) require one of the configured API keys, and each
	// tenant is held to its own quotas (see TenantConfig). The operator
	// surface (/healthz, /metrics, /ops, /trace, /ui) stays open.
	// Invalid configurations (empty or duplicate names/keys) panic in
	// New; validate with NewTenants first when in doubt.
	Tenants []TenantConfig
	// Now is the clock the tenant rate limiters read; nil selects
	// time.Now. Tests inject a fixed clock for deterministic 429
	// counts.
	Now func() time.Time
}

// traceCapacity is the size of the in-memory ring of traces behind
// GET /trace: the last executions it keeps.
const traceCapacity = 256

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.DefaultP <= 0 {
		c.DefaultP = 64
	}
	if c.MaxP <= 0 {
		c.MaxP = 1024
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 128
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.MaxAnswers <= 0 {
		c.MaxAnswers = 100
	}
	if c.MaxContinuous <= 0 {
		c.MaxContinuous = 16
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if len(c.WorkerAddrs) > 0 {
		// With a worker pool, the cluster size is the pool size; MaxP
		// must admit it or every default-p request would be rejected.
		c.DefaultP = len(c.WorkerAddrs)
		if c.MaxP < c.DefaultP {
			c.MaxP = c.DefaultP
		}
	}
	return c
}

// Server is the shared state of the query service. Create one with
// New, register datasets, and mount Handler on an http.Server.
type Server struct {
	cfg        Config
	registry   *Registry
	cache      *PlanCache
	gate       *Gate
	metrics    *Metrics
	pool       *dist.Registry
	continuous *cqRegistry
	tenants    *Tenants
	traces     *trace.Ring
	queryID    atomic.Uint64
	started    time.Time
	// residency is what the pool's workers are believed to keep of
	// earlier scatters; nil without a pool.
	residency *dist.Residency
}

// New returns a Server with an empty registry and cold caches. An
// invalid Config.Tenants panics (see that field).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		registry:   NewRegistry(),
		cache:      NewPlanCache(cfg.CacheSize),
		gate:       NewGate(cfg.MaxConcurrent, cfg.LoadBudgetTuples),
		metrics:    &Metrics{},
		continuous: newCQRegistry(),
		traces:     trace.NewRing(traceCapacity),
		started:    time.Now(),
	}
	if len(cfg.WorkerAddrs) > 0 {
		s.pool = dist.NewRegistry(cfg.WorkerAddrs, cfg.SpareAddrs)
		// Without entropy there is no unguessable key: the service then
		// runs every scatter fresh.
		if res, err := dist.NewResidency(); err == nil {
			s.residency = res
		}
	}
	if len(cfg.Tenants) > 0 {
		ts, err := NewTenants(cfg.Tenants)
		if err != nil {
			panic(err)
		}
		s.tenants = ts
	}
	return s
}

// Registry returns the dataset registry (for preloading at startup).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics returns the server's counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// PlanCache returns the compiled-plan cache.
func (s *Server) PlanCache() *PlanCache { return s.cache }

// Pool returns the worker-pool membership registry, or nil when the
// service executes on the in-process loopback. cmd/mpcserve mounts
// Pool().Run as its background heartbeat loop.
func (s *Server) Pool() *dist.Registry { return s.pool }

// Tenants returns the tenant directory, or nil in single-tenant open
// mode.
func (s *Server) Tenants() *Tenants { return s.tenants }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/datasets", s.handleDatasets)
	mux.HandleFunc("/datasets/{name}", s.handleDatasetOne)
	mux.HandleFunc("/datasets/{name}/delta", s.handleDatasetDelta)
	mux.HandleFunc("/continuous", s.handleContinuous)
	mux.HandleFunc("/continuous/{name}", s.handleContinuousOne)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleHealthz)
	mux.HandleFunc("/trace", s.handleTraceList)
	mux.HandleFunc("/trace/{queryID}", s.handleTraceOne)
	mux.HandleFunc("/ops", s.handleOps)
	mux.HandleFunc("/ui", s.handleUI)
	return mux
}

// authorize resolves the request's tenant in multi-tenant mode. It
// writes the 401 itself and reports handled=true on failure; in
// single-tenant open mode it returns (nil, false).
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	if s.tenants == nil {
		return nil, false
	}
	t, err := s.tenants.Authenticate(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, "%v", err)
		return nil, true
	}
	return t, false
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Dataset names the registered dataset to run against. Required.
	Dataset string `json:"dataset"`
	// Query is conjunctive query text; exactly one of Query and Family
	// must be set.
	Query string `json:"query,omitempty"`
	// Family is a query family name (C3, L4, SP3, …).
	Family string `json:"family,omitempty"`
	// Program is Datalog program text (rules, optional '?-' goal); it
	// selects the stratified semi-naive evaluator instead of the
	// single-query planner. Query text containing ':-' or '?-' is
	// routed the same way.
	Program string `json:"program,omitempty"`
	// P is the number of servers; 0 selects the service default.
	P int `json:"p,omitempty"`
	// Epsilon is the space exponent as a rational ("1/2"); empty
	// selects the query's own one-round exponent.
	Epsilon string `json:"eps,omitempty"`
	// Seed drives the run's hash functions; 0 selects 1.
	Seed uint64 `json:"seed,omitempty"`
	// MaxAnswers caps the answers in the response; 0 selects the
	// service default, negative returns the count only.
	MaxAnswers int `json:"maxAnswers,omitempty"`
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	// QueryID identifies this execution's trace; GET /trace/{queryID}
	// returns the full per-round, per-worker span tree.
	QueryID string `json:"queryID"`
	// Tenant is the authenticated tenant's name (multi-tenant mode
	// only).
	Tenant string `json:"tenant,omitempty"`
	// Dataset echoes the request.
	Dataset string `json:"dataset"`
	// Query is the canonical text of the executed query.
	Query string `json:"query"`
	// P is the number of servers used.
	P int `json:"p"`
	// Engine names the executed strategy.
	Engine string `json:"engine"`
	// Rounds is the number of communication rounds.
	Rounds int `json:"rounds"`
	// Fingerprint is the plan's cache identity.
	Fingerprint string `json:"fingerprint"`
	// PlanCached reports whether the plan came from the cache.
	PlanCached bool `json:"planCached"`
	// StatsCached reports whether the dataset statistics were already
	// memoized (always true after the dataset's first planned query).
	StatsCached bool `json:"statsCached"`
	// Explain is the plan's EXPLAIN report.
	Explain string `json:"explain"`
	// Vars is the output schema (query variable order of Answers).
	Vars []string `json:"vars"`
	// Iterations is the number of semi-naive fixpoint iterations
	// (Datalog programs with recursion only).
	Iterations int `json:"iterations,omitempty"`
	// AnswerCount is the full answer cardinality.
	AnswerCount int `json:"answerCount"`
	// Answers holds at most MaxAnswers tuples, sorted.
	Answers [][]int `json:"answers,omitempty"`
	// Truncated reports Answers holds fewer than AnswerCount tuples.
	Truncated bool `json:"truncated,omitempty"`
	// MaxLoadTuples is the observed per-worker per-round maximum load.
	MaxLoadTuples int64 `json:"maxLoadTuples"`
	// TotalBits is the total communication of the run.
	TotalBits int64 `json:"totalBits"`
	// PerRoundBits lists each round's received bits.
	PerRoundBits []int64 `json:"perRoundBits"`
	// CapExceeded reports a broken receive budget (informational).
	CapExceeded bool `json:"capExceeded"`
	// WorkerReplacements counts workers replaced mid-query by the
	// recovery policy (distributed pool only; 0 on a healthy run).
	WorkerReplacements int `json:"workerReplacements,omitempty"`
	// ScatterResident counts the base-relation scatters the workers had
	// kept from an earlier execution on this dataset version and attached
	// to instead of receiving. Rounds, bits and loads are reported as if
	// scattered: that is what the model charges the computation.
	ScatterResident int `json:"scatterResident,omitempty"`
	// ElapsedMs is the wall-clock execution time in milliseconds.
	ElapsedMs float64 `json:"elapsedMs"`
}

// errorReply is the JSON error envelope.
type errorReply struct {
	// Error is the human-readable failure.
	Error string `json:"error"`
	// QueryID names the trace of a query that failed after admission;
	// GET /trace/{queryID} holds the failure's "error" event.
	QueryID string `json:"queryID,omitempty"`
}

// writeJSON renders v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a JSON error.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorReply{Error: fmt.Sprintf(format, args...)})
}

// httpError is a request failure that knows the status code of its
// reply.
type httpError struct {
	code int
	msg  string
}

// Error implements error.
func (e *httpError) Error() string { return e.msg }

// errorf builds an httpError.
func errorf(code int, format string, args ...any) *httpError {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// writeFailure renders a pipeline error: a tenant quota error as its
// structured 429, an httpError under its own status code, anything else
// as a 500. A non-empty queryID names the trace the failure was
// recorded on.
func writeFailure(w http.ResponseWriter, err error, queryID string) {
	var qe *QuotaError
	if errors.As(err, &qe) {
		writeQuotaError(w, qe)
		return
	}
	code, msg := http.StatusInternalServerError, err.Error()
	var he *httpError
	if errors.As(err, &he) {
		code, msg = he.code, he.msg
	}
	writeJSON(w, code, errorReply{Error: msg, QueryID: queryID})
}

// target validates the (p, ε, dataset) triple every execution request
// names and resolves it: p defaulted and bounded — and pinned to the
// size of the worker pool the service executes on, if it has one — ε a
// rational in [0,1) or nil when left to the query, the dataset
// registered.
func (s *Server) target(p int, epsilon, dataset string) (int, *big.Rat, *Dataset, error) {
	if p == 0 {
		p = s.cfg.DefaultP
	}
	if p < 1 {
		return 0, nil, nil, errorf(http.StatusBadRequest, "p = %d, need ≥ 1", p)
	}
	if p > s.cfg.MaxP {
		return 0, nil, nil, errorf(http.StatusBadRequest, "p = %d exceeds server limit %d", p, s.cfg.MaxP)
	}
	if s.pool != nil && p != len(s.cfg.WorkerAddrs) {
		return 0, nil, nil, errorf(http.StatusBadRequest,
			"p = %d, but this service executes on a fixed pool of %d workers (leave p unset)",
			p, len(s.cfg.WorkerAddrs))
	}
	eps, err := plan.ParseEpsilon(epsilon)
	if err != nil {
		return 0, nil, nil, errorf(http.StatusBadRequest, "eps: %v", err)
	}
	if dataset == "" {
		return 0, nil, nil, errorf(http.StatusBadRequest, "dataset is required")
	}
	ds, ok := s.registry.Get(dataset)
	if !ok {
		return 0, nil, nil, errorf(http.StatusNotFound, "unknown dataset %q (registered: %v)", dataset, s.registry.Names())
	}
	return p, eps, ds, nil
}

// job is a resolved /query request. Everything after resolution —
// admission, tracing, execution, accounting, the reply — is the same
// for a conjunctive query and a Datalog program and reads only this.
type job struct {
	// cost is the load booked against the tenant quota and the gate.
	cost int64
	// predicted and budget are the planner's per-worker load prediction
	// and cap, recorded on the trace (0 for a program: it has no single
	// plan).
	predicted float64
	budget    int64
	// reply holds what resolution already knows: dataset, canonical
	// query text, p, engine, plan identity, EXPLAIN, output schema.
	reply QueryResponse
	// run executes the job under ctx with the given seed, recording on
	// tc, and returns its answer; it fills in the reply fields only an
	// execution knows.
	run func(ctx context.Context, seed uint64, tc *trace.Trace, reply *QueryResponse) (answer, error)
}

// answer is what an execution hands the reply: the answer as one sealed
// run — every row, or at least the first the request asked for — how many
// rows the answer holds, how many rows its gather shipped to the
// coordinator, and the communication record.
type answer struct {
	run      *relation.Run
	count    int
	gathered int
	stats    *mpc.Stats
}

// resolveQuery resolves a conjunctive request: parse, bind to one
// snapshot of the dataset, plan cache-first.
func (s *Server) resolveQuery(req QueryRequest) (*job, error) {
	q, err := query.Resolve(req.Query, req.Family)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "%v", err)
	}
	p, eps, ds, err := s.target(req.P, req.Epsilon, req.Dataset)
	if err != nil {
		return nil, err
	}
	// One snapshot serves the whole request: the bind, the cache key's
	// version, and the statistics all describe the same dataset state,
	// even while deltas land concurrently.
	sn := ds.Snapshot()
	view, err := sn.Bind(q)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "%v", err)
	}

	// Plan: cache-first under the (query, dataset, version, p, ε)
	// fingerprint — a delta bumps the version, so stale-statistics
	// plans age out of the cache by key instead of by invalidation.
	opts := plan.Options{P: p, Epsilon: eps, CapFactor: s.cfg.CapFactor}
	limit := s.answerLimit(req.MaxAnswers)
	key := plan.CacheKey{Query: q, Dataset: ds.identity(), Version: sn.Version, Opts: opts}.Fingerprint()
	pl, planCached := s.cache.Get(key)
	statsCached := ds.statsSeen.Load()
	if planCached {
		s.metrics.PlanCacheHits.Add(1)
	} else {
		s.metrics.PlanCacheMisses.Add(1)
		var stats *relation.Stats
		if stats, statsCached = sn.Stats(); statsCached {
			s.metrics.StatsCacheHits.Add(1)
		} else {
			s.metrics.StatsCacheMisses.Add(1)
		}
		pl, err = plan.Build(q, queryScopedStats(stats, q), opts)
		if err != nil {
			s.metrics.QueryErrors.Add(1)
			return nil, errorf(http.StatusUnprocessableEntity, "planning failed: %v", err)
		}
		s.cache.Put(key, pl)
	}
	return &job{
		// Predicted per-worker load × workers ≈ the tuples this execution
		// materializes across the cluster.
		cost:      int64(pl.Cost.LoadTuples*float64(p)) + 1,
		predicted: pl.Cost.LoadTuples,
		budget:    int64(pl.BudgetLoad),
		reply: QueryResponse{
			Dataset:     ds.Name,
			Query:       q.String(),
			P:           p,
			Engine:      pl.Engine.String(),
			Fingerprint: key,
			PlanCached:  planCached,
			StatsCached: statsCached,
			Explain:     pl.Explain(),
			Vars:        q.Vars(),
		},
		run: func(ctx context.Context, seed uint64, tc *trace.Trace, reply *QueryResponse) (answer, error) {
			tr, rec, err := s.borrow(ctx)
			if err != nil {
				return answer{}, err
			}
			// The reply's rows are all the coordinator gathers: the engine
			// leaves the rest on the workers and counts them there.
			execOpts := plan.ExecOptions{Seed: seed, Context: ctx, Trace: tc, CapConstant: s.cfg.CapFactor, Transport: tr, Recovery: rec, AnswerLimit: limit}
			if tr != nil {
				defer tr.Close()
				// Its identity lets workers attach to what they kept of it.
				snap := s.residency.Snapshot(ds.identity(), sn.Version)
				defer func() { reply.ScatterResident = s.metrics.RecordScatters(pl.Engine, snap) }()
				execOpts.Snapshot = snap
			}
			res, err := pl.ExecuteRun(view, execOpts)
			if err != nil {
				return answer{}, errorf(http.StatusInternalServerError, "execution failed: %v", err)
			}
			reply.CapExceeded, reply.WorkerReplacements = res.CapExceeded, res.Replacements
			return answer{run: res.Run, count: res.Count, gathered: res.Gathered, stats: res.Stats}, nil
		},
	}, nil
}

// admit books cost against the tenant's load quota — over quota is an
// immediate 429 — and the global gate, which queues FIFO, and marks
// the execution in flight. The returned release undoes all of it.
func (s *Server) admit(ctx context.Context, ten *Tenant, cost int64) (release func(), err error) {
	if ten != nil {
		if qe := ten.AdmitLoad(cost); qe != nil {
			s.metrics.QueriesRejected.Add(1)
			return nil, qe
		}
	}
	if err := s.gate.Acquire(ctx, cost); err != nil {
		if ten != nil {
			ten.ReleaseLoad(cost)
		}
		s.metrics.QueriesRejected.Add(1)
		return nil, errorf(http.StatusServiceUnavailable, "admission rejected: %v", err)
	}
	s.metrics.InFlight.Add(1)
	if ten != nil {
		ten.InFlight.Add(1)
	}
	return func() {
		s.metrics.InFlight.Add(-1)
		s.gate.Release(cost)
		if ten != nil {
			ten.InFlight.Add(-1)
			ten.ReleaseLoad(cost)
		}
	}, nil
}

// answerLimit resolves a request's maxAnswers: 0 selects the service
// default, a negative one asks for the count alone.
func (s *Server) answerLimit(maxAnswers int) int {
	if maxAnswers == 0 {
		return s.cfg.MaxAnswers
	}
	return maxAnswers
}

// truncate returns the first limit rows of the answer run in the JSON
// reply's shape, decoding only those; a negative limit returns none (the
// caller still reports the full count).
func (s *Server) truncate(answers *relation.Run, limit int) [][]int {
	n := min(max(limit, 0), answers.Len())
	out := make([][]int, n)
	if n > 0 {
		a := answers.Arity()
		backing := make([]int, n*a)
		for i := range out {
			out[i] = answers.Row(i, backing[i*a:(i+1)*a:(i+1)*a])
		}
	}
	return out
}

// handleQuery is POST /query, one linear pipeline for both kinds of
// query: authenticate → rate-limit → decode → resolve to a job (a
// conjunctive query plans cache-first, a Datalog program parses) →
// admit under the tenant and global quotas → trace → execute →
// account → truncate → reply.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ten, handled := s.authorize(w, r)
	if handled {
		return
	}
	if ten != nil {
		// The rate quota is spent before the body is even decoded: a
		// throttled tenant costs the service one bucket probe, nothing
		// more.
		if qe := ten.AdmitRate(s.cfg.Now()); qe != nil {
			s.metrics.QueriesRejected.Add(1)
			writeQuotaError(w, qe)
			return
		}
	}
	var req QueryRequest
	if err := decodeJSONBody(w, r, &req, 1<<20); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resolve := s.resolveQuery
	if req.Program != "" || datalog.IsDatalog(req.Query) {
		resolve = s.resolveProgram
	}
	j, err := resolve(req)
	if err != nil {
		writeFailure(w, err, "")
		return
	}
	release, err := s.admit(r.Context(), ten, j.cost)
	if err != nil {
		writeFailure(w, err, "")
		return
	}

	// Every admitted execution is traced; the ring holds the live trace
	// from here on, so /trace and the console see in-flight queries.
	reply := j.reply
	qn := s.queryID.Add(1)
	reply.QueryID = fmt.Sprintf("q-%d", qn)
	tc := trace.New(reply.QueryID, qn)
	tc.Query, tc.Engine, tc.P = reply.Query, reply.Engine, reply.P
	tc.PredictedLoadTuples, tc.BudgetLoadTuples = j.predicted, j.budget
	if ten != nil {
		reply.Tenant = ten.Name()
		tc.Tenant = reply.Tenant
	}
	s.traces.Add(tc)
	if s.pool != nil {
		s.metrics.DistributedQueries.Add(1)
	}

	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	start := time.Now()
	ans, err := j.run(r.Context(), seed, tc, &reply)
	elapsed := time.Since(start)
	release()
	if err != nil {
		s.metrics.QueryErrors.Add(1)
		if ten != nil {
			ten.QueryErrors.Add(1)
		}
		tc.Event(tc.Root(), "error", -1, err.Error())
		tc.Finish()
		writeFailure(w, err, reply.QueryID)
		return
	}
	tc.Replacements = reply.WorkerReplacements
	tc.Finish()
	s.metrics.QueriesServed.Add(1)
	s.metrics.RecordExecution(ans.stats)
	s.metrics.WorkerReplacements.Add(int64(reply.WorkerReplacements))

	reply.Answers = s.truncate(ans.run, s.answerLimit(req.MaxAnswers))
	s.metrics.AnswersReturned.Add(int64(len(reply.Answers)))
	s.metrics.AnswerRowsGathered.Add(int64(ans.gathered))
	if ten != nil {
		ten.QueriesServed.Add(1)
		ten.AnswersReturned.Add(int64(len(reply.Answers)))
	}
	reply.AnswerCount = ans.count
	reply.Truncated = len(reply.Answers) < reply.AnswerCount
	reply.Rounds = ans.stats.NumRounds()
	reply.MaxLoadTuples = ans.stats.MaxLoadTuples()
	reply.TotalBits = ans.stats.TotalBits()
	reply.PerRoundBits = make([]int64, 0, len(ans.stats.Rounds))
	for _, rs := range ans.stats.Rounds {
		reply.PerRoundBits = append(reply.PerRoundBits, rs.TotalBits)
	}
	reply.ElapsedMs = float64(elapsed.Microseconds()) / 1000
	writeJSON(w, http.StatusOK, reply)
}

// borrow lends one execution — a query, a session a Datalog program
// opens, a continuous query's maintainer — a session of its own on the
// worker pool and the pool's recovery policy; without a pool, nothing:
// the in-process loopback. Closing the session gives it back. A failed
// borrow is the pool's failure, not the execution's: a 502.
func (s *Server) borrow(ctx context.Context) (dist.Transport, dist.RecoveryOptions, error) {
	if s.pool == nil {
		return nil, dist.RecoveryOptions{}, nil
	}
	tr, repaired, err := s.pool.Session(ctx)
	s.metrics.PoolRepairs.Add(int64(repaired))
	if err != nil {
		return nil, dist.RecoveryOptions{}, errorf(http.StatusBadGateway, "worker pool unavailable: %v", err)
	}
	return tr, s.recovery(), nil
}

// recovery is the self-healing policy of executions on the worker
// pool: replace a dead worker and replay. The lent session replaces it
// through the pool registry, which owns the spares.
func (s *Server) recovery() dist.RecoveryOptions {
	return dist.RecoveryOptions{Enabled: true, MaxReplacements: s.cfg.MaxReplacements}
}

// DatasetRequest is the POST /datasets body: a name plus exactly one
// of CSV (inline relation texts) or Generator.
type DatasetRequest struct {
	// Name is the registry key for the new dataset. Required.
	Name string `json:"name"`
	// CSV maps relation name → CSV text (header then integer rows).
	CSV map[string]string `json:"csv,omitempty"`
	// Generator describes a synthetic dataset.
	Generator *GeneratorSpec `json:"generator,omitempty"`
}

// DatasetInfo is one dataset in the GET /datasets listing.
type DatasetInfo struct {
	// Name is the registry key.
	Name string `json:"name"`
	// DomainN is the domain size [n].
	DomainN int `json:"domainN"`
	// Version is the dataset's delta version (applied batch count).
	Version uint64 `json:"version"`
	// Relations lists the resident relations.
	Relations []RelationInfo `json:"relations"`
	// StatsCollected reports whether statistics are memoized.
	StatsCollected bool `json:"statsCollected"`
}

// RelationInfo summarizes one resident relation.
type RelationInfo struct {
	// Name is the relation symbol.
	Name string `json:"name"`
	// Arity is the column count.
	Arity int `json:"arity"`
	// Tuples is the cardinality.
	Tuples int `json:"tuples"`
}

// handleDatasets is GET (list) and POST (register) /datasets. In
// multi-tenant mode a registration books the dataset's estimated
// bytes against the registering tenant's resident-bytes quota.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	ten, handled := s.authorize(w, r)
	if handled {
		return
	}
	switch r.Method {
	case http.MethodGet:
		var out []DatasetInfo
		for _, name := range s.registry.Names() {
			ds, _ := s.registry.Get(name)
			out = append(out, s.describe(ds))
		}
		if out == nil {
			out = []DatasetInfo{}
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		body, err := readBody(w, r, uploadLimit)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
			return
		}
		name, db, err := datasetFromBody(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		bytes := DatasetBytes(db)
		if ten != nil {
			if qe := ten.AdmitBytes(bytes); qe != nil {
				writeQuotaError(w, qe)
				return
			}
		}
		ds, err := s.registry.add(name, db, ten)
		if err != nil {
			if ten != nil {
				ten.ReleaseBytes(bytes)
			}
			code := http.StatusBadRequest
			if errors.Is(err, ErrDuplicateDataset) {
				code = http.StatusConflict
			}
			writeError(w, code, "%v", err)
			return
		}
		writeJSON(w, http.StatusCreated, s.describe(ds))
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// handleDatasetOne is DELETE /datasets/{name}: the dataset leaves the
// registry and, in multi-tenant mode, its current snapshot's bytes go
// back to the resident-bytes quota of the tenant that registered it. To
// any other tenant the name is unknown (404). A dataset a continuous
// query is registered on is refused with 409: DELETE the query first. Queries already running finish on the snapshot they
// hold; the name may be registered again, as a new dataset.
func (s *Server) handleDatasetOne(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		writeError(w, http.StatusMethodNotAllowed, "DELETE required")
		return
	}
	ten, handled := s.authorize(w, r)
	if handled {
		return
	}
	name := r.PathValue("name")
	ds, ok := s.registry.getFor(name, ten)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q (registered: %v)", name, s.registry.Names())
		return
	}
	// The dataset lock holds off a delta and a continuous registration,
	// both of which take it and then find the dataset dropped.
	ds.mu.Lock()
	if cqs := s.continuous.onDataset(name); len(cqs) > 0 {
		ds.mu.Unlock()
		writeError(w, http.StatusConflict, "dataset %s has %d continuous queries registered (%s first); delete them first", name, len(cqs), cqs[0].name)
		return
	}
	removed := s.registry.remove(ds)
	ds.mu.Unlock()
	if !removed {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	if ds.owner != nil {
		ds.owner.ReleaseBytes(DatasetBytes(ds.DB()))
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// describe renders a dataset summary of its current snapshot.
func (s *Server) describe(ds *Dataset) DatasetInfo {
	sn := ds.Snapshot()
	info := DatasetInfo{
		Name:           ds.Name,
		DomainN:        sn.DB.N,
		Version:        sn.Version,
		StatsCollected: ds.statsSeen.Load(),
	}
	for _, name := range sn.DB.Names() {
		rel, _ := sn.DB.Relation(name)
		info.Relations = append(info.Relations, RelationInfo{
			Name:   name,
			Arity:  rel.Arity(),
			Tuples: rel.Size(),
		})
	}
	return info
}

// handleHealthz is GET /healthz: liveness plus the full metric set in
// Prometheus text format.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# mpcserve up %.0fs, datasets %d, cached plans %d/%d\n",
		time.Since(s.started).Seconds(), len(s.registry.Names()), s.cache.Len(), s.cache.Capacity())
	var pool dist.Usage
	if s.pool != nil {
		pool = s.pool.Usage()
	}
	s.metrics.WriteProm(w, pool)
	s.writeContinuousProm(w)
	if s.tenants != nil {
		s.tenants.WriteProm(w)
	}
}

// queryScopedStats restricts a dataset catalog to the query's atoms,
// so budgets (Σ|S_j|) see the same totals cmd/mpcrun computes over an
// exactly-matching database.
func queryScopedStats(stats *relation.Stats, q *query.Query) *relation.Stats {
	scoped := &relation.Stats{Relations: make(map[string]*relation.RelationStats, q.NumAtoms())}
	for _, a := range q.Atoms {
		if rs := stats.Relation(a.Name); rs != nil {
			scoped.Relations[a.Name] = rs
		}
	}
	return scoped
}
