package serve

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/mpc"
	"repro/internal/plan"
)

// Metrics aggregates the service's operational counters. All fields
// are safe for concurrent update; WriteProm renders them in the
// Prometheus text exposition format served by GET /healthz.
type Metrics struct {
	// QueriesServed counts successfully answered POST /query requests.
	QueriesServed atomic.Int64
	// QueryErrors counts POST /query requests that failed after
	// admission (planning or execution errors).
	QueryErrors atomic.Int64
	// QueriesRejected counts requests the admission gate turned away
	// (client disconnect or shutdown while queued).
	QueriesRejected atomic.Int64
	// InFlight is the number of queries currently executing.
	InFlight atomic.Int64
	// PlanCacheHits counts POST /query requests served from a compiled
	// cached plan.
	PlanCacheHits atomic.Int64
	// PlanCacheMisses counts requests that had to build a fresh plan.
	PlanCacheMisses atomic.Int64
	// StatsCacheHits counts plan builds that reused a dataset's
	// memoized statistics catalog.
	StatsCacheHits atomic.Int64
	// StatsCacheMisses counts plan builds that collected statistics.
	StatsCacheMisses atomic.Int64
	// AnswersReturned counts answer tuples shipped to clients (after
	// per-response truncation).
	AnswersReturned atomic.Int64
	// AnswerRowsGathered counts the answer rows the coordinator gathered
	// from the workers for the replies it served: what a query's answer
	// gather shipped — on a grid engine at most p times the rows the
	// reply returns — or a program's whole answer.
	AnswerRowsGathered atomic.Int64
	// ShuffleBits is the total number of bits received by workers
	// across all executed queries, as accounted by the coordinator.
	ShuffleBits atomic.Int64
	// DistributedQueries counts executions dispatched to the remote
	// TCP worker pool (Config.WorkerAddrs) rather than the in-process
	// loopback.
	DistributedQueries atomic.Int64
	// WorkerReplacements counts workers replaced mid-query by the
	// recovery policy across all executions.
	WorkerReplacements atomic.Int64
	// PoolRepairs counts pool members a query's dial found dead and
	// replaced with a spare. A member replaced mid-query counts in
	// WorkerReplacements instead, and one the heartbeat replaced in
	// neither.
	PoolRepairs atomic.Int64
	// ScatterHits counts, indexed by the plan.Engine that ran, the
	// scatters the pool's workers attached to instead of receiving;
	// ScatterMisses the per-worker attaches that missed and were re-sent,
	// ScatterRetained the per-worker slices asked to be kept.
	ScatterHits                    [plan.SkewJoin + 1]atomic.Int64
	ScatterMisses, ScatterRetained atomic.Int64
	// DeltasTotal counts successfully applied delta batches
	// (POST /datasets/{name}/delta).
	DeltasTotal atomic.Int64
	// DeltaTuples counts the tuple occurrences those batches carried
	// (appends plus deletes).
	DeltaTuples atomic.Int64
	// MaintenanceBits counts the bits shipped to maintain continuous
	// queries under delta batches (delta routing, per the replication
	// factor of each tuple).
	MaintenanceBits atomic.Int64
	// ContinuousRegistered counts continuous-query registrations.
	ContinuousRegistered atomic.Int64
	// ContinuousReads counts warm answer reads
	// (GET /continuous/{name}).
	ContinuousReads atomic.Int64

	mu           sync.Mutex
	perRoundBits []int64
}

// RecordScatters adds what one execution of engine e's keyed scatters
// came to (nil: nothing) and returns its hits.
func (m *Metrics) RecordScatters(e plan.Engine, snap *dist.Snapshot) int {
	if snap == nil {
		return 0
	}
	m.ScatterHits[e].Add(int64(snap.Hits))
	m.ScatterMisses.Add(int64(snap.Misses))
	m.ScatterRetained.Add(int64(snap.Retained))
	return snap.Hits
}

// RecordExecution folds one execution's communication record into the
// shuffle counters: the total bits and the per-round-number bit
// histogram (round r of every query accumulates into bucket r).
func (m *Metrics) RecordExecution(stats *mpc.Stats) {
	if stats == nil {
		return
	}
	m.ShuffleBits.Add(stats.TotalBits())
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, r := range stats.Rounds {
		for len(m.perRoundBits) <= i {
			m.perRoundBits = append(m.perRoundBits, 0)
		}
		m.perRoundBits[i] += r.TotalBits
	}
}

// PerRoundBits returns a copy of the cumulative per-round-number bit
// counters (index 0 = first round of each query).
func (m *Metrics) PerRoundBits() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int64(nil), m.perRoundBits...)
}

// PlanCacheHitRate returns hits/(hits+misses), or 0 before any lookup.
func (m *Metrics) PlanCacheHitRate() float64 {
	h, s := m.PlanCacheHits.Load(), m.PlanCacheHits.Load()+m.PlanCacheMisses.Load()
	if s == 0 {
		return 0
	}
	return float64(h) / float64(s)
}

// StatsCacheHitRate returns hits/(hits+misses) of the statistics
// memoization, or 0 before any plan build.
func (m *Metrics) StatsCacheHitRate() float64 {
	h, s := m.StatsCacheHits.Load(), m.StatsCacheHits.Load()+m.StatsCacheMisses.Load()
	if s == 0 {
		return 0
	}
	return float64(h) / float64(s)
}

// WriteProm renders every counter, and the worker pool's usage (zero
// without a pool), in the Prometheus text exposition format (one
// HELP/TYPE header per metric, then the sample).
func (m *Metrics) WriteProm(w io.Writer, pool dist.Usage) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("mpcserve_queries_served_total", "Queries answered successfully.", m.QueriesServed.Load())
	counter("mpcserve_query_errors_total", "Queries that failed during planning or execution.", m.QueryErrors.Load())
	counter("mpcserve_queries_rejected_total", "Queries rejected by the admission gate.", m.QueriesRejected.Load())
	gauge("mpcserve_queries_in_flight", "Queries currently executing.", m.InFlight.Load())
	counter("mpcserve_plan_cache_hits_total", "Queries served from a cached compiled plan.", m.PlanCacheHits.Load())
	counter("mpcserve_plan_cache_misses_total", "Queries that built a fresh plan.", m.PlanCacheMisses.Load())
	counter("mpcserve_stats_cache_hits_total", "Plan builds that reused memoized dataset statistics.", m.StatsCacheHits.Load())
	counter("mpcserve_stats_cache_misses_total", "Plan builds that collected dataset statistics.", m.StatsCacheMisses.Load())
	counter("mpcserve_answers_returned_total", "Answer tuples returned to clients.", m.AnswersReturned.Load())
	counter("mpcserve_answer_rows_gathered_total", "Answer rows gathered from the workers for the replies served.", m.AnswerRowsGathered.Load())
	counter("mpcserve_shuffle_bits_total", "Bits received by workers across all queries.", m.ShuffleBits.Load())
	counter("mpcserve_distributed_queries_total", "Executions dispatched to the remote TCP worker pool.", m.DistributedQueries.Load())
	counter("mpcserve_worker_replacements_total", "Workers replaced mid-query by the recovery policy.", m.WorkerReplacements.Load())
	counter("mpcserve_pool_repairs_total", "Pool members a query's dial found dead and replaced with a spare (mid-query replacements count in mpcserve_worker_replacements_total).", m.PoolRepairs.Load())
	counter("mpcserve_pool_dials_total", "Worker-pool sessions dialled, plus mid-query worker replacements.", pool.Dials)
	counter("mpcserve_pool_sessions_reused_total", "Executions that ran on a parked worker-pool session instead of dialling one.", pool.Reused)
	counter("mpcserve_pool_exchanges_total", "Acknowledged pool-wide round trips across all sessions: one per fence, so a one-shot round is one and a resident one two.", pool.Exchanges)
	fmt.Fprintf(w, "# HELP mpcserve_scatter_resident_hits_total Scatters the workers attached to instead of receiving, by engine.\n# TYPE mpcserve_scatter_resident_hits_total counter\n")
	for e := range m.ScatterHits {
		fmt.Fprintf(w, "mpcserve_scatter_resident_hits_total{engine=%q} %d\n", plan.Engine(e).String(), m.ScatterHits[e].Load())
	}
	counter("mpcserve_scatter_resident_misses_total", "Per-worker attaches that missed and were re-sent.", m.ScatterMisses.Load())
	counter("mpcserve_scatter_resident_retained_total", "Per-worker scatter slices workers were asked to keep.", m.ScatterRetained.Load())
	counter("mpcserve_deltas_total", "Delta batches applied to datasets.", m.DeltasTotal.Load())
	counter("mpcserve_delta_tuples_total", "Tuple occurrences ingested by delta batches.", m.DeltaTuples.Load())
	counter("mpcserve_maintenance_bits_total", "Bits shipped maintaining continuous queries under deltas.", m.MaintenanceBits.Load())
	counter("mpcserve_continuous_registered_total", "Continuous-query registrations.", m.ContinuousRegistered.Load())
	counter("mpcserve_continuous_reads_total", "Warm continuous-query answer reads.", m.ContinuousReads.Load())
	fmt.Fprintf(w, "# HELP mpcserve_plan_cache_hit_rate Plan cache hits over lookups.\n# TYPE mpcserve_plan_cache_hit_rate gauge\nmpcserve_plan_cache_hit_rate %.4f\n",
		m.PlanCacheHitRate())
	rounds := m.PerRoundBits()
	fmt.Fprintf(w, "# HELP mpcserve_shuffle_round_bits_total Bits received by workers, by round number.\n# TYPE mpcserve_shuffle_round_bits_total counter\n")
	for i, bits := range rounds {
		fmt.Fprintf(w, "mpcserve_shuffle_round_bits_total{round=%q} %d\n", fmt.Sprint(i+1), bits)
	}
}
