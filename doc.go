// Package repro reproduces "Communication Steps for Parallel Query
// Processing" (Paul Beame, Paraschos Koutris, Dan Suciu, PODS 2013;
// arXiv:1306.5972) as a production-quality Go library.
//
// The repository implements the Massively Parallel Communication model
// MPC(ε), the HyperCube one-round algorithm and its matching lower
// bound apparatus, multi-round Γ^r_ε query plans, the (ε,r)-plan lower
// bound machinery, and the connected-components reduction — together
// with one cluster runtime (in-process or over TCP), an exact rational LP
// solver for the fractional vertex-cover/edge-packing programs, and a
// benchmark harness that regenerates every table and figure of the
// paper.
//
// Local (per-worker) evaluation is a worst-case-optimal multiway join:
// a leapfrog-triejoin-style engine over integer-packed sorted tries
// (localjoin.EvaluateRuns), which stays within the AGM bound on the
// cyclic, skewed residual queries HyperCube workers see. It is the only
// evaluator a worker has — the model gives servers unlimited local
// computation, so nothing selects one. The pairwise hash pipeline
// (localjoin.HashJoin) is the single-node ground-truth oracle, an
// independent algorithm on purpose; the BenchmarkJoin* benchmarks
// compare the two head to head on triangle and Zipf inputs.
//
// All inter-worker communication is one type, the sealed run
// (relation.Run: rows of as many uint64 words as its fields need —
// one per tuple while every value fits — sorted; with its algebra Merge,
// Diff, Project),
// routed by one subsystem, internal/exchange: senders partition source
// shards in parallel into one run per destination, routing policy is a
// pluggable Partitioner (plain hash, hypercube grid replication,
// skew-aware heavy-hitter blocks), receivers accumulate sorted runs, and
// the model's round statistics — total bits, per-worker load, the
// c·N/p^{1−ε} receive cap — are computed from run sizes. Answer
// gathering k-way merges the sorted runs instead of concatenating and
// re-sorting. The BenchmarkShuffle* benchmarks compare this path
// head to head against the historic per-tuple message routing.
//
// The rounds themselves run on a pluggable worker runtime,
// internal/dist: the same bulk-synchronous protocol (scatter →
// barrier → local join → gather) executes either in-process (the
// loopback transport) or across real cmd/mpcworker processes over
// TCP, with sealed columnar runs serialized as length-prefixed wire
// frames (internal/wire). Receive accounting happens
// coordinator-side, so both transports record identical round
// statistics, and a differential test net holds every engine to
// ground-truth-identical answers on both. Every engine starts an
// execution the same way — dist.Open, given the environment (worker
// pool, context, recovery policy, schedule, trace) and the model
// parameters — and internal/serve answers POST /query through one
// pipeline whether the request is a conjunctive query or a Datalog
// program, so both are traced and, on a worker pool, self-healing.
//
// Layout:
//
//	internal/lp          exact two-phase simplex over big.Rat
//	internal/query       conjunctive queries and hypergraph machinery
//	internal/cover       Figure 1 LPs, τ*, space exponents, shares
//	internal/relation    tuples, relations, matching databases, the sealed run and its algebra
//	internal/exchange    routing: partitioners, source → one sealed run per destination
//	internal/mpc         the MPC(ε) model's parameters and accounting: Config, RoundStats, Stats
//	internal/localjoin   the worker's join (WCOJ over runs) and the hash-join ground-truth oracle
//	internal/hypercube   the HyperCube algorithm (Theorem 1.1)
//	internal/multiround  Γ^r_ε plans and the round executor (§4.1)
//	internal/plan        the statistics-driven planner: LP → shares → engine, EXPLAIN
//	internal/wire        length-prefixed wire frames for columnar runs + BSP control
//	internal/dist        the cluster: coordinator, loopback/TCP transports, worker session
//	internal/serve       the multi-query HTTP service: registry, plan cache, admission gate
//	internal/theory      closed-form bounds, ε-good sets, (ε,r)-plans
//	internal/cc          connected components (Theorem 4.10)
//	internal/witness     JOIN-WITNESS (Proposition 3.12)
//	internal/experiments the table/figure regeneration harness
//	internal/core        the high-level facade API
//	cmd/mpcplan          query analysis + EXPLAIN CLI
//	cmd/mpcrun           planner-driven cluster execution CLI
//	cmd/mpcbench         experiment regeneration CLI
//	cmd/mpcserve         the long-running HTTP/JSON query service
//	cmd/mpcworker        one distributed worker process (TCP, internal/dist)
//	cmd/doccheck         CI documentation gate (exports + markdown snippets)
//	examples/...         runnable end-to-end programs
//
// Query planning is statistics-driven: internal/plan consumes a
// parsed query plus relation.Stats (cardinalities, per-column
// heavy-hitter counts), solves the Figure 1 LPs for the share
// exponents, predicts load and communication, and selects among the
// one-round, multiround, and skew-aware engines against the MPC(ε)
// budget. cmd/mpcplan prints the plan's EXPLAIN; cmd/mpcrun executes
// it (with a -plan manual-override escape hatch).
//
// See README.md for a walkthrough, ARCHITECTURE.md for the layer
// diagram, data flow and package index, and cmd/mpcbench for the
// experiment index and the paper-vs-measured tables. Benchmarks in
// bench_test.go regenerate each experiment under `go test -bench`;
// end-to-end performance is measured by the separate bench/ module
// (bench/run.sh).
package repro
