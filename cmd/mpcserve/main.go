// Command mpcserve runs the long-running multi-query MPC(ε) service:
// an HTTP/JSON front end (internal/serve) over the statistics-driven
// planner and the columnar exchange engines. Datasets are loaded once
// and kept resident; compiled plans and collected statistics are
// cached across requests; a bounded worker pool admission-controls
// concurrent executions under a global predicted-load budget.
//
// Usage:
//
//	mpcserve -addr :8377 -gen 'tri:family=C3,n=10000,seed=1'
//	mpcserve -dataset 'edges:R=r.csv,S=s.csv' -p 64 -max-concurrent 128
//	mpcserve -gen 'tri:family=C3,n=10000' -workers localhost:9001,localhost:9002
//
// With -workers, cached plans execute against the distributed TCP
// worker pool (cmd/mpcworker) instead of the in-process loopback: p
// becomes the pool size and each query borrows an isolated worker session
// of its own — one an earlier query parked after resetting it, or a new
// dial — so concurrent queries share the pool safely. With -spares,
// the pool self-heals: a member already dead when a query dials is
// replaced by a standby at the dial, and one that dies mid-query is
// replaced too, its slice of the query replayed from the coordinator's
// journal and the query resumed at the round it was in; a background
// reconciler (-reconcile) heartbeats the pool and promotes spares for
// members that stop answering. The pool registry records every
// promotion, so each dead member is replaced once. The workers keep
// the routed runs of a dataset version from its second query on, and
// later queries attach to them ("scatterResident" in the reply).
//
// A client that does not finish its request headers is disconnected;
// SIGTERM or SIGINT stops the listener, lets the requests in flight
// finish (bounded) and exits 0.
//
// Endpoints:
//
//	POST /query                  {"dataset":"tri","family":"C3"}          answers + EXPLAIN + round stats
//	GET  /datasets                                                        registry listing (with versions)
//	POST /datasets               {"name":"d2","generator":{"family":"C3","n":1000}}
//	POST /datasets/{name}/delta  {"appends":{"S1":[[1,7]]},"deletes":{}}  streaming ingest: copy-on-write
//	                             version bump, incremental statistics, continuous-query maintenance
//	GET  /continuous                                                      continuous-query listing
//	POST /continuous             {"name":"live","dataset":"tri","family":"C3"}
//	GET  /continuous/{name}                                               warm materialized answers (no execution)
//	DELETE /continuous/{name}                                             deregister
//	GET  /healthz                                                         liveness + Prometheus metrics
//	GET  /metrics                                                         alias of /healthz
//	GET  /trace                                                           recent execution summaries
//	GET  /trace/{queryID}                                                 full per-round, per-worker span tree
//	GET  /ops                                                             operator JSON (tenants, gate, caches, queries)
//	GET  /ui                                                              live operator console (HTML)
//
// The -dataset flag (repeatable) preloads CSV relations:
// 'name:R=file.csv,S=file.csv'. The -gen flag (repeatable) preloads a
// synthetic dataset: 'name:family=C3,n=10000[,seed=7][,kind=zipf][,skew=1.3]'
// (use query=… instead of family=… for ad-hoc shapes).
//
// The -tenant flag (repeatable) switches the service to multi-tenant
// mode: 'name:key=K[,qps=2][,burst=4][,load=200000][,bytes=16777216]'.
// Data-plane endpoints then require 'Authorization: Bearer K' (or
// X-API-Key), each tenant is rate-limited by a qps/burst token
// bucket, its concurrent queries are bounded by the summed
// plan-predicted load in tuples, and its registered datasets by
// estimated resident bytes; quota breaches return 429 with a
// structured retry-after. The operator surface (/healthz, /metrics,
// /trace, /ops, /ui) stays unauthenticated.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/relation"
	"repro/internal/serve"
)

// repeatableFlag collects repeated string flag occurrences.
type repeatableFlag []string

// String renders the flag value for -help.
func (r *repeatableFlag) String() string { return strings.Join(*r, " ") }

// Set appends one occurrence.
func (r *repeatableFlag) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8377", "listen address")
		p         = flag.Int("p", 64, "default number of servers per query")
		maxP      = flag.Int("max-p", 1024, "largest accepted per-query p")
		capC      = flag.Float64("cap", 0, "planner budget constant c in c·N/p^{1−ε} (0: planner default)")
		workers   = flag.Int("max-concurrent", 128, "admission gate: max in-flight query executions")
		budget    = flag.Int64("load-budget", 0, "admission gate: global predicted-load budget in tuples (0: unbounded)")
		cache     = flag.Int("cache", 128, "plan cache capacity (compiled plans)")
		answers   = flag.Int("max-answers", 100, "default per-response answer cap")
		pool      = flag.String("workers", "", "comma-separated mpcworker addresses; execute queries on this distributed TCP pool (p becomes the pool size)")
		spares    = flag.String("spares", "", "comma-separated standby mpcworker addresses; dead pool members are replaced by spares at a query's dial, mid-query and by the background reconciler")
		maxRepl   = flag.Int("max-replace", 0, "max worker replacements per query execution (0: pool size)")
		reconcile = flag.Duration("reconcile", 5*time.Second, "worker pool heartbeat interval (0 disables the background reconciler)")
		datas     repeatableFlag
		gens      repeatableFlag
		tenants   repeatableFlag
	)
	flag.Var(&datas, "dataset", "preload CSV dataset 'name:R=file.csv,S=file.csv' (repeatable)")
	flag.Var(&gens, "gen", "preload generated dataset 'name:family=C3,n=10000[,seed=7][,kind=zipf][,skew=1.3]' (repeatable)")
	flag.Var(&tenants, "tenant", "declare a tenant 'name:key=K[,qps=2][,burst=4][,load=200000][,bytes=16777216]' (repeatable; enables API-key auth and per-tenant quotas)")
	flag.Parse()
	srv, err := build(*p, *maxP, *capC, *workers, *budget, *cache, *answers, *pool, *spares, *maxRepl, datas, gens, tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcserve:", err)
		os.Exit(1)
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "mpcserve: empty -addr")
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if reg := srv.Pool(); reg != nil && *reconcile > 0 {
		// Background membership heartbeats: dead members are swapped
		// for spares without waiting for a query to trip over them.
		go reg.Run(ctx, *reconcile)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcserve:", err)
		os.Exit(1)
	}
	fmt.Printf("mpcserve listening on %s (datasets: %s)\n", *addr, strings.Join(srv.Registry().Names(), ", "))
	if err := serveHTTP(ctx, newHTTPServer(srv.Handler()), ln); err != nil {
		fmt.Fprintln(os.Stderr, "mpcserve:", err)
		os.Exit(1)
	}
}

// readHeaderTimeout disconnects a client that does not finish its request
// headers, idleTimeout a kept-alive connection nobody uses (bodies and
// replies stay unbounded: uploads are large, queries long); shutdownGrace
// is how long a termination signal waits for requests in flight.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 30 * time.Second
)

// newHTTPServer wraps h in the service's timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serveHTTP serves on ln until ctx is done, then stops accepting and lets
// the requests in flight finish — for at most shutdownGrace, after which
// their connections are closed and the error says so.
func serveHTTP(ctx context.Context, hs *http.Server, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(grace); err != nil {
		hs.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// build validates the flags and assembles the server with all
// preloaded datasets. It is main without the listener, so tests can
// drive it.
func build(p, maxP int, capC float64, workers int, budget int64, cache, answers int, pool, spares string, maxRepl int, datas, gens, tenants []string) (*serve.Server, error) {
	if p < 1 {
		return nil, fmt.Errorf("-p = %d, need ≥ 1", p)
	}
	tenantCfgs := make([]serve.TenantConfig, 0, len(tenants))
	for _, spec := range tenants {
		cfg, err := parseTenant(spec)
		if err != nil {
			return nil, fmt.Errorf("-tenant %q: %w", spec, err)
		}
		tenantCfgs = append(tenantCfgs, cfg)
	}
	if _, err := serve.NewTenants(tenantCfgs); len(tenantCfgs) > 0 && err != nil {
		return nil, err
	}
	poolAddrs, err := dist.ParseAddrs(pool)
	if err != nil {
		return nil, err
	}
	spareAddrs, err := dist.ParseAddrs(spares)
	if err != nil {
		return nil, err
	}
	if len(spareAddrs) > 0 && len(poolAddrs) == 0 {
		return nil, fmt.Errorf("-spares requires -workers")
	}
	if len(poolAddrs) > 0 {
		// The distributed pool fixes the cluster size (withDefaults
		// also reconciles MaxP for library users).
		p = len(poolAddrs)
	}
	if len(poolAddrs) == 0 && maxP < p {
		return nil, fmt.Errorf("-max-p = %d smaller than -p = %d", maxP, p)
	}
	if workers < 1 {
		return nil, fmt.Errorf("-max-concurrent = %d, need ≥ 1", workers)
	}
	if cache < 1 {
		return nil, fmt.Errorf("-cache = %d, need ≥ 1", cache)
	}
	srv := serve.New(serve.Config{
		DefaultP:         p,
		MaxP:             maxP,
		CapFactor:        capC,
		MaxConcurrent:    workers,
		LoadBudgetTuples: budget,
		CacheSize:        cache,
		MaxAnswers:       answers,
		WorkerAddrs:      poolAddrs,
		SpareAddrs:       spareAddrs,
		MaxReplacements:  maxRepl,
		Tenants:          tenantCfgs,
	})
	for _, spec := range datas {
		name, db, err := loadCSVDataset(spec)
		if err != nil {
			return nil, fmt.Errorf("-dataset %q: %w", spec, err)
		}
		if _, err := srv.Registry().Add(name, db); err != nil {
			return nil, err
		}
	}
	for _, spec := range gens {
		name, db, err := generateDataset(spec)
		if err != nil {
			return nil, fmt.Errorf("-gen %q: %w", spec, err)
		}
		if _, err := srv.Registry().Add(name, db); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// loadCSVDataset parses 'name:R=file.csv,S=file.csv' and reads every
// file once, straight into its relation's run. The relations are read
// and registered in name order, as serve.RunsFromCSV reads the same
// texts.
func loadCSVDataset(spec string) (string, *relation.Database, error) {
	name, rest, ok := strings.Cut(spec, ":")
	if !ok || name == "" || rest == "" {
		return "", nil, fmt.Errorf("want 'name:R=file.csv,…'")
	}
	paths := map[string]string{}
	for _, pair := range strings.Split(rest, ",") {
		rel, path, ok := strings.Cut(pair, "=")
		if !ok || rel == "" || path == "" {
			return "", nil, fmt.Errorf("bad relation entry %q (want R=file.csv)", pair)
		}
		paths[strings.TrimSpace(rel)] = strings.TrimSpace(path)
	}
	names := make([]string, 0, len(paths))
	for rel := range paths {
		names = append(names, rel)
	}
	sort.Strings(names)
	rels := make([]*relation.Relation, len(names))
	for i, rel := range names {
		text, err := os.ReadFile(paths[rel])
		if err != nil {
			return "", nil, err
		}
		if rels[i], err = relation.ReadCSV(text, rel); err != nil {
			return "", nil, fmt.Errorf("relation %s: %w", rel, err)
		}
	}
	return name, relation.DatabaseOf(rels...), nil
}

// generateDataset parses 'name:family=C3,n=10000,…' into a
// serve.GeneratorSpec and runs it.
func generateDataset(spec string) (string, *relation.Database, error) {
	name, rest, ok := strings.Cut(spec, ":")
	if !ok || name == "" || rest == "" {
		return "", nil, fmt.Errorf("want 'name:family=C3,n=10000,…'")
	}
	gs := serve.GeneratorSpec{}
	for _, pair := range splitTopLevel(rest) {
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return "", nil, fmt.Errorf("bad generator entry %q (want key=value)", pair)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "family":
			gs.Family = val
		case "query":
			gs.Query = val
		case "n":
			gs.N, err = strconv.Atoi(val)
		case "seed":
			gs.Seed, err = strconv.ParseUint(val, 10, 64)
		case "kind":
			gs.Kind = val
		case "skew":
			gs.Skew, err = strconv.ParseFloat(val, 64)
		default:
			return "", nil, fmt.Errorf("unknown generator key %q (want family, query, n, seed, kind or skew)", key)
		}
		if err != nil {
			return "", nil, fmt.Errorf("bad generator value %q: %v", pair, err)
		}
	}
	db, err := serve.Generate(gs)
	if err != nil {
		return "", nil, err
	}
	return name, db, nil
}

// parseTenant parses one -tenant spec:
// 'name:key=K[,qps=2][,burst=4][,load=200000][,bytes=16777216]'.
func parseTenant(spec string) (serve.TenantConfig, error) {
	var cfg serve.TenantConfig
	name, rest, ok := strings.Cut(spec, ":")
	if !ok || name == "" || rest == "" {
		return cfg, fmt.Errorf("want 'name:key=K[,qps=][,burst=][,load=][,bytes=]'")
	}
	cfg.Name = name
	for _, pair := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return cfg, fmt.Errorf("bad tenant entry %q (want key=value)", pair)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "key":
			cfg.Key = val
		case "qps":
			cfg.QPS, err = strconv.ParseFloat(val, 64)
		case "burst":
			cfg.Burst, err = strconv.Atoi(val)
		case "load":
			cfg.MaxInFlightLoad, err = strconv.ParseInt(val, 10, 64)
		case "bytes":
			cfg.MaxResidentBytes, err = strconv.ParseInt(val, 10, 64)
		default:
			return cfg, fmt.Errorf("unknown tenant key %q (want key, qps, burst, load or bytes)", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("bad tenant value %q: %v", pair, err)
		}
	}
	if cfg.Key == "" {
		return cfg, fmt.Errorf("tenant %s needs key=", cfg.Name)
	}
	return cfg, nil
}

// splitTopLevel splits a generator spec on commas into key=value
// entries, re-attaching pieces that do not start a new key — so query
// text like query=R(x,y),S(y,z) stays one entry even though its atoms
// are comma-separated.
func splitTopLevel(s string) []string {
	var out []string
	for _, piece := range strings.Split(s, ",") {
		if len(out) > 0 && !startsKeyValue(piece) {
			out[len(out)-1] += "," + piece
			continue
		}
		out = append(out, piece)
	}
	return out
}

// startsKeyValue reports whether the piece begins with a key= prefix
// (an '=' appearing before any parenthesis).
func startsKeyValue(piece string) bool {
	eq := strings.Index(piece, "=")
	paren := strings.Index(piece, "(")
	return eq > 0 && (paren < 0 || eq < paren)
}
