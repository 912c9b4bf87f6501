// Command mpcrun evaluates a conjunctive query on the MPC(ε) cluster.
// It is planner-driven: it collects statistics over the input relations
// (relation.CollectStats), builds a cost-based plan (internal/plan)
// that picks the share grid and the engine — one-round HyperCube,
// multiround Γ^r_ε decomposition, or skew-aware routing — prints the
// plan's EXPLAIN, and executes it end to end through the columnar
// exchange layer.
//
// Usage:
//
//	mpcrun -family C3 -n 10000 -p 64                 # the planner decides
//	mpcrun -family L16 -n 5000 -p 64 -eps 1/2        # planner at a fixed ε
//	mpcrun -query 'R(x,y),S(y,z)' -n 1000 -p 16
//	mpcrun -query 'R(x,y),S(y,z)' -data 'R=r.csv,S=s.csv' -p 16
//	mpcrun -family C3 -plan engine=one               # manual: force one round
//	mpcrun -family L16 -plan engine=multi -eps 1/2   # manual: force Γ^r_ε
//	mpcrun -family C3 -plan 'shares=x1:4,x2:4,x3:4'  # manual share override
//	mpcrun -query 'R(x,y),S(y,z)' -plan engine=skew  # manual engine override
//	mpcrun -family C3 -workers localhost:9001,localhost:9002,localhost:9003,localhost:9004
//	mpcrun -query 'tc(x,y) :- e(x,y). tc(x,z) :- tc(x,y), e(y,z). ?- tc(x,y).' -n 500 -p 8
//
// With -workers, the rounds run distributed: the listed mpcworker
// processes (cmd/mpcworker) form the cluster, p is the pool size, and
// every shuffle crosses TCP instead of process memory. Answers and
// round statistics are identical to the in-process run by
// construction (the differential tests in internal/dist hold both
// paths to that). The run borrows its session from a dist.Registry over
// -workers and -spares: a member already dead at the dial, or dying
// mid-run, is replaced by the first live spare.
//
// A -query containing ':-' or '?-' is a Datalog program (internal/
// datalog): rules compile onto the same planner, recursive predicates
// run the semi-naive fixpoint over warm incremental maintenance, and
// aggregate heads (count/sum/min/max) fold into the gather. Datalog
// runs accept -n, -p, -eps, -seed, -cap, -show, -data and -workers;
// the EDB relations are the program's undefined predicates.
//
// Without -data, a random matching database over [n] is generated
// (for Datalog: each EDB relation gets n uniform tuples over [n]);
// with -data, each named relation is loaded from a CSV file (header =
// attribute names, rows = positive integers). The -plan flag overrides
// parts of the planner's decision: a semicolon-separated list of
// engine=one|multi|skew and/or shares=v1:d1,v2:d2,… (shares imply the
// one-round engine).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/hypercube"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

func main() {
	var (
		queryStr  = flag.String("query", "", "conjunctive query text")
		familyStr = flag.String("family", "", "query family: L<k>, C<k>, T<k>, SP<k>, B<k>_<m>")
		n         = flag.Int("n", 10000, "domain size (tuples per relation)")
		p         = flag.Int("p", 64, "number of servers")
		epsStr    = flag.String("eps", "", "space exponent (default: the query's 1-1/τ*)")
		seed      = flag.Uint64("seed", 1, "random seed")
		capC      = flag.Float64("cap", 0, "receive-cap constant c (0 disables enforcement)")
		show      = flag.Int("show", 5, "print at most this many answers")
		dataStr   = flag.String("data", "", "comma-separated Rel=file.csv pairs; omit to generate a matching database")
		planStr   = flag.String("plan", "", "manual plan override: 'engine=one|multi|skew' and/or 'shares=x:4,y:4', semicolon-separated")
		workers   = flag.String("workers", "", "comma-separated mpcworker addresses; run the rounds distributed over TCP (p becomes the pool size; the run is bounded by a 10-minute deadline)")
		spares    = flag.String("spares", "", "comma-separated standby mpcworker addresses; a worker found dead at the dial or dying mid-run is replaced and the query resumes (requires -workers)")
		maxRepl   = flag.Int("max-replace", 0, "max worker replacements for the run (0: pool size; requires -workers)")
	)
	flag.Parse()
	if err := run(*queryStr, *familyStr, *n, *p, *epsStr, *seed, *capC, *show, *dataStr, *planStr, *workers, *spares, *maxRepl); err != nil {
		fmt.Fprintln(os.Stderr, "mpcrun:", err)
		os.Exit(1)
	}
}

func run(queryStr, familyStr string, n, p int, epsStr string, seed uint64, capC float64, show int, dataStr, planStr, workers, spares string, maxRepl int) error {
	if p < 1 {
		return fmt.Errorf("-p = %d, need ≥ 1", p)
	}
	addrs, err := dist.ParseAddrs(workers)
	if err != nil {
		return err
	}
	spareAddrs, err := dist.ParseAddrs(spares)
	if err != nil {
		return err
	}
	if len(addrs) == 0 && (len(spareAddrs) > 0 || maxRepl != 0) {
		return fmt.Errorf("-spares and -max-replace require -workers")
	}
	if len(addrs) > 0 {
		// The cluster size is the pool size: one worker id per process.
		if p != len(addrs) {
			fmt.Printf("note: -workers fixes p to the pool size %d (ignoring -p %d)\n", len(addrs), p)
		}
		p = len(addrs)
	}
	if dataStr == "" && n < 1 {
		return fmt.Errorf("-n = %d, need ≥ 1", n)
	}
	eps, err := plan.ParseEpsilon(epsStr)
	if err != nil {
		return err
	}
	if datalog.IsDatalog(queryStr) {
		if familyStr != "" || planStr != "" || len(spareAddrs) > 0 || maxRepl != 0 {
			return fmt.Errorf("a Datalog -query supports only -n, -p, -eps, -seed, -cap, -show, -data and -workers")
		}
		return runDatalog(queryStr, n, p, eps, seed, capC, show, dataStr, addrs)
	}
	q, err := query.Resolve(queryStr, familyStr)
	if err != nil {
		return err
	}
	var db *relation.Database
	if dataStr == "" {
		rng := rand.New(rand.NewPCG(seed, 0xdb))
		db = relation.MatchingDatabase(rng, q, n)
	} else {
		// Each CSV takes its atom's variables as schema.
		specs := make([]relSpec, len(q.Atoms))
		for i, a := range q.Atoms {
			specs[i] = relSpec{a.Name, a.Vars}
		}
		if db, err = loadDatabase(specs, dataStr); err != nil {
			return err
		}
		n = db.N
	}
	fmt.Printf("query: %s\nn = %d, p = %d, input = %d bits\n", q, n, p, db.InputBits())

	truth, err := core.GroundTruth(q, db)
	if err != nil {
		return err
	}
	return runPlanned(q, db, p, eps, seed, capC, show, planStr, addrs, spareAddrs, maxRepl, truth)
}

// runPlanned is the planner-driven path: collect statistics, build the
// plan, apply any -plan override, EXPLAIN, execute (in process, or
// distributed over a TCP worker pool when addrs are given), report.
func runPlanned(q *query.Query, db *relation.Database, p int, eps *big.Rat, seed uint64, capC float64, show int, planStr string, addrs, spareAddrs []string, maxRepl int, truth []relation.Tuple) error {
	stats := relation.CollectStats(db)
	// A caller-supplied cap constant is both enforced at execution and
	// used as the planner's budget factor, so EXPLAIN's verdict and the
	// engine's enforcement agree.
	pl, err := plan.Build(q, stats, plan.Options{P: p, Epsilon: eps, CapFactor: capC})
	if err != nil {
		return err
	}
	if planStr != "" {
		if pl, err = applyPlanOverride(pl, planStr); err != nil {
			return err
		}
	}
	fmt.Print(pl.Explain())
	opts := plan.ExecOptions{Seed: seed, CapConstant: capC}
	if len(addrs) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		pool := dist.NewRegistry(addrs, spareAddrs)
		tr, repaired, err := pool.Session(ctx)
		if err != nil {
			return err
		}
		defer tr.Close()
		opts.Transport = tr
		opts.Context = ctx
		opts.Recovery = dist.RecoveryOptions{Enabled: true, MaxReplacements: maxRepl}
		fmt.Printf("distributed: %d TCP workers (%s)\n", len(addrs), strings.Join(pool.Members(), ", "))
		if repaired > 0 {
			fmt.Printf("repaired: %d dead worker(s) replaced by spares at the dial\n", repaired)
		}
		if len(spareAddrs) > 0 {
			fmt.Printf("spares: %s\n", strings.Join(pool.Spares(), ", "))
		}
	}
	res, err := pl.ExecuteRun(db, opts)
	if err != nil {
		return err
	}
	fmt.Printf("executed: %s in %d rounds\n", pl.Engine, res.Stats.NumRounds())
	if res.Replacements > 0 {
		fmt.Printf("recovered: %d worker(s) replaced mid-query\n", res.Replacements)
	}
	fmt.Printf("answers: %d / %d ground truth\n", res.Run.Len(), len(truth))
	fmt.Printf("max load: %d tuples (predicted %.0f), total %d bits (cap exceeded: %v)\n",
		res.Stats.MaxLoadTuples(), pl.Cost.LoadTuples, res.Stats.TotalBits(), res.CapExceeded)
	fmt.Printf("replication: %.2fx input\n", res.Stats.Replication(db.InputBits()))
	printAnswers(q.Vars(), res.Run, show)
	return nil
}

// applyPlanOverride parses the -plan flag: semicolon-separated
// key=value pairs, keys "engine" (one|multi|skew) and "shares"
// (comma-separated var:dim). Shares imply the one-round engine.
func applyPlanOverride(pl *plan.Plan, s string) (*plan.Plan, error) {
	engine := ""
	var shares *hypercube.Shares
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.Index(part, "=")
		if eq <= 0 {
			return nil, fmt.Errorf("bad -plan entry %q (want key=value)", part)
		}
		key, val := strings.TrimSpace(part[:eq]), strings.TrimSpace(part[eq+1:])
		switch key {
		case "engine":
			engine = val
		case "shares":
			parsed, err := parseShares(val)
			if err != nil {
				return nil, err
			}
			shares = parsed
		default:
			return nil, fmt.Errorf("unknown -plan key %q (want engine or shares)", key)
		}
	}
	if shares != nil {
		if engine != "" && engine != "one" {
			return nil, fmt.Errorf("-plan shares imply engine=one, got engine=%s", engine)
		}
		return pl.WithShares(shares)
	}
	switch engine {
	case "one":
		return pl.WithEngine(plan.OneRound)
	case "multi":
		return pl.WithEngine(plan.MultiRound)
	case "skew":
		return pl.WithEngine(plan.SkewJoin)
	case "":
		return nil, fmt.Errorf("-plan needs engine= or shares=")
	default:
		return nil, fmt.Errorf("unknown engine %q (want one, multi or skew)", engine)
	}
}

// parseShares reads "x:4,y:4,z:2" into a share vector.
func parseShares(s string) (*hypercube.Shares, error) {
	out := &hypercube.Shares{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		colon := strings.Index(pair, ":")
		if colon <= 0 || colon == len(pair)-1 {
			return nil, fmt.Errorf("bad share %q (want var:dim)", pair)
		}
		d, err := strconv.Atoi(pair[colon+1:])
		if err != nil || d < 1 {
			return nil, fmt.Errorf("bad share dimension in %q", pair)
		}
		out.Vars = append(out.Vars, pair[:colon])
		out.Dims = append(out.Dims, d)
	}
	if len(out.Vars) == 0 {
		return nil, fmt.Errorf("empty shares")
	}
	return out, nil
}

func printAnswers(vars []string, answers *relation.Run, show int) {
	if show <= 0 {
		return
	}
	fmt.Printf("sample answers over (%s):\n", strings.Join(vars, ","))
	n := answers.Len()
	for i := 0; i < min(show, n); i++ {
		fmt.Printf("  %v\n", answers.Row(i, make(relation.Tuple, answers.Arity())))
	}
	if n > show {
		fmt.Printf("  … %d more\n", n-show)
	}
}

// relSpec is what -data must supply for one relation: its name and the
// schema its columns take (so its arity).
type relSpec struct {
	name  string
	attrs []string
}

// loadDatabase reads 'Rel=file.csv' pairs, one CSV per spec, over the
// domain of the largest value read.
func loadDatabase(specs []relSpec, dataStr string) (*relation.Database, error) {
	files := map[string]string{}
	for _, pair := range strings.Split(dataStr, ",") {
		eq := strings.Index(pair, "=")
		if eq <= 0 || eq == len(pair)-1 {
			return nil, fmt.Errorf("bad -data entry %q (want Rel=file.csv)", pair)
		}
		files[strings.TrimSpace(pair[:eq])] = strings.TrimSpace(pair[eq+1:])
	}
	var rels []*relation.Relation
	for _, spec := range specs {
		path, ok := files[spec.name]
		if !ok {
			return nil, fmt.Errorf("-data missing relation %s", spec.name)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rel, err := relation.ReadCSV(text, spec.name)
		if err != nil {
			return nil, err
		}
		if rel.Arity() != len(spec.attrs) {
			return nil, fmt.Errorf("relation %s from %s has arity %d, need %d",
				spec.name, path, rel.Arity(), len(spec.attrs))
		}
		rel.Attrs = append([]string(nil), spec.attrs...)
		rels = append(rels, rel)
	}
	return relation.DatabaseOf(rels...), nil
}

// runDatalog evaluates a Datalog program: EDB relations from -data
// CSVs or generated uniform over [n], rule bodies through the planner,
// recursive strata semi-naive over warm maintainers.
func runDatalog(src string, n, p int, eps *big.Rat, seed uint64, capC float64, show int, dataStr string, addrs []string) error {
	prog, err := datalog.Parse(src)
	if err != nil {
		return err
	}
	db, err := datalogDB(prog, n, seed, dataStr)
	if err != nil {
		return err
	}
	fmt.Printf("program:\n%s%s", prog, prog.Describe())
	fmt.Printf("n = %d, p = %d, input = %d bits\n", db.N, p, db.InputBits())

	opts := datalog.Options{P: p, Epsilon: eps, CapConstant: capC, Seed: seed}
	if len(addrs) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		opts.Context = ctx
		pool := dist.NewRegistry(addrs, nil)
		opts.Dial = func(int) (dist.Transport, error) {
			tr, _, err := pool.Session(ctx)
			if err != nil {
				return nil, err
			}
			return tr, nil
		}
		fmt.Printf("distributed: %d TCP workers (%s)\n", len(addrs), strings.Join(addrs, ", "))
	}
	res, err := datalog.Eval(prog, db, opts)
	if err != nil {
		return err
	}
	fmt.Printf("evaluated: %d communication rounds, %d fixpoint iterations\n", res.Stats.NumRounds(), res.Iterations)
	fmt.Printf("answers (%s): %d facts\n", prog.OutputPred(), res.Run.Len())
	fmt.Printf("max load: %d tuples, total %d bits (cap exceeded: %v)\n",
		res.Stats.MaxLoadTuples(), res.Stats.TotalBits(), res.CapExceeded)
	printAnswers(res.Vars, res.Run, show)
	return nil
}

// datalogDB builds the EDB database: CSVs from -data, or n uniform
// tuples per EDB relation over [n].
func datalogDB(prog *datalog.Program, n int, seed uint64, dataStr string) (*relation.Database, error) {
	edb := prog.EDBPreds()
	specs := make([]relSpec, len(edb))
	for i, pred := range edb {
		specs[i] = relSpec{pred, prog.Schema(pred)}
	}
	if dataStr != "" {
		return loadDatabase(specs, dataStr)
	}
	rng := rand.New(rand.NewPCG(seed, 0xdb))
	db := relation.NewDatabase(n)
	for _, spec := range specs {
		rel := relation.New(spec.name, spec.attrs...)
		rel.Tuples = make([]relation.Tuple, n)
		for i := range rel.Tuples {
			t := make(relation.Tuple, len(spec.attrs))
			for j := range t {
				t[j] = rng.IntN(n) + 1
			}
			rel.Tuples[i] = t
		}
		db.AddRelation(rel)
	}
	return db, nil
}
