package datalog

import (
	"context"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/trace"
)

// Options configures Eval.
type Options struct {
	// P is the number of servers. Required, ≥ 1.
	P int
	// Epsilon is the MPC(ε) space exponent handed to the planner for
	// every rule body; nil lets each body use its own one-round
	// exponent 1 − 1/τ*.
	Epsilon *big.Rat
	// CapConstant enables receive-budget enforcement when positive.
	CapConstant float64
	// Seed drives every hash function of the run.
	Seed uint64
	// Dial returns the transport one execution runs on: one per
	// rule-body plan execution, one per recursive-rule distribution, each
	// closed when its execution is done. A session may outlive the
	// execution — a dist.Registry parks it, reset, for the next one — but
	// carries one at a time. nil runs everything on in-process loopback
	// pools.
	Dial func(p int) (dist.Transport, error)
	// Plan returns the plan of the program's rule i (its index in
	// Program.Rules), calling build — which plans the rule over this
	// evaluation's statistics — when it has none; nil plans every rule
	// afresh. What build returns is a function of the program, the
	// database and P, Epsilon and CapConstant, so a service can keep a
	// program's plans the way it keeps a query's.
	Plan func(rule int, build func() (*plan.Plan, error)) (*plan.Plan, error)
	// Context bounds distributed executions; nil selects
	// context.Background().
	Context context.Context
	// Recovery is the self-healing policy of every execution the
	// program opens (rule bodies and recursive-rule distributions alike):
	// with Enabled set, a worker that dies mid-fixpoint is replaced and
	// replayed instead of failing the program.
	Recovery dist.RecoveryOptions
	// Trace, when non-nil, records the round and worker spans of every
	// execution the program opens, in execution order; span round
	// numbers restart with each execution.
	Trace *trace.Trace
	// MaxIterations bounds the fixpoint loop of each recursive stratum;
	// ≤ 0 means no bound (the loop terminates anyway: the domain is
	// finite and every iteration adds facts).
	MaxIterations int
	// AnswerLimit is how many of the output predicate's facts reach the
	// coordinator when a recursive stratum derives them and no later
	// stratum reads them: 0 all of them, k > 0 the first k, a negative
	// limit none. Result.Count counts them either way. It mirrors
	// plan.ExecOptions.AnswerLimit; every other predicate is gathered
	// whole.
	AnswerLimit int
}

// Result reports a Datalog evaluation.
type Result struct {
	// Answers is the output predicate's fact set, in head-term order, as
	// one sealed, deduplicated run (nil when empty) — its first
	// Options.AnswerLimit facts when the limit applies.
	Answers *relation.Run
	// Count is the number of the output predicate's facts, gathered or
	// not.
	Count int
	// Vars labels the answer columns: the goal's variables when a goal
	// was declared, otherwise the output predicate's head terms
	// rendered as written ("x", "count(y)").
	Vars []string
	// Facts holds every IDB predicate's derived fact set as one sealed
	// run (nil when empty); the output predicate's is Answers.
	Facts map[string]*relation.Run
	// Iterations is the total number of semi-naive delta iterations
	// across all recursive strata (0 for a non-recursive program).
	Iterations int
	// Outcome sums up every execution the program ran. Its Stats
	// concatenates their round records — rule bodies in stratum order,
	// then each recursive rule's rounds — so two transports that execute
	// the same program produce identical records; a broken budget or a
	// replacement in any execution is the program's. Gathered is the rows
	// the output predicate's gathers shipped.
	dist.Outcome
}

// Eval runs the program over db on the simulated MPC(ε) cluster. The
// database must hold exactly the EDB predicates (IDB predicates are
// derived and may not be pre-populated). Each rule body is planned and
// executed as a conjunctive query through internal/plan; recursive
// strata run a semi-naive fixpoint whose state lives on the workers:
// each recursive rule holds a warm grid distribution, and every delta
// iteration relays what the workers derived to the grid points that keep
// it, where only what is new stays and is joined next — so iteration cost
// is routing the derivations, not a rescatter, and the coordinator merges
// no closure. A program's round count grows with its data; over TCP each
// round is one exchange per worker (dist.Open's fused schedule).
func Eval(prog *Program, db *relation.Database, opts Options) (*Result, error) {
	if opts.P < 1 {
		return nil, fmt.Errorf("datalog: p = %d, need ≥ 1", opts.P)
	}
	for _, pred := range prog.EDBPreds() {
		rel, ok := db.Relation(pred)
		if !ok {
			return nil, fmt.Errorf("datalog: database missing EDB relation %s", pred)
		}
		want, _ := prog.Arity(pred)
		if rel.Arity() != want {
			return nil, fmt.Errorf("datalog: relation %s has arity %d, program uses it with arity %d", pred, rel.Arity(), want)
		}
	}
	for _, pred := range prog.IDBPreds() {
		if _, ok := db.Relation(pred); ok {
			return nil, fmt.Errorf("datalog: relation %s is derived by a rule but present in the database", pred)
		}
	}

	e := &evaluator{
		prog: prog, opts: opts,
		facts: make(map[string]*relation.Run),
		stats: make(map[string]*relation.RelationStats),
		sum:   dist.Outcome{Stats: &mpc.Stats{}},
	}
	// The working database: shared EDB relations plus the IDB
	// relations as strata complete.
	e.wdb = relation.NewDatabase(db.N)
	for _, pred := range prog.EDBPreds() {
		rel, _ := db.Relation(pred)
		e.wdb.AddRelation(rel)
	}

	for _, s := range prog.Strata() {
		var err error
		if s.Recursive {
			err = e.evalRecursive(s)
		} else {
			err = e.evalStratum(s)
		}
		if err != nil {
			return nil, err
		}
	}

	out := prog.OutputPred()
	return &Result{
		Answers:    e.facts[out],
		Count:      e.count,
		Vars:       prog.outputVars(),
		Facts:      e.facts,
		Iterations: e.iterations,
		Outcome:    e.sum,
	}, nil
}

// outputVars labels the output columns.
func (p *Program) outputVars() []string {
	if p.Goal != nil {
		return p.Goal.Vars
	}
	out := p.OutputPred()
	for i := range p.Rules {
		if p.Rules[i].Head.Pred != out {
			continue
		}
		vars := make([]string, len(p.Rules[i].Head.Terms))
		for j, t := range p.Rules[i].Head.Terms {
			vars[j] = t.String()
		}
		return vars
	}
	return nil
}

type evaluator struct {
	prog *Program
	opts Options
	wdb  *relation.Database
	// facts maps IDB pred → its fact set, one sealed run.
	facts map[string]*relation.Run
	// stats memoizes the column statistics of the working database's
	// relations for this evaluation; install drops a replaced
	// relation's entry.
	stats map[string]*relation.RelationStats

	iterations int
	// count is the output predicate's fact count.
	count int
	// sum accumulates the executions' outcomes into the program's.
	sum dist.Outcome
}

// execution returns the options of one execution: the program's seed,
// cap constant, context, recovery policy and trace, on a transport
// dialed for it (nil = the engine's own loopback), which the caller
// closes.
func (e *evaluator) execution() (dist.Options, error) {
	opts := dist.Options{Seed: e.opts.Seed, CapConstant: e.opts.CapConstant, Context: e.opts.Context, Recovery: e.opts.Recovery, Trace: e.opts.Trace}
	if e.opts.Dial == nil {
		return opts, nil
	}
	var err error
	opts.Transport, err = e.opts.Dial(e.opts.P)
	return opts, err
}

// BodyQuery compiles the rule body into a conjunctive query named
// after the head predicate — the unit the planner costs and executes.
func (r *Rule) BodyQuery() (*query.Query, error) {
	return query.New(r.Head.Pred, r.Body...)
}

// Plan is the one way from a rule to what executes it: the body query
// planned over stats, with an aggregate head folded over the gathered
// answer.
// The planned query is the result's Query field.
func (r *Rule) Plan(stats *relation.Stats, opts plan.Options) (*plan.Plan, error) {
	q, err := r.BodyQuery()
	if err != nil {
		return nil, err
	}
	pl, err := plan.Build(q, stats, opts)
	if err != nil || !r.HasAggregate() {
		return pl, err
	}
	// The fold's spec, relative to the body query's variable order:
	// group columns are the plain head terms, aggregate columns the
	// aggregate terms, both in head order (analysis guarantees groups
	// precede aggregates, so the fold's output order is the head order).
	var spec relation.GroupSpec
	for _, t := range r.Head.Terms {
		if t.Agg != 0 {
			spec.Aggs = append(spec.Aggs, relation.Aggregate{Func: t.Agg, Col: q.VarIndex(t.Var)})
		} else {
			spec.GroupBy = append(spec.GroupBy, q.VarIndex(t.Var))
		}
	}
	return pl.WithAggregate(spec)
}

// headPositions maps each head term to its column in the body query's
// Vars() order.
func headPositions(r *Rule, q *query.Query) []int {
	pos := make([]int, len(r.Head.Terms))
	for i, t := range r.Head.Terms {
		pos[i] = q.VarIndex(t.Var)
	}
	return pos
}

// catalog returns the planner statistics for one rule body: full
// column statistics for the body's relations, collected once per
// relation and evaluation, and cardinalities alone for the rest of the
// working database — the planner reads distributions only for the
// query's atoms, but its budget and heavy-hitter threshold are
// fractions of the database-wide tuple count.
func (e *evaluator) catalog(r *Rule) *relation.Stats {
	cat := &relation.Stats{Relations: make(map[string]*relation.RelationStats, len(e.wdb.Relations))}
	for name, rel := range e.wdb.Relations {
		cat.Relations[name] = &relation.RelationStats{Name: name, Count: rel.Size(), Attrs: rel.Attrs}
	}
	for _, a := range r.Body {
		rs := e.stats[a.Name]
		if rel, ok := e.wdb.Relation(a.Name); ok && rs == nil {
			rs = relation.CollectRelationStats(rel)
			e.stats[a.Name] = rs
		}
		if rs != nil {
			cat.Relations[a.Name] = rs
		}
	}
	return cat
}

// record accumulates one execution's outcome.
func (e *evaluator) record(o dist.Outcome) {
	e.sum.Stats.Rounds = append(e.sum.Stats.Rounds, o.Stats.Rounds...)
	e.sum.CapExceeded = e.sum.CapExceeded || o.CapExceeded
	e.sum.Replacements += o.Replacements
}

// evalRule plans and executes the program's rule ri — a non-recursive
// rule body — end to end and returns the head facts (projected, or
// aggregate-folded) as one sealed run, and the rows its gather shipped.
func (e *evaluator) evalRule(ri int) (*relation.Run, int, error) {
	r := &e.prog.Rules[ri]
	build := func() (*plan.Plan, error) {
		return r.Plan(e.catalog(r), plan.Options{
			P: e.opts.P, Epsilon: e.opts.Epsilon, CapFactor: e.opts.CapConstant,
		})
	}
	var pl *plan.Plan
	var err error
	if e.opts.Plan != nil {
		pl, err = e.opts.Plan(ri, build)
	} else {
		pl, err = build()
	}
	if err != nil {
		return nil, 0, fmt.Errorf("datalog: rule for %s: %w", r.Head.Pred, err)
	}
	q := pl.Query
	opts, err := e.execution()
	if err != nil {
		return nil, 0, err
	}
	res, err := pl.ExecuteRun(e.wdb, opts)
	if opts.Transport != nil {
		opts.Transport.Close()
	}
	if err != nil {
		return nil, 0, fmt.Errorf("datalog: rule for %s: %w", r.Head.Pred, err)
	}
	e.record(res.Outcome)
	pos := headPositions(r, q)
	if r.HasAggregate() || slices.Equal(pos, identity(q.NumVars())) {
		// Already the head's rows: one per group in head order, or the
		// body's own, sealed and deduplicated.
		return res.Run, res.Gathered, nil
	}
	return relation.Project(res.Run, pos), res.Gathered, nil
}

// identity returns the positions 0 … n−1.
func identity(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// install publishes a completed predicate's fact run into the working
// database and the result.
func (e *evaluator) install(pred string, run *relation.Run) {
	e.facts[pred] = run
	delete(e.stats, pred)
	e.wdb.AddRelation(relation.FromRun(pred, e.prog.Schema(pred), run))
}

// evalStratum evaluates a non-recursive stratum: the union of its
// rules' head facts (a single predicate — non-recursive SCCs are
// singletons).
func (e *evaluator) evalStratum(s Stratum) error {
	heads := make([]*relation.Run, 0, len(s.Rules))
	gathered := 0
	for _, ri := range s.Rules {
		head, n, err := e.evalRule(ri)
		if err != nil {
			return err
		}
		heads, gathered = append(heads, head), gathered+n
	}
	facts := relation.Merge(heads)
	e.install(s.Preds[0], facts)
	if s.Preds[0] == e.prog.OutputPred() {
		e.count, e.sum.Gathered = facts.Len(), gathered
	}
	return nil
}

// evalRecursive runs the semi-naive fixpoint of one recursive stratum.
// Base rules (no stratum predicate in the body) seed it; each recursive
// rule holds a grid distribution whose cold run joins the seeds. Each
// (distribution, atom) of the stratum that reads a predicate keeps that
// predicate's facts its grid routes to each worker — the closure lives
// there, partitioned, and nowhere else. An iteration is one round per
// distribution: the pieces the last one's workers derived are relayed to
// the workers that keep them, each receiver keeps only what its store
// lacks — exact, because every copy of a fact is routed alike — and joins
// that as the next Δ, and its workers route what that derived. The loop
// ends when nothing was derived; each predicate is then gathered from the
// canonical cells of one routing that keeps all of it.
func (e *evaluator) evalRecursive(s Stratum) error {
	inStratum := make(map[string]bool, len(s.Preds))
	for _, pred := range s.Preds {
		inStratum[pred] = true
	}
	var baseRules []int
	var recRules []*Rule
	for _, ri := range s.Rules {
		r := &e.prog.Rules[ri]
		rec := false
		for _, a := range r.Body {
			if inStratum[a.Name] {
				rec = true
				break
			}
		}
		if rec {
			recRules = append(recRules, r)
		} else {
			baseRules = append(baseRules, ri)
		}
	}
	if len(recRules) == 0 {
		// Tarjan flagged a self-loop that body scanning missed — cannot
		// happen; guard anyway.
		return fmt.Errorf("datalog: stratum %v marked recursive but has no recursive rule", s.Preds)
	}

	// Seed: base-rule facts become the initial stores the distributions
	// scatter. Predicates with no base rule start empty.
	seeds := make(map[string][]*relation.Run, len(s.Preds))
	for _, ri := range baseRules {
		head, _, err := e.evalRule(ri)
		if err != nil {
			return err
		}
		pred := e.prog.Rules[ri].Head.Pred
		seeds[pred] = append(seeds[pred], head)
	}
	seed := make(map[string]*relation.Run, len(s.Preds))
	for _, pred := range s.Preds {
		seed[pred] = relation.Merge(seeds[pred])
		e.install(pred, seed[pred])
	}

	// One held grid distribution per recursive rule; its cold run already
	// joins the seeds and leaves the iteration-zero derivations on its
	// workers.
	type exec struct {
		rule *Rule
		d    *hypercube.Distribution
		pos  []int
	}
	xs := make([]exec, 0, len(recRules))
	defer func() {
		for _, x := range xs {
			x.d.Close()
		}
	}()
	for _, r := range recRules {
		q, err := r.BodyQuery()
		if err != nil {
			return fmt.Errorf("datalog: rule for %s: %w", r.Head.Pred, err)
		}
		var epsF float64
		if e.opts.Epsilon != nil {
			epsF, _ = e.opts.Epsilon.Float64()
		} else {
			cr, err := cover.Solve(q)
			if err != nil {
				return fmt.Errorf("datalog: rule for %s: %w", r.Head.Pred, err)
			}
			epsF = cr.SpaceExponentFloat()
		}
		// Nothing that can fail without the network sits between the dial
		// and the distribution that takes ownership of the session.
		opts, err := e.execution()
		if err != nil {
			return err
		}
		opts.Epsilon = epsF
		d, err := hypercube.Hold(q, e.wdb, e.opts.P, opts)
		if err != nil {
			if opts.Transport != nil {
				opts.Transport.Close()
			}
			return fmt.Errorf("datalog: rule for %s: %w", r.Head.Pred, err)
		}
		xs = append(xs, exec{rule: r, d: d, pos: headPositions(r, q)})
	}

	// Where each predicate's facts are kept: every (distribution, atom)
	// of the stratum that reads it, through that atom's grid. A
	// predicate no atom keeps whole — every reading atom repeats a
	// variable on a dimension of several points, so its grid drops the
	// facts whose values hash apart — gets a store of its own on the
	// first distribution, hashed on its first column and seeded like the
	// others; the answer is gathered from it.
	type keeper struct {
		x     int
		store string
		grid  *exchange.Grid
	}
	keepers := make(map[string][]keeper, len(s.Preds))
	for i, x := range xs {
		for _, a := range x.rule.Body {
			if inStratum[a.Name] {
				keepers[a.Name] = append(keepers[a.Name], keeper{i, a.Name, x.d.Grid(a.Name)})
			}
		}
	}
	inbox := make([]map[string][]dist.Piece, len(xs))
	post := func(pred string, pieces []dist.Piece) {
		for _, pc := range pieces {
			k := keepers[pred][pc.Target]
			if inbox[k.x] == nil {
				inbox[k.x] = make(map[string][]dist.Piece)
			}
			inbox[k.x][k.store] = append(inbox[k.x][k.store], pc)
		}
	}
	whole := make(map[string]keeper, len(s.Preds))
	for _, pred := range s.Preds {
		for _, k := range keepers[pred] {
			if k.grid.Total() {
				whole[pred] = k
				break
			}
		}
		if _, ok := whole[pred]; ok {
			continue
		}
		grid, err := exchange.NewGrid([]int{e.opts.P}, []uint64{exchange.Mix(1, e.opts.Seed)}, []exchange.GridBind{{Pos: 0, Dim: 0}})
		if err != nil {
			return err
		}
		k := keeper{0, "keep!" + pred, grid}
		whole[pred] = k
		keepers[pred] = append(keepers[pred], k)
		ds, err := exchange.PartitionRun(k.store, seed[pred], e.opts.P, grid)
		if err != nil {
			return err
		}
		seeded := make([]dist.Piece, len(ds))
		for j, d := range ds {
			seeded[j] = dist.Piece{From: -1, Target: len(keepers[pred]) - 1, To: d.To, Buf: d.Buf}
		}
		post(pred, seeded)
	}
	grids := make(map[string][]*exchange.Grid, len(s.Preds))
	for _, pred := range s.Preds {
		for _, k := range keepers[pred] {
			grids[pred] = append(grids[pred], k.grid)
		}
	}
	route := func(x exec) error {
		pieces, err := x.d.Route(x.pos, grids[x.rule.Head.Pred])
		if err != nil {
			return fmt.Errorf("datalog: rule for %s: %w", x.rule.Head.Pred, err)
		}
		post(x.rule.Head.Pred, pieces)
		return nil
	}
	for _, x := range xs {
		if err := route(x); err != nil {
			return err
		}
	}

	// The fixpoint loop: every iteration each distribution absorbs what
	// was routed to it last, joins what was new and routes what that
	// derived — one exchange per distribution, none of it merged here.
	for iter := 1; slices.ContainsFunc(inbox, func(box map[string][]dist.Piece) bool { return len(box) > 0 }); iter++ {
		e.iterations++
		if e.opts.MaxIterations > 0 && iter > e.opts.MaxIterations {
			return fmt.Errorf("datalog: stratum %v exceeded %d fixpoint iterations", s.Preds, e.opts.MaxIterations)
		}
		boxes := inbox
		inbox = make([]map[string][]dist.Piece, len(xs))
		for i, x := range xs {
			if len(boxes[i]) == 0 {
				continue
			}
			if err := x.d.Absorb(boxes[i]); err != nil {
				return fmt.Errorf("datalog: rule for %s: %w", x.rule.Head.Pred, err)
			}
			if err := route(x); err != nil {
				return err
			}
		}
	}

	// The answer: each predicate from the canonical cells of a routing
	// that keeps all of it — the output, when nothing later reads it, only
	// as far as the answer limit.
	for _, pred := range s.Preds {
		k, limit := whole[pred], 0
		out := pred == e.prog.OutputPred()
		if out && !e.readLater(s, pred) {
			limit = e.opts.AnswerLimit
		}
		facts, count, err := xs[k.x].d.Closure(k.store, k.grid, limit)
		if err != nil {
			return fmt.Errorf("datalog: closure of %s: %w", pred, err)
		}
		e.install(pred, facts)
		if out {
			e.count, e.sum.Gathered = count, xs[k.x].d.Outcome().Gathered
		}
	}
	for _, x := range xs {
		e.record(x.d.Outcome())
	}
	return nil
}

// readLater reports whether a rule outside stratum s reads pred.
func (e *evaluator) readLater(s Stratum, pred string) bool {
	for ri := range e.prog.Rules {
		if slices.Contains(s.Rules, ri) {
			continue
		}
		for _, a := range e.prog.Rules[ri].Body {
			if a.Name == pred {
				return true
			}
		}
	}
	return false
}
