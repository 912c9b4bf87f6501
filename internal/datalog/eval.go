package datalog

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/cover"
	"repro/internal/dist"
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
}

// Result reports a Datalog evaluation.
type Result struct {
	// Answers is the output predicate's fact set, in head-term order, as
	// one sealed, deduplicated run (nil when empty).
	Answers *relation.Run
	// Vars labels the answer columns: the goal's variables when a goal
	// was declared, otherwise the output predicate's head terms
	// rendered as written ("x", "count(y)").
	Vars []string
	// Facts holds every IDB predicate's derived fact set as one sealed
	// run (nil when empty).
	Facts map[string]*relation.Run
	// Iterations is the total number of semi-naive delta iterations
	// across all recursive strata (0 for a non-recursive program).
	Iterations int
	// Stats concatenates the round records of every execution the
	// program ran — rule bodies in stratum order, then each recursive
	// rule's maintenance rounds — so two transports that execute the
	// same program produce identical records.
	Stats *mpc.Stats
	// CapExceeded reports whether any worker broke the receive budget
	// in any execution.
	CapExceeded bool
	// Replacements counts workers replaced by recovery across all
	// executions.
	Replacements int
}

// Eval runs the program over db on the simulated MPC(ε) cluster. The
// database must hold exactly the EDB predicates (IDB predicates are
// derived and may not be pre-populated). Each rule body is planned and
// executed as a conjunctive query through internal/plan; recursive
// strata run a semi-naive fixpoint in which every delta iteration is
// an incremental-maintenance batch (hypercube.Distribution.Apply) on a
// warm cluster, so iteration cost is delta routing, not a rescatter. A
// program's round count grows with its data; over TCP each round is one
// exchange per worker (dist.Open's fused schedule).
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
		Answers:      e.facts[out],
		Vars:         prog.outputVars(),
		Facts:        e.facts,
		Iterations:   e.iterations,
		Stats:        &mpc.Stats{Rounds: e.rounds},
		CapExceeded:  e.capSeen,
		Replacements: e.replacements,
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

	iterations   int
	rounds       []mpc.RoundStats
	capSeen      bool
	replacements int
}

// dial returns the transport for one execution (nil = the engine's own
// loopback).
func (e *evaluator) dial() (dist.Transport, error) {
	if e.opts.Dial == nil {
		return nil, nil
	}
	return e.opts.Dial(e.opts.P)
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

// record accumulates one execution's communication record.
func (e *evaluator) record(stats *mpc.Stats, capExceeded bool, replacements int) {
	e.rounds = append(e.rounds, stats.Rounds...)
	e.capSeen = e.capSeen || capExceeded
	e.replacements += replacements
}

// evalRule plans and executes the program's rule ri — a non-recursive
// rule body — end to end and returns the head facts (projected, or
// aggregate-folded) as one sealed run.
func (e *evaluator) evalRule(ri int) (*relation.Run, error) {
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
		return nil, fmt.Errorf("datalog: rule for %s: %w", r.Head.Pred, err)
	}
	q := pl.Query
	tr, err := e.dial()
	if err != nil {
		return nil, err
	}
	res, err := pl.ExecuteRun(e.wdb, plan.ExecOptions{
		Seed:        e.opts.Seed,
		CapConstant: e.opts.CapConstant,
		Transport:   tr,
		Context:     e.opts.Context,
		Recovery:    e.opts.Recovery,
		Trace:       e.opts.Trace,
	})
	if tr != nil {
		tr.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("datalog: rule for %s: %w", r.Head.Pred, err)
	}
	e.record(res.Stats, res.CapExceeded, res.Replacements)
	if r.HasAggregate() {
		// Already one row per group, in head order.
		return res.Run, nil
	}
	return relation.Project(res.Run, headPositions(r, q)), nil
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
	for _, ri := range s.Rules {
		head, err := e.evalRule(ri)
		if err != nil {
			return err
		}
		heads = append(heads, head)
	}
	e.install(s.Preds[0], relation.Merge(heads))
	return nil
}

// evalRecursive runs the semi-naive fixpoint of one recursive
// stratum. Base rules (no stratum predicate in the body) seed the
// iteration; each recursive rule becomes a warm grid distribution whose
// cold run is iteration zero, and each subsequent iteration feeds the
// per-predicate delta into every distribution reading it as an
// incremental batch — replication-factor routing, answers gathered
// from the delta join only. The coordinator keeps the closure once, in
// known; a rule's body answer is materialized nowhere.
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
	// scatter. Predicates with no base rule start empty. known and
	// delta hold each predicate's facts as one sealed run (nil = none),
	// so an iteration is linear passes over words, not tuples.
	known := make(map[string]*relation.Run, len(s.Preds))
	for _, ri := range baseRules {
		head, err := e.evalRule(ri)
		if err != nil {
			return err
		}
		pred := e.prog.Rules[ri].Head.Pred
		known[pred] = union(known[pred], head)
	}
	for _, pred := range s.Preds {
		e.install(pred, known[pred])
	}

	// One warm grid distribution per recursive rule; its cold run already
	// joins the seeds, so what it returns are the iteration-zero
	// derivations.
	type exec struct {
		rule *Rule
		d    *hypercube.Distribution
		pos  []int
	}
	xs := make([]exec, 0, len(recRules))
	closeAll := func() {
		for _, x := range xs {
			x.d.Close()
		}
	}
	delta := make(map[string]*relation.Run, len(s.Preds))
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
				closeAll()
				return fmt.Errorf("datalog: rule for %s: %w", r.Head.Pred, err)
			}
			epsF = cr.SpaceExponentFloat()
		}
		// Nothing that can fail without the network sits between the dial
		// and the distribution that takes ownership of the session.
		tr, err := e.dial()
		if err != nil {
			closeAll()
			return err
		}
		d, cold, err := hypercube.Distribute(q, e.wdb, e.opts.P, hypercube.Options{
			Epsilon:     epsF,
			CapConstant: e.opts.CapConstant,
			Seed:        e.opts.Seed,
			Transport:   tr,
			Context:     e.opts.Context,
			Recovery:    e.opts.Recovery,
			Trace:       e.opts.Trace,
		})
		if err != nil {
			if tr != nil {
				tr.Close()
			}
			closeAll()
			return fmt.Errorf("datalog: rule for %s: %w", r.Head.Pred, err)
		}
		pos := headPositions(r, q)
		xs = append(xs, exec{rule: r, d: d, pos: pos})
		fresh := relation.Diff(relation.Project(cold, pos), known[r.Head.Pred])
		delta[r.Head.Pred] = union(delta[r.Head.Pred], fresh)
	}
	for pred, d := range delta {
		known[pred] = union(known[pred], d)
	}

	// The fixpoint loop: every iteration hands each rule the Δ runs of
	// the predicates it reads, as they are, in one batch per rule. What
	// the batch gathers is every derivation through a Δ fact, old or new;
	// projected onto the head and diffed against known — the one copy of
	// the closure there is — it is the rule's share of the next Δ.
	for iter := 1; hasFacts(delta); iter++ {
		e.iterations++
		if e.opts.MaxIterations > 0 && iter > e.opts.MaxIterations {
			closeAll()
			return fmt.Errorf("datalog: stratum %v exceeded %d fixpoint iterations", s.Preds, e.opts.MaxIterations)
		}
		next := make(map[string]*relation.Run, len(s.Preds))
		for _, x := range xs {
			added := make(map[string]*relation.Run)
			for _, a := range x.rule.Body {
				if d := delta[a.Name]; d.Len() > 0 {
					added[a.Name] = d
				}
			}
			if len(added) == 0 {
				continue
			}
			gathered, err := x.d.Apply(nil, added)
			if err != nil {
				closeAll()
				return fmt.Errorf("datalog: rule for %s: %w", x.rule.Head.Pred, err)
			}
			fresh := relation.Diff(relation.Project(gathered, x.pos), known[x.rule.Head.Pred])
			next[x.rule.Head.Pred] = union(next[x.rule.Head.Pred], fresh)
		}
		// Deltas are measured against known before this iteration's
		// merge, so two rules deriving the same new fact contribute it
		// once (the union dedups) and nothing re-enters later rounds.
		for pred, d := range next {
			known[pred] = union(known[pred], d)
		}
		delta = next
	}

	for _, x := range xs {
		e.record(x.d.Stats(), x.d.CapExceeded(), x.d.Replacements())
		x.d.Close()
	}
	for _, pred := range s.Preds {
		e.install(pred, known[pred])
	}
	return nil
}

// hasFacts reports whether any delta is nonempty.
func hasFacts(delta map[string]*relation.Run) bool {
	for _, d := range delta {
		if d.Len() > 0 {
			return true
		}
	}
	return false
}

// union merges two sorted, deduplicated runs into one; either may be
// nil or empty, and is then not copied.
func union(a, b *relation.Run) *relation.Run {
	if a.Len() == 0 {
		return b
	}
	if b.Len() == 0 {
		return a
	}
	return relation.Merge([]*relation.Run{a, b})
}
