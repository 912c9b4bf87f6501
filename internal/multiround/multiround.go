// Package multiround implements multi-round query evaluation in the
// MPC(ε) model: the query-plan classes Γ^r_ε of Section 4.1 of Beame,
// Koutris, Suciu (PODS 2013) and an executor that runs a plan round by
// round on the mpc engine, one HyperCube shuffle per operator.
//
// A Plan is a sequence of Steps. Each step partitions the atoms of the
// current query into connected groups, each of which must lie in Γ¹_ε
// (one-round computable: connected with τ* ≤ 1/(1−ε)); the groups are
// evaluated in parallel in a single communication round and replaced
// by view atoms over their variables. After the last step a single
// atom remains — the query's answer.
//
// Build constructs such a plan greedily, growing each group while it
// stays in Γ¹_ε. For chain queries this reproduces the optimal
// ⌈log_{kε} k⌉-round plans of Example 4.2 (L16 at ε = 1/2 in two
// rounds of 4-way joins), and for SP_k the two-round plan.
package multiround

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"

	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/hypercube"
	"repro/internal/localjoin"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
)

// Group is one operator of a step: a connected set of atoms of the
// current query, computed in one round and replaced by the view atom.
type Group struct {
	// View is the name of the resulting view atom.
	View string
	// Atoms lists the names of the grouped atoms of the current query.
	Atoms []string
	// Query is the subquery the group evaluates; its variables become
	// the view's schema. Singleton groups have Query == nil (the
	// relation passes through unchanged and costs no communication).
	Query *query.Query
}

// Step is one communication round: a partition of the current query's
// atoms into groups.
type Step struct {
	Groups []Group
	// Current is the query at the start of the step (over the previous
	// step's views and any remaining base atoms).
	Current *query.Query
}

// Plan is a multi-round query plan.
type Plan struct {
	// Query is the original query.
	Query *query.Query
	// Epsilon is the space exponent the plan was built for.
	Epsilon *big.Rat
	// Steps are the rounds, in execution order.
	Steps []Step
}

// Rounds returns the number of communication rounds the plan uses:
// steps whose groups perform at least one real (multi-atom) join.
func (p *Plan) Rounds() int {
	rounds := 0
	for _, s := range p.Steps {
		for _, g := range s.Groups {
			if len(g.Atoms) > 1 {
				rounds++
				break
			}
		}
	}
	return rounds
}

// String renders the plan for humans.
func (p *Plan) String() string {
	out := fmt.Sprintf("plan for %s (ε = %s, %d rounds)\n", p.Query.Name, p.Epsilon.RatString(), p.Rounds())
	for i, s := range p.Steps {
		out += fmt.Sprintf("  round %d:\n", i+1)
		for _, g := range s.Groups {
			if len(g.Atoms) == 1 {
				out += fmt.Sprintf("    %s := %s (passthrough)\n", g.View, g.Atoms[0])
				continue
			}
			out += fmt.Sprintf("    %s := join(%v)\n", g.View, g.Atoms)
		}
	}
	return out
}

// Build constructs a greedy Γ^r_ε plan for a connected query: each
// step scans the current query's atoms and grows connected groups
// while they remain in Γ¹_ε. It errors if no progress is possible
// (cannot happen for connected queries, since any two atoms sharing a
// variable have τ* = 1).
func Build(q *query.Query, eps *big.Rat) (*Plan, error) {
	if !q.Connected() {
		return nil, fmt.Errorf("multiround: query %s is disconnected", q.Name)
	}
	if eps.Sign() < 0 || eps.Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, fmt.Errorf("multiround: ε = %s outside [0,1)", eps.RatString())
	}
	plan := &Plan{Query: q, Epsilon: new(big.Rat).Set(eps)}
	cur := q
	level := 0
	for cur.NumAtoms() > 1 {
		level++
		groups, next, err := buildStep(cur, eps, level)
		if err != nil {
			return nil, err
		}
		progressed := false
		for _, g := range groups {
			if len(g.Atoms) > 1 {
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("multiround: no Γ¹_ε-computable group of ≥2 atoms in %s", cur.Name)
		}
		plan.Steps = append(plan.Steps, Step{Groups: groups, Current: cur})
		cur = next
	}
	return plan, nil
}

// buildStep partitions cur's atoms into greedy Γ¹_ε groups and returns
// the groups plus the next level's query.
func buildStep(cur *query.Query, eps *big.Rat, level int) ([]Group, *query.Query, error) {
	used := make([]bool, cur.NumAtoms())
	var groups []Group
	var nextAtoms []query.Atom
	for i := 0; i < cur.NumAtoms(); i++ {
		if used[i] {
			continue
		}
		member := []int{i}
		used[i] = true
		// Grow: repeatedly try to add an unused atom sharing a variable
		// with the group, keeping the group in Γ¹_ε.
		for {
			added := false
			for j := 0; j < cur.NumAtoms(); j++ {
				if used[j] || !sharesVariable(cur, member, j) {
					continue
				}
				candidate := append(append([]int(nil), member...), j)
				sort.Ints(candidate)
				sub, err := cur.Subquery("g", candidate)
				if err != nil {
					return nil, nil, err
				}
				ok, err := cover.GammaOne(sub, eps)
				if err != nil {
					return nil, nil, err
				}
				if ok {
					member = candidate
					used[j] = true
					added = true
					break
				}
			}
			if !added {
				break
			}
		}
		view := fmt.Sprintf("V%d_%d", level, len(groups)+1)
		g := Group{View: view}
		for _, ai := range member {
			g.Atoms = append(g.Atoms, cur.Atoms[ai].Name)
		}
		if len(member) > 1 {
			sub, err := cur.Subquery(view, member)
			if err != nil {
				return nil, nil, err
			}
			g.Query = sub
			nextAtoms = append(nextAtoms, query.Atom{Name: view, Vars: sub.Vars()})
		} else {
			// Passthrough: keep the original atom under the view name.
			a := cur.Atoms[member[0]]
			nextAtoms = append(nextAtoms, query.Atom{Name: view, Vars: a.Vars})
		}
		groups = append(groups, g)
	}
	next, err := query.New(fmt.Sprintf("%s@%d", cur.Name, level), nextAtoms...)
	if err != nil {
		return nil, nil, err
	}
	return groups, next, nil
}

func sharesVariable(q *query.Query, member []int, j int) bool {
	vars := make(map[string]bool)
	for _, ai := range member {
		for _, v := range q.Atoms[ai].Vars {
			vars[v] = true
		}
	}
	for _, v := range q.Atoms[j].Vars {
		if vars[v] {
			return true
		}
	}
	return false
}

// Options configures plan execution: the execution options every
// engine takes (see dist.Options). The rounds run at the plan's ε,
// whatever Epsilon says.
type Options = dist.Options

// Execute runs the plan on db with p servers. Each step is one
// communication round: every multi-atom group performs a HyperCube
// shuffle of its input relations (base relations or views gathered
// from the previous round) and its view is materialized from the
// per-worker local joins. Singleton groups pass through without
// communication.
func Execute(plan *Plan, db *relation.Database, p int, opts Options) (*dist.Result, error) {
	epsF, _ := plan.Epsilon.Float64()
	cluster, ctx, err := dist.Open(opts, mpc.Config{
		Workers:     p,
		Epsilon:     epsF,
		InputBits:   db.InputBits(),
		CapConstant: opts.CapConstant,
		DomainN:     db.N,
	})
	if err != nil {
		return nil, err
	}
	// env maps atom name to what the next round scatters under it: a
	// base relation of db, or a view gathered from an earlier round.
	env := make(map[string]source)
	for _, name := range db.Names() {
		r, _ := db.Relation(name)
		env[name] = source{attrs: r.Attrs, rel: r}
	}
	// A single-atom query needs no communication at all.
	if len(plan.Steps) == 0 {
		base, ok := env[plan.Query.Atoms[0].Name]
		if !ok {
			return nil, fmt.Errorf("multiround: no relation for atom %s", plan.Query.Atoms[0].Name)
		}
		answers, err := localjoin.EvaluateRuns(plan.Query,
			localjoin.Runs{plan.Query.Atoms[0].Name: {base.rel.Run()}})
		if err != nil {
			return nil, err
		}
		return &dist.Result{Run: answers, Count: answers.Len(), Outcome: cluster.Outcome()}, nil
	}
	seedCounter := opts.Seed

	for i, step := range plan.Steps {
		// Map each group's atoms (names in step.Current) to relations.
		type pending struct {
			group  Group
			shares *hypercube.Shares
			hasher *hypercube.Hasher
		}
		var work []pending
		for _, g := range step.Groups {
			if g.Query == nil {
				// Passthrough: rename in env after the round.
				continue
			}
			sharesFor, err := hypercube.SharesForQuery(g.Query, p, hypercube.GreedyRounding)
			if err != nil {
				return nil, err
			}
			seedCounter++
			work = append(work, pending{
				group:  g,
				shares: sharesFor,
				hasher: hypercube.NewHasher(sharesFor, seedCounter),
			})
		}
		if len(work) > 0 {
			cluster.BeginRound()
			for _, w := range work {
				for _, atom := range w.group.Query.Atoms {
					src, ok := env[atom.Name]
					if !ok {
						return nil, fmt.Errorf("multiround: no relation for atom %s", atom.Name)
					}
					// Store under a per-view key: two groups may consume
					// the same base relation in one round.
					as := w.group.View + "/" + atom.Name
					part := hypercube.NewGridPartitioner(w.shares, w.hasher, atom)
					if src.rel != nil {
						err = cluster.Scatter(ctx, src.rel, as, part)
					} else {
						err = cluster.ScatterRun(ctx, src.run, as, part)
					}
					if err != nil {
						return nil, err
					}
				}
			}
			if err := cluster.EndRound(ctx); err != nil && !errors.Is(err, mpc.ErrCapExceeded) {
				return nil, err
			}
			// Local joins: gather each view as one sealed run — the final
			// view, when it needs no re-sorting, only as far as the answer
			// limit.
			for _, w := range work {
				limit := 0
				if i == len(plan.Steps)-1 && slices.Equal(w.group.Query.Vars(), plan.Query.Vars()) {
					limit = opts.AnswerLimit
				}
				run, rows, err := gatherView(ctx, cluster, w.group, limit)
				if err != nil {
					return nil, err
				}
				env[w.group.View] = source{attrs: w.group.Query.Vars(), run: run, rows: rows}
			}
		}
		// Passthrough renames: sources are read-only, so the view shares
		// its atom's data.
		for _, g := range step.Groups {
			if g.Query == nil {
				src, ok := env[g.Atoms[0]]
				if !ok {
					return nil, fmt.Errorf("multiround: no relation for passthrough atom %s", g.Atoms[0])
				}
				env[g.View] = src
			}
		}
	}
	// The final step's query contracts to a single view atom.
	finalView := plan.Steps[len(plan.Steps)-1]
	lastName := finalView.Groups[len(finalView.Groups)-1].View
	if len(finalView.Groups) != 1 {
		return nil, fmt.Errorf("multiround: final step has %d groups, want 1", len(finalView.Groups))
	}
	final, ok := env[lastName]
	if !ok {
		return nil, fmt.Errorf("multiround: final view %s missing", lastName)
	}
	answers, err := reorder(final, plan.Query.Vars())
	if err != nil {
		return nil, err
	}
	return &dist.Result{Run: answers, Count: final.rows, Outcome: cluster.Outcome()}, nil
}

// source is one entry of the executor's environment: the schema of an
// atom plus its data, either a base relation (rel) or a view gathered
// from an earlier round and kept as a sealed run (rel nil; a nil run is
// an empty view) with the rows the view holds — more than the run's when
// the gather was cut short.
type source struct {
	attrs []string
	rel   *relation.Relation
	run   *relation.Run
	rows  int
}

// gatherView joins one group's inputs at the workers and gathers the
// results as one sealed run over the group query's variables, its first
// limit rows only when limit is not 0, and the rows the view holds: the
// workers join concurrently (local computation is free in the model)
// and their sorted outputs k-way merge in the gather. A view is one
// HyperCube round's join, so its workers' outputs are disjoint.
func gatherView(ctx context.Context, cluster *dist.Cluster, g Group, limit int) (*relation.Run, int, error) {
	prefix := g.View + "/"
	bindings := make(map[string]string, len(g.Query.Atoms))
	for _, atom := range g.Query.Atoms {
		bindings[atom.Name] = prefix + atom.Name
	}
	// "!out" keeps the result store out of both the identifier space
	// and the "view/atom" input keys.
	store := g.View + "!out"
	if err := cluster.Join(ctx, g.Query, bindings, store, 0); err != nil {
		return nil, 0, err
	}
	return cluster.GatherPrefix(ctx, store, limit)
}

// reorder returns the final view in the requested variable order (the
// schemas of the final view and the original query contain the same
// variables, possibly ordered differently): the gathered run itself when
// it is already in that order, otherwise its one projection.
func reorder(final source, vars []string) (*relation.Run, error) {
	if final.rel != nil {
		return nil, fmt.Errorf("multiround: final view is the ungathered relation %s", final.rel.Name)
	}
	if slices.Equal(final.attrs, vars) {
		return final.run, nil
	}
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = slices.Index(final.attrs, v)
		if cols[i] < 0 {
			return nil, fmt.Errorf("multiround: final view missing variable %s", v)
		}
	}
	return relation.Project(final.run, cols), nil
}
