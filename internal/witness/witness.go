// Package witness reproduces Proposition 3.12 of Beame, Koutris,
// Suciu (PODS 2013): the JOIN-WITNESS problem for
//
//	q(w,x,y,z) = R(w), S1(w,x), S2(x,y), S3(y,z), T(z)
//
// where S1, S2, S3 are 2-dimensional matchings and R, T are uniform
// random subsets of [n] of size √n. The expected number of answers is
// 1, and the proposition shows no one-round MPC(ε) algorithm with
// ε < 1/2 can produce a witness except with polynomially small
// probability: the unary relations are broadcast for free, but the
// chain subquery q' = S1,S2,S3 has τ* = 2, so any server knows only a
// O(1/p^{2(1−ε)}) expected fraction of its n answers.
//
// The one round runs on the same cluster as every query engine
// (dist.Cluster, on its in-process loopback): scatter, local join of
// the full query at every server, gather.
package witness

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/localjoin"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
)

// ChainSubquery returns q' = S1(w,x), S2(x,y), S3(y,z), the binary
// part of the witness query.
func ChainSubquery() *query.Query {
	return query.MustNew("q'",
		query.Atom{Name: "S1", Vars: []string{"w", "x"}},
		query.Atom{Name: "S2", Vars: []string{"x", "y"}},
		query.Atom{Name: "S3", Vars: []string{"y", "z"}},
	)
}

// FullQuery returns the five-atom witness query of Proposition 3.12.
func FullQuery() *query.Query {
	return query.MustNew("qwit",
		query.Atom{Name: "R", Vars: []string{"w"}},
		query.Atom{Name: "S1", Vars: []string{"w", "x"}},
		query.Atom{Name: "S2", Vars: []string{"x", "y"}},
		query.Atom{Name: "S3", Vars: []string{"y", "z"}},
		query.Atom{Name: "T", Vars: []string{"z"}},
	)
}

// Input is one sampled instance of the Proposition 3.12 family.
type Input struct {
	// DB holds S1, S2, S3 (matchings) and R, T (√n-subsets).
	DB *relation.Database
	// N is the domain size.
	N int
}

// Generate draws an instance: three independent matchings and two
// independent √n-subsets of [n].
func Generate(rng *rand.Rand, n int) (*Input, error) {
	if n < 4 {
		return nil, fmt.Errorf("witness: n = %d too small", n)
	}
	db := relation.NewDatabase(n)
	db.AddRelation(relation.Matching(rng, "S1", []string{"w", "x"}, n))
	db.AddRelation(relation.Matching(rng, "S2", []string{"x", "y"}, n))
	db.AddRelation(relation.Matching(rng, "S3", []string{"y", "z"}, n))
	size := int(math.Round(math.Sqrt(float64(n))))
	db.AddRelation(randomSubset(rng, "R", "w", n, size))
	db.AddRelation(randomSubset(rng, "T", "z", n, size))
	return &Input{DB: db, N: n}, nil
}

func randomSubset(rng *rand.Rand, name, attr string, n, size int) *relation.Relation {
	r := relation.New(name, attr)
	perm := rng.Perm(n)
	for i := 0; i < size && i < n; i++ {
		r.MustAdd(relation.Tuple{perm[i] + 1})
	}
	return r
}

// TrueWitnesses evaluates the full query sequentially and returns all
// answers (the ground truth; its expected cardinality is 1).
func TrueWitnesses(in *Input) ([]relation.Tuple, error) {
	q := FullQuery()
	b, err := localjoin.FromDatabase(q, in.DB)
	if err != nil {
		return nil, err
	}
	return localjoin.Evaluate(q, b, localjoin.HashJoin)
}

// Result reports a one-round witness attempt.
type Result struct {
	// Witnesses are the full answers some server could assemble.
	Witnesses []relation.Tuple
	// TrueCount is the number of answers that exist in the instance.
	TrueCount int
	// Found reports whether a witness was produced despite one round.
	Found bool
	// Stats is the engine's communication record.
	Stats *mpc.Stats
}

// RunOneRound executes the natural one-round algorithm at space
// exponent eps: R and T are broadcast (they are tiny — O(√n·log n)
// bits), and the chain q' is HyperCube-sharded with exponents
// (1−ε)·v_i onto p sampled grid points (the Prop 3.11 algorithm).
// Every server then assembles any full witness it can see. For
// ε < 1/2 the success probability vanishes polynomially in p.
func RunOneRound(in *Input, p int, eps float64, seed uint64) (*Result, error) {
	chain := ChainSubquery()
	cr, err := cover.Solve(chain)
	if err != nil {
		return nil, err
	}
	exps := make([]float64, chain.NumVars())
	for i, v := range cr.VertexCover {
		f, _ := v.Float64()
		exps[i] = (1 - eps) * f
	}
	shares, err := hypercube.ComputeShares(chain.Vars(), exps, p, hypercube.GreedyRounding)
	if err != nil {
		return nil, err
	}
	cluster, ctx, err := dist.Open(dist.Options{}, mpc.Config{
		Workers:   p,
		Epsilon:   eps,
		InputBits: in.DB.InputBits(),
		DomainN:   in.N,
	})
	if err != nil {
		return nil, err
	}
	hasher := hypercube.NewHasher(shares, seed)
	// Sample p grid points if the virtual grid exceeds p.
	grid := shares.GridSize()
	rng := rand.New(rand.NewPCG(seed, 0x717))
	sample := make(map[int]int, p)
	if grid <= p {
		for g := 0; g < grid; g++ {
			sample[g] = g
		}
	} else {
		perm := rng.Perm(grid)
		for srv := 0; srv < p; srv++ {
			sample[perm[srv]] = srv
		}
	}

	// Round 1: R and T go to every server, each chain atom to the
	// sampled grid points its tuples hash to.
	parts := map[string]exchange.Partitioner{"R": exchange.Broadcast{P: p}, "T": exchange.Broadcast{P: p}}
	for _, a := range chain.Atoms {
		parts[a.Name] = hypercube.NewGridPartitioner(shares, hasher, a).WithSample(sample)
	}
	full := FullQuery()
	cluster.BeginRound()
	for _, a := range full.Atoms {
		rel, ok := in.DB.Relation(a.Name)
		if !ok {
			return nil, fmt.Errorf("witness: missing relation %s", a.Name)
		}
		if err := cluster.Scatter(ctx, rel, "", parts[a.Name]); err != nil {
			return nil, err
		}
	}
	if err := cluster.EndRound(ctx); err != nil {
		return nil, err
	}

	// Each server assembles witnesses from what it received.
	const view = "witnesses"
	if err := cluster.Join(ctx, full, nil, view, 0); err != nil {
		return nil, err
	}
	witnesses, err := cluster.Gather(ctx, view)
	if err != nil {
		return nil, err
	}
	truth, err := TrueWitnesses(in)
	if err != nil {
		return nil, err
	}
	return &Result{
		Witnesses: witnesses.Tuples(),
		TrueCount: len(truth),
		Found:     witnesses.Len() > 0,
		Stats:     cluster.Stats(),
	}, nil
}

// SuccessProbability estimates, over trials instances, the probability
// that the one-round algorithm finds a witness conditioned on one
// existing.
func SuccessProbability(rng *rand.Rand, n, p int, eps float64, trials int) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("witness: trials = %d", trials)
	}
	succ, withWitness := 0, 0
	for trial := 0; trial < trials; trial++ {
		in, err := Generate(rng, n)
		if err != nil {
			return 0, err
		}
		truth, err := TrueWitnesses(in)
		if err != nil {
			return 0, err
		}
		if len(truth) == 0 {
			continue
		}
		withWitness++
		res, err := RunOneRound(in, p, eps, rng.Uint64())
		if err != nil {
			return 0, err
		}
		if res.Found {
			succ++
		}
	}
	if withWitness == 0 {
		return 0, nil
	}
	return float64(succ) / float64(withWitness), nil
}
