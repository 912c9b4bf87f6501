// Package skew studies what the paper deliberately sets aside: data
// skew. The matching databases of Section 2.5 are skew-free by
// construction and the HyperCube upper bounds "hold only on matching
// databases" — on skewed inputs hash partitioning overloads the
// servers owning heavy join values, and dedicated techniques are
// required (the paper points to Koutris & Suciu, PODS 2011).
//
// The package implements the classic two-relation equi-join
// q(x,y,z) = R(x,y) ⋈ S(y,z) under two routing disciplines on the
// MPC(ε) engine:
//
//   - Standard: hash-partition both relations on y — one server per
//     join value; a heavy hitter lands intact on one server.
//   - Resilient: heavy join values get a block of servers proportional
//     to their frequency, the larger side splits across the block and
//     the smaller side broadcasts to it; light values hash as usual.
//     The heavy set comes from counts, not data — the per-column
//     histograms an input server may compute over its own relation
//     before round 1 (Section 2.4). Compile turns the two join-column
//     histograms into an immutable Routing; the planner does so once,
//     at plan.Build, from the catalog's histogram runs, and RunJoin
//     (which holds tuples and no catalog) builds the same histograms
//     from the data first.
//
// On skew-free inputs the two disciplines behave identically (within
// hashing noise); on Zipf inputs the resilient discipline's maximum
// load improves by roughly the heavy hitter's frequency divided by its
// block size.
package skew

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/localjoin"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/trace"
)

// JoinQuery returns q(x,y,z) = R(x,y), S(y,z).
func JoinQuery() *query.Query {
	return query.MustNew("join",
		query.Atom{Name: "R", Vars: []string{"x", "y"}},
		query.Atom{Name: "S", Vars: []string{"y", "z"}},
	)
}

// ZipfJoinInput generates R(x,y) and S(y,z) with n tuples each whose
// join attribute y follows a Zipf(s) distribution over [n] (uniform
// x and z). s = 0 degenerates to uniform.
func ZipfJoinInput(rng *rand.Rand, n int, s float64) (r, sRel *relation.Relation) {
	zr := relation.SkewedZipf(rng, "Ry", []string{"y", "x"}, n, s)
	zs := relation.SkewedZipf(rng, "Sy", []string{"y", "z"}, n, s)
	r = relation.New("R", "x", "y")
	for _, t := range zr.Tuples {
		r.MustAdd(relation.Tuple{t[1], t[0]})
	}
	sRel = relation.New("S", "y", "z")
	for _, t := range zs.Tuples {
		sRel.MustAdd(relation.Tuple{t[0], t[1]})
	}
	return r, sRel
}

// MatchingJoinInput generates skew-free permutation inputs (the
// control condition).
func MatchingJoinInput(rng *rand.Rand, n int) (r, s *relation.Relation) {
	return relation.Matching(rng, "R", []string{"x", "y"}, n),
		relation.Matching(rng, "S", []string{"y", "z"}, n)
}

// HeavyValue is the compiled routing of one heavy join value.
type HeavyValue struct {
	// Value is the join value; CountR and CountS are its frequencies in
	// the two join columns.
	Value, CountR, CountS int
	// First and Size name the value's server block: servers
	// (First+i) mod p for i < Size.
	First, Size int
	// SplitR reports which side splits round-robin over the block (R
	// when set, S otherwise); the other side broadcasts to all of it.
	SplitR bool
}

// Routing is the heavy-hitter routing of one join on P servers,
// compiled from counts alone. It is immutable: a cached plan shares
// one across concurrent executions.
type Routing struct {
	// P is the number of servers; Total is |R|+|S|.
	P, Total int
	// Threshold is the combined frequency above which a value is heavy:
	// factor·Total/P, at least 1.
	Threshold int
	// Heavy lists the heavy values, combined count descending, value
	// ascending — the order blocks are allocated in.
	Heavy []HeavyValue
	// byValue lists positions in Heavy ascending by value, for find.
	byValue []int
}

// Compile builds the routing from the histogram runs (ascending by
// value, see relation.ColumnStats.Hist) of the two join columns, the
// cardinalities nR and nS, p ≥ 1 and the heavy factor (≤ 0 means 1) in
// one linear merge. Answers are correct for any heavy set, because
// both sides route from the same one; the loads are the intended ones
// when the histograms describe the data.
func Compile(histR, histS []relation.ValueCount, nR, nS, p int, factor float64) *Routing {
	if factor <= 0 {
		factor = 1
	}
	rt := &Routing{P: p, Total: nR + nS}
	rt.Threshold = max(1, int(factor*float64(rt.Total)/float64(p)))
	var byValue []HeavyValue // the heavy values as the merge meets them: ascending
	for i, j := 0, 0; i < len(histR) || j < len(histS); {
		var hv HeavyValue
		if j == len(histS) || i < len(histR) && histR[i].Value <= histS[j].Value {
			hv.Value, hv.CountR = histR[i].Value, histR[i].Count
			i++
		} else {
			hv.Value = histS[j].Value
		}
		if j < len(histS) && histS[j].Value == hv.Value {
			hv.CountS = histS[j].Count
			j++
		}
		if hv.CountR+hv.CountS > rt.Threshold {
			byValue = append(byValue, hv)
		}
	}
	order := make([]int, len(byValue)) // rank → position in byValue; stable, so ties stay value-ascending
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool {
		ha, hb := byValue[order[a]], byValue[order[b]]
		return ha.CountR+ha.CountS > hb.CountR+hb.CountS
	})
	rt.Heavy, rt.byValue = make([]HeavyValue, len(order)), make([]int, len(order))
	next := 0
	for rank, k := range order {
		hv := byValue[k]
		// Block size proportional to the value's share of the data.
		hv.Size = min(max((hv.CountR+hv.CountS)*p/rt.Total, 1), p)
		hv.First, next = next, (next+hv.Size)%p
		hv.SplitR = hv.CountR >= hv.CountS
		rt.Heavy[rank], rt.byValue[k] = hv, rank
	}
	return rt
}

// CompileFromData is Compile for callers that hold the relations but
// no catalog: it builds the two histograms with the statistics
// kernel's radix sort first.
func CompileFromData(r *relation.Relation, ry int, s *relation.Relation, sy, p int, factor float64) *Routing {
	return Compile(relation.ColumnHistogram(r, ry), relation.ColumnHistogram(s, sy), r.Size(), s.Size(), p, factor)
}

// find returns the position in Heavy of join value v, or -1 when v is
// light.
func (rt *Routing) find(v int) int {
	lo, hi := 0, len(rt.byValue)
	for lo < hi {
		mid := (lo + hi) / 2
		if rt.Heavy[rt.byValue[mid]].Value < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rt.byValue) && rt.Heavy[rt.byValue[lo]].Value == v {
		return rt.byValue[lo]
	}
	return -1
}

// PredictedLoad is the maximum per-server tuple count the routing
// implies: the light tuples hash evenly over all P servers, and a
// server in a heavy value's block additionally receives its slice of
// the split side plus the whole broadcast side.
func (rt *Routing) PredictedLoad() float64 {
	light, block := rt.Total, 0.0
	for _, hv := range rt.Heavy {
		light -= hv.CountR + hv.CountS
		split, bcast := hv.CountR, hv.CountS
		if !hv.SplitR {
			split, bcast = bcast, split
		}
		block = math.Max(block, float64(split)/float64(hv.Size)+float64(bcast))
	}
	return float64(light)/float64(rt.P) + block
}

// Mode selects the routing discipline.
type Mode int

// Routing disciplines.
const (
	// Standard hashes both relations on the join attribute.
	Standard Mode = iota
	// Resilient splits heavy hitters across server blocks.
	Resilient
	// ModeWCOJ routes and evaluates exactly like Standard: it used to
	// select the worst-case-optimal local join, and a worker now has no
	// other. The name stays because floored test names spell its string
	// (ROADMAP, the pin list).
	ModeWCOJ
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Standard:
		return "standard"
	case Resilient:
		return "resilient"
	case ModeWCOJ:
		return "wcoj"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a join run.
type Options struct {
	// Seed drives hashing.
	Seed uint64
	// CapConstant enables receive-cap enforcement when positive.
	CapConstant float64
	// Transport, Context, Recovery, Trace and Snapshot are the fields of
	// dist.Env (documented there): where and how the round runs. The zero
	// values are the in-process loopback, no deadline, no recovery,
	// untraced, every scatter fresh.
	Transport dist.Transport
	Context   context.Context
	Recovery  dist.RecoveryOptions
	Trace     *trace.Trace
	Snapshot  *dist.Snapshot
}

// Result reports a join run.
type Result struct {
	// Answers is the full join result in the query's Vars() order —
	// (x,y,z) for RunJoin — as one sealed, deduplicated run (nil when
	// empty).
	Answers *relation.Run
	// Stats is the communication record.
	Stats *mpc.Stats
	// Replacements counts the workers replaced mid-query by the
	// recovery policy.
	Replacements int
	// MaxLoadTuples is the maximum per-server received tuple count.
	MaxLoadTuples int64
	// Heavy lists the heavy hitters the run routed by (none under plain
	// hashing).
	Heavy []HeavyValue
	// CapExceeded reports receive-budget violations.
	CapExceeded bool
}

// joinPartitioner is one side of the skew-aware routing discipline as
// an exchange.Partitioner: light values hash to one server, heavy
// values either split round-robin across their block or broadcast to
// the whole block. Each tuple's round-robin position (splitRank) is
// numbered over the whole run at the first Route: parallel sender
// shards share no counters, an attached scatter, which never routes,
// never pays for it, and a heavy value spreads exactly evenly over its
// block however its occurrences lie in the run.
type joinPartitioner struct {
	col       int
	seed      uint64
	rt        *Routing
	sideR     bool // this side splits the values whose SplitR is set
	run       *relation.Run
	ranked    sync.Once
	splitRank []int32 // tuple index → rank among its value's occurrences
}

// NewPartitioner routes rel's side of the join on column col under rt:
// sideR for the side that splits the values whose SplitR is set.
func NewPartitioner(rt *Routing, rel *relation.Relation, col int, sideR bool, seed uint64) exchange.Partitioner {
	return &joinPartitioner{col: col, seed: seed, rt: rt, sideR: sideR, run: rel.Run()}
}

// rank numbers each split-side heavy tuple among the occurrences of its
// join value, in the order of the run — the order Cluster.Scatter
// routes it in.
func (j *joinPartitioner) rank() {
	j.splitRank = make([]int32, j.run.Len())
	counter := make([]int32, len(j.rt.Heavy))
	i := 0
	j.run.Each(func(t relation.Tuple) {
		if h := j.rt.find(t[j.col]); h >= 0 && j.rt.Heavy[h].SplitR == j.sideR {
			j.splitRank[i] = counter[h]
			counter[h]++
		}
		i++
	})
}

// Key implements exchange.Keyed: the routing's P, Threshold and every
// heavy value's fields, the seed, the side and the join column. The
// split ranks follow from these and the run, which the snapshot pins.
func (j *joinPartitioner) Key() string {
	return fmt.Sprint("skew", j.rt.P, j.rt.Threshold, j.rt.Heavy, j.seed, j.sideR, j.col)
}

// Route implements exchange.Partitioner.
func (j *joinPartitioner) Route(i int, t relation.Tuple, buf []int) []int {
	v := t[j.col]
	h := j.rt.find(v)
	if h < 0 {
		return append(buf, exchange.HashDest(v, j.seed, j.rt.P))
	}
	hv := &j.rt.Heavy[h]
	if hv.SplitR == j.sideR {
		j.ranked.Do(j.rank)
		return append(buf, (hv.First+int(j.splitRank[i])%hv.Size)%j.rt.P)
	}
	for k := 0; k < hv.Size; k++ {
		buf = append(buf, (hv.First+k)%j.rt.P)
	}
	return buf
}

// RunJoin executes R ⋈ S on p servers under the chosen mode; Resilient
// compiles its routing from the data's own histograms. The domain for
// bit accounting is taken as the largest value appearing in either
// relation.
func RunJoin(r, s *relation.Relation, p int, mode Mode, opts Options) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("skew: p = %d", p)
	}
	ry, sy := r.AttrIndex("y"), s.AttrIndex("y")
	if ry < 0 || sy < 0 {
		return nil, fmt.Errorf("skew: inputs must share attribute y")
	}
	rt := &Routing{P: p} // no heavy values: plain hashing
	if mode == Resilient {
		rt = CompileFromData(r, ry, s, sy, p, 1)
	}
	return Execute(JoinQuery(), r, s, ry, sy, rt, opts)
}

// Execute runs the two-atom join q on rt.P servers, run-native on q's
// own atoms: r and s (bound to q's first and second atom, whatever
// their names and column order) scatter as they are in HyperCube's one
// round, partitioned on columns ry and sy under rt; the workers join q
// itself and the gather merge returns the answers in q.Vars() order,
// sorted and deduplicated.
func Execute(q *query.Query, r, s *relation.Relation, ry, sy int, rt *Routing, opts Options) (*Result, error) {
	domain := max(1, r.Run().MaxValue(), s.Run().MaxValue())
	inputBits := int64(r.Size()+s.Size()) * 2 * int64(relation.BitsPerValue(domain))
	cluster, ctx, err := dist.Open(dist.Env{Transport: opts.Transport, Context: opts.Context, Recovery: opts.Recovery, Trace: opts.Trace, Snapshot: opts.Snapshot},
		mpc.Config{Workers: rt.P, InputBits: inputBits, CapConstant: opts.CapConstant, DomainN: domain})
	if err != nil {
		return nil, err
	}
	// One partitioner per side; the split/broadcast decision flips
	// between R and S for each heavy value.
	in := &relation.Database{Relations: map[string]*relation.Relation{q.Atoms[0].Name: r, q.Atoms[1].Name: s}}
	capExceeded, err := hypercube.Round(ctx, cluster, q, in, func(a query.Atom) exchange.Partitioner {
		if a.Name == q.Atoms[0].Name {
			return NewPartitioner(rt, r, ry, true, opts.Seed)
		}
		return NewPartitioner(rt, s, sy, false, opts.Seed)
	})
	if err != nil {
		return nil, err
	}
	answers, err := cluster.Gather(ctx, hypercube.AnswersView)
	if err != nil {
		return nil, err
	}
	return &Result{
		Answers:       answers,
		Stats:         cluster.Stats(),
		Replacements:  cluster.Replacements(),
		MaxLoadTuples: cluster.Stats().MaxLoadTuples(),
		Heavy:         rt.Heavy,
		CapExceeded:   capExceeded,
	}, nil
}

// GroundTruth joins the inputs on one node.
func GroundTruth(r, s *relation.Relation) ([]relation.Tuple, error) {
	q := JoinQuery()
	b := localjoin.Bindings{"R": r.Rows(), "S": s.Rows()}
	return localjoin.Evaluate(q, b, localjoin.HashJoin)
}
