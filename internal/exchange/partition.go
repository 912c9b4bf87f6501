package exchange

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/relation"
)

// Partitioner decides, tuple by tuple, which workers receive a tuple.
// Implementations must be safe for concurrent use: PartitionRun splits
// a large source into shards and routes them in parallel, so Route may
// run on several goroutines at once. What a scatter delivers does not
// depend on that split: one sealed run per destination. A partitioner
// that names its grid (a RoutingGrid method, as Grid has) may be routed
// by that grid a column at a time instead of by Route, which must
// therefore route as the grid does.
type Partitioner interface {
	// Route appends the destination worker ids of t — the i-th row of
	// the source run — to buf and returns the extended slice.
	// Callers pass a reusable scratch buffer (typically buf[:0]); Route
	// must not retain it. Returning no destinations drops the tuple.
	Route(i int, t relation.Tuple, buf []int) []int
}

// Keyed is optionally implemented by a Partitioner that can describe
// its routing function completely: equal keys route every tuple
// identically; "" says there is no such description.
type Keyed interface{ Key() string }

// HashDest is the shared splitmix64-style hash placement used by the
// plain-hash disciplines (skew routing, cc vertex ownership): the
// worker owning value v under the given seed, in [0, p).
func HashDest(v int, seed uint64, p int) int {
	return int(Mix(uint64(v), seed) % uint64(p))
}

// HashPartitioner hashes one column to a single destination — the
// classic equi-join shuffle.
type HashPartitioner struct {
	// Col is the tuple position hashed.
	Col int
	// P is the worker count.
	P int
	// Seed drives the hash.
	Seed uint64
}

// Route implements Partitioner.
func (h HashPartitioner) Route(_ int, t relation.Tuple, buf []int) []int {
	return append(buf, HashDest(t[h.Col], h.Seed, h.P))
}

// Broadcast replicates every tuple to all P workers (tiny relations,
// e.g. the √n-sized unary endpoints of Prop 3.12).
type Broadcast struct {
	// P is the worker count.
	P int
}

// Route implements Partitioner.
func (b Broadcast) Route(_ int, _ relation.Tuple, buf []int) []int {
	for d := 0; d < b.P; d++ {
		buf = append(buf, d)
	}
	return buf
}

// Delivery is one sealed per-destination run bound for worker To under
// relation name Rel — the unit the coordinator accounts and delivers.
type Delivery struct {
	To  int
	Rel string
	Buf *relation.Run
	// Retain, when non-empty, asks the receiving worker process to keep
	// the run under this key beyond the session (see dist.Residency).
	Retain string
}

// minShard is the smallest source shard worth a goroutine of its own;
// below it, partitioning runs inline.
const minShard = 2048

// block is the rows a grid's bound columns are read and hashed at a
// time: its coordinates stay in cache between the columns.
const block = 512

// Partition is PartitionRun over tuples sealed into one run
// (relation.RunOf: sorted, every occurrence kept), so part sees them in
// that order. Every product scatter partitions a run; this adapter is
// pinned by bench/probes.go.
func Partition(rel string, tuples []relation.Tuple, arity, p int, part Partitioner) ([]Delivery, error) {
	return PartitionRun(rel, relation.RunOf(arity, tuples), p, part)
}

// shard is one contiguous slice of a source run, rows lo up to hi, and
// what routing it found.
type shard struct {
	lo, hi int
	// points holds the rows' destinations, row after row: from a grid a
	// row's base point alone, else each destination Route gave it.
	points []int32
	ends   []int // ends[i] is one past row lo+i's last in points; nil from a grid
	// next is, after the first pass, the rows bound for each destination;
	// in the second, the word of that destination's run the shard's next
	// row for it goes to.
	next []int
	err  error
}

// PartitionRun routes the rows of a sealed run through part into one
// run per destination and returns them, in ascending destination order,
// as Deliveries; it errors on an open run and on any out-of-range
// destination. It is a counting scatter in two passes over shards of
// the source, each shard on a goroutine of its own when the source is
// large enough. The first pass routes each row and counts it. A
// partitioner that names its grid (RoutingGrid), binds no dimension of
// several points twice and has no more points than workers is routed a
// column at a time: each bound position is read straight from the run's
// words and hashed into the row's base point. Any other is asked per
// row, through a reused scratch tuple. The second pass allocates each
// destination's words once, at the size the counts give, and each shard
// copies its rows as the source holds them into its own slice of them,
// in source order. A destination's run is therefore a subsequence of the
// sorted source in order: sealed with no check and no sort, and the same
// whatever the shard count. A nil or empty run partitions into nothing.
func PartitionRun(rel string, run *relation.Run, p int, part Partitioner) ([]Delivery, error) {
	if p < 1 {
		return nil, fmt.Errorf("exchange: partition %s: %d workers", rel, p)
	}
	n := run.Len()
	if n == 0 {
		return nil, nil
	}
	if !run.Sealed() {
		return nil, fmt.Errorf("exchange: partition %s: the run is not sealed", rel)
	}
	var g *Grid
	if gp, ok := part.(interface{ RoutingGrid() *Grid }); ok {
		g = gp.RoutingGrid()
	}
	if g != nil && g.Width() > run.Arity() {
		return nil, fmt.Errorf("exchange: partition %s: a grid routes position %d of arity-%d rows", rel, g.Width()-1, run.Arity())
	}
	offs := []int{0} // the moves from a recorded point to the points it stands for
	if g != nil && g.Total() && g.Size() <= p {
		offs = g.expand(nil, 0)
	} else {
		g = nil
	}
	nshards := max(min(n/minShard, runtime.GOMAXPROCS(0)), 1)
	chunk := (n + nshards - 1) / nshards
	shards := make([]shard, nshards)
	for s := range shards {
		shards[s].lo, shards[s].hi = min(s*chunk, n), min((s+1)*chunk, n)
	}
	parallel(shards, func(s *shard) {
		if g != nil {
			s.routeGrid(run, g, p)
		} else {
			s.route(run, part, p)
		}
	})
	for s := range shards {
		if err := shards[s].err; err != nil {
			return nil, fmt.Errorf("exchange: partition %s: %w", rel, err)
		}
	}
	// A grid counts its rows at their base points. Every point a base
	// point expands to by offs receives exactly its rows — no other base
	// point reaches it — so those are scattered to the base point alone
	// and copied whole to the rest.
	stride := run.Stride()
	out, bases := make([][]uint64, p), make([]int, 0, p)
	for d := range out {
		words := 0
		for s := range shards {
			rows := shards[s].next[d]
			shards[s].next[d] = words
			words += rows * stride
		}
		if words > 0 {
			bases = append(bases, d)
			for _, o := range offs {
				out[d+o] = make([]uint64, words)
			}
		}
	}
	parallel(shards, func(s *shard) { s.scatter(run, out) })
	for _, d := range bases {
		for _, o := range offs[1:] {
			copy(out[d+o], out[d])
		}
	}
	to, parts := make([]int, 0, p), make([][]uint64, 0, p)
	for d, words := range out {
		if words != nil {
			to, parts = append(to, d), append(parts, words)
		}
	}
	ds := make([]Delivery, len(to))
	for i, buf := range run.Subsequences(parts) {
		ds[i] = Delivery{To: to[i], Rel: rel, Buf: buf}
	}
	return ds, nil
}

// parallel calls f on every shard, each on a goroutine of its own when
// there are several, and returns when all have.
func parallel(shards []shard, f func(*shard)) {
	if len(shards) == 1 {
		f(&shards[0]) // one shard is routed where it is asked for
		return
	}
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			f(s)
		}(&shards[s])
	}
	wg.Wait()
}

// routeGrid is the first pass through a grid: the shard's rows are
// hashed into base points a block at a time (Grid.bases), each counted
// at its base point.
func (s *shard) routeGrid(run *relation.Run, g *Grid, p int) {
	s.points, s.next = make([]int32, 0, s.hi-s.lo), make([]int, p)
	base, vals := make([]int, block), make([]int, 0, block)
	for lo := s.lo; lo < s.hi; lo += block {
		b := base[:min(block, s.hi-lo)]
		clear(b)
		g.bases(run, lo, lo+len(b), b, vals)
		for _, x := range b {
			s.points = append(s.points, int32(x))
			s.next[x]++
		}
	}
}

// route is the first pass through any other partitioner: part.Route per
// row, each row decoded into one reused scratch tuple; it sets the
// shard's error at the first destination that is not a worker.
func (s *shard) route(run *relation.Run, part Partitioner, p int) {
	s.points, s.ends, s.next = make([]int32, 0, s.hi-s.lo), make([]int, 0, s.hi-s.lo), make([]int, p)
	row := make(relation.Tuple, run.Arity())
	var buf []int
	for i := s.lo; i < s.hi; i++ {
		buf = part.Route(i, run.Row(i, row), buf[:0])
		if need := len(s.points) + len(buf); need > cap(s.points) {
			// Double: a list reserved at one a row grows log₂ fanout times.
			s.points = append(make([]int32, 0, 2*need), s.points...)
		}
		for _, d := range buf {
			if d < 0 || d >= p {
				s.err = fmt.Errorf("destination %d out of range [0,%d)", d, p)
				return
			}
			s.points = append(s.points, int32(d))
			s.next[d]++
		}
		s.ends = append(s.ends, len(s.points))
	}
}

// scatter is the second pass: each of the shard's rows is copied, as
// the source holds it, to the next place of each of its points.
func (s *shard) scatter(run *relation.Run, out [][]uint64) {
	words, stride, next := run.Words(), run.Stride(), s.next
	if s.ends == nil && stride == 1 { // one point a row, one word a row
		for i, d := range s.points {
			out[d][next[d]] = words[s.lo+i]
			next[d]++
		}
		return
	}
	j := 0
	for i := s.lo; i < s.hi; i++ {
		end := j + 1
		if s.ends != nil {
			end = s.ends[i-s.lo]
		}
		row := words[i*stride : (i+1)*stride]
		for ; j < end; j++ {
			d := s.points[j]
			copy(out[d][next[d]:], row)
			next[d] += stride
		}
	}
}
