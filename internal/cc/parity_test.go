package cc

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/mpc"
)

// roundsDigest fingerprints a communication record, every round's
// per-worker vectors included.
func roundsDigest(s *mpc.Stats) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s.Rounds)
	return fmt.Sprintf("%016x", h.Sum64())
}

// labelsDigest fingerprints a labeling in vertex order.
func labelsDigest(labels map[int]int) string {
	vs := make([]int, 0, len(labels))
	for v := range labels {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%d:%d,", v, labels[v])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// parityGraphs are the fixed inputs of the parity table: the Theorem
// 4.10 layered family at three (p, layers) points and one random sparse
// graph.
var parityGraphs = []struct {
	name string
	p    int
	gen  func() (*Graph, error)
}{
	{"layered-p4-l2", 4, func() (*Graph, error) { return Layered(rand.New(rand.NewPCG(41, 1)), 2, 24) }},
	{"layered-p16-l4", 16, func() (*Graph, error) { return Layered(rand.New(rand.NewPCG(42, 2)), 4, 20) }},
	{"layered-p64-l8", 64, func() (*Graph, error) { return Layered(rand.New(rand.NewPCG(43, 3)), 8, 16) }},
	{"sparse-p8", 8, func() (*Graph, error) { return RandomSparse(rand.New(rand.NewPCG(44, 4)), 120, 150) }},
}

// parityRecord is everything a run reports about its communication,
// plus its answer.
type parityRecord struct {
	rounds        int
	totalBits     int64
	maxLoadBits   int64
	maxLoadTuples int64
	perWorker     string // roundsDigest
	labels        string // labelsDigest
	capExceeded   bool   // under tightCap; never without a cap
}

// tightCap is a receive-cap constant that the dense algorithm's round 1
// and hash-to-min always exceed and neighbor-min exceeds at p = 64 only.
const tightCap = 4

// TestParityWithSimulator holds the three algorithms to the rounds,
// bits, loads, per-worker vectors, cap verdicts and labels they
// produced on the mpc simulator (values recorded at the commit before
// the port to dist.Cluster), with and without a tight receive cap.
func TestParityWithSimulator(t *testing.T) {
	algos := []struct {
		name string
		run  func(*Graph, Options) (*Result, error)
	}{
		{"neighbor-min", func(g *Graph, o Options) (*Result, error) { return Run(g, NeighborMin, o) }},
		{"hash-to-min", func(g *Graph, o Options) (*Result, error) { return Run(g, HashToMin, o) }},
		{"dense", DenseTwoRound},
	}
	for _, pg := range parityGraphs {
		g, err := pg.gen()
		if err != nil {
			t.Fatal(err)
		}
		truth := SequentialComponents(g)
		for _, a := range algos {
			name := pg.name + "/" + a.name
			want, ok := parityGolden[name]
			if !ok {
				t.Errorf("%s: no recorded values", name)
			}
			for _, capC := range []float64{0, tightCap} {
				res, err := a.run(g, Options{Workers: pg.p, Epsilon: 0, CapConstant: capC, Seed: 29})
				if err != nil {
					t.Fatalf("%s cap=%v: %v", name, capC, err)
				}
				// Isolated vertices of the sparse graph never appear in
				// the edge relation; the propagation algorithms label
				// only vertices incident to edges.
				for v, l := range res.Labels {
					if truth[v] != l {
						t.Fatalf("%s: label(%d) = %d, want %d", name, v, l, truth[v])
					}
				}
				got := parityRecord{
					rounds:        res.Stats.NumRounds(),
					totalBits:     res.Stats.TotalBits(),
					maxLoadBits:   res.Stats.MaxLoadBits(),
					maxLoadTuples: res.Stats.MaxLoadTuples(),
					perWorker:     roundsDigest(res.Stats),
					labels:        labelsDigest(res.Labels),
					capExceeded:   res.CapExceeded,
				}
				exp := want
				if capC == 0 {
					exp.capExceeded = false
				}
				if got != exp {
					t.Errorf("%s cap=%v:\n got %#v\nwant %#v", name, capC, got, exp)
				}
			}
		}
	}
}

// parityGolden holds, per graph and algorithm, the record of the run
// under tightCap on the mpc simulator; the run without a cap recorded
// the same values with capExceeded false.
var parityGolden = map[string]parityRecord{
	"layered-p4-l2/neighbor-min":  {rounds: 4, totalBits: 5376, maxLoadBits: 434, maxLoadTuples: 31, perWorker: "a003019217ed4675", labels: "72df4ee7770dc43a", capExceeded: false},
	"layered-p4-l2/hash-to-min":   {rounds: 3, totalBits: 8064, maxLoadBits: 1260, maxLoadTuples: 90, perWorker: "fae5f7fbc4b06318", labels: "72df4ee7770dc43a", capExceeded: true},
	"layered-p4-l2/dense":         {rounds: 2, totalBits: 2352, maxLoadBits: 1344, maxLoadTuples: 96, perWorker: "8c1c226cfda94a3d", labels: "72df4ee7770dc43a", capExceeded: true},
	"layered-p16-l4/neighbor-min": {rounds: 6, totalBits: 13440, maxLoadBits: 238, maxLoadTuples: 17, perWorker: "dc138de05d30d3ac", labels: "2e0372d3fad5d92c", capExceeded: false},
	"layered-p16-l4/hash-to-min":  {rounds: 4, totalBits: 25760, maxLoadBits: 1120, maxLoadTuples: 80, perWorker: "8b7163b17338f1e9", labels: "2e0372d3fad5d92c", capExceeded: true},
	"layered-p16-l4/dense":        {rounds: 2, totalBits: 3640, maxLoadBits: 2240, maxLoadTuples: 160, perWorker: "b51a7c633678c272", labels: "2e0372d3fad5d92c", capExceeded: true},
	"layered-p64-l8/neighbor-min": {rounds: 10, totalBits: 40960, maxLoadBits: 256, maxLoadTuples: 16, perWorker: "a7be54ee07939381", labels: "9800126d80e1906f", capExceeded: true},
	"layered-p64-l8/hash-to-min":  {rounds: 5, totalBits: 91136, maxLoadBits: 2592, maxLoadTuples: 162, perWorker: "a0dbc3b75a20e3d2", labels: "9800126d80e1906f", capExceeded: true},
	"layered-p64-l8/dense":        {rounds: 2, totalBits: 6400, maxLoadBits: 4096, maxLoadTuples: 256, perWorker: "ba70323d7f62d3d7", labels: "9800126d80e1906f", capExceeded: true},
	"sparse-p8/neighbor-min":      {rounds: 11, totalBits: 46200, maxLoadBits: 826, maxLoadTuples: 59, perWorker: "a3ff24dde04752d7", labels: "e805a0e65f67f112", capExceeded: false},
	"sparse-p8/hash-to-min":       {rounds: 6, totalBits: 117936, maxLoadBits: 17584, maxLoadTuples: 1256, perWorker: "d27094707e41a3b7", labels: "e805a0e65f67f112", capExceeded: true},
	"sparse-p8/dense":             {rounds: 2, totalBits: 5880, maxLoadBits: 4200, maxLoadTuples: 300, perWorker: "a6179ed5975d64b2", labels: "d78ce30ea6dde13c", capExceeded: true},
}
