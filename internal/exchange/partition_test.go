package exchange

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/relation"
)

// routeOracle is what PartitionRun must deliver, computed the plain way:
// every row of run routed on its own by part.Route, appended to each of
// its destinations' tuples in run order.
func routeOracle(run *relation.Run, p int, part Partitioner) [][]relation.Tuple {
	want := make([][]relation.Tuple, p)
	for i := 0; i < run.Len(); i++ {
		t := run.Row(i, make(relation.Tuple, run.Arity()))
		for _, d := range part.Route(i, t, nil) {
			want[d] = append(want[d], t)
		}
	}
	return want
}

// checkMatchesRoute partitions run through part and holds the result to
// routeOracle: one delivery per destination that receives rows, in
// ascending order, each a sealed run at the source's stride holding
// exactly the oracle's rows in the oracle's order. It returns the
// deliveries.
func checkMatchesRoute(t *testing.T, what string, run *relation.Run, p int, part Partitioner) []Delivery {
	t.Helper()
	ds, err := PartitionRun("R", run, p, part)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := routeOracle(run, p, part)
	i := 0
	for d, rows := range want {
		if len(rows) == 0 {
			continue
		}
		if i == len(ds) || ds[i].To != d {
			t.Fatalf("%s: destination %d receives %d rows, and no delivery of its own is next", what, d, len(rows))
		}
		buf := ds[i].Buf
		if !buf.Sealed() || buf.Stride() != run.Stride() || ds[i].Rel != "R" {
			t.Fatalf("%s: destination %d: sealed %v, stride %d of the source's %d", what, d, buf.Sealed(), buf.Stride(), run.Stride())
		}
		if got := buf.Tuples(); !slices.EqualFunc(got, rows, relation.Tuple.Equal) {
			t.Fatalf("%s: destination %d holds %v, want %v", what, d, got, rows)
		}
		i++
	}
	if i != len(ds) {
		t.Fatalf("%s: %d deliveries, want %d", what, len(ds), i)
	}
	return ds
}

// gridShape is a grid spec relative to the arity it routes: a bind at
// position -1 binds the last one.
type gridShape struct {
	name  string
	dims  []int
	binds []GridBind
	extra int // workers past the grid's points
}

// gridShapes are the grids TestPartitionRunMatchesRoute routes, and the
// seeds of FuzzPartitionRun.
var gridShapes = []gridShape{
	{"first and last bound, one free", []int{3, 2, 2}, []GridBind{{0, 0}, {-1, 1}}, 0},
	{"last bound only, past the grid", []int{2, 3}, []GridBind{{-1, 1}}, 3},
	{"size-1 dimensions", []int{1, 4, 1, 3}, []GridBind{{0, 0}, {-1, 1}}, 0},
	{"free only", []int{2, 3}, nil, 1},
	{"repeated variable", []int{4, 2}, []GridBind{{0, 0}, {-1, 0}}, 0},
	{"repeated on a size-1 dimension", []int{1, 5}, []GridBind{{0, 0}, {-1, 0}, {-1, 1}}, 2},
	{"one point", []int{1}, []GridBind{{0, 0}}, 0},
}

// grid builds the shape's grid for rows of the arity, with seeds drawn
// from seed.
func (s gridShape) grid(arity int, seed uint64) (*Grid, error) {
	seeds := make([]uint64, len(s.dims))
	for d := range seeds {
		seeds[d] = Mix(uint64(d), seed)
	}
	binds := slices.Clone(s.binds)
	for i := range binds {
		if binds[i].Pos < 0 {
			binds[i].Pos += arity
		}
	}
	return NewGrid(s.dims, seeds, binds)
}

// valueRun draws a sealed run of n rows of the arity whose values take
// bits bits — negative ones, which take a 64-bit field, when bits is 64 —
// with repeats among them.
func valueRun(rng *rand.Rand, arity, n int, bits uint) *relation.Run {
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		if i > 0 && rng.IntN(8) == 0 {
			tuples[i] = tuples[rng.IntN(i)]
			continue
		}
		t := make(relation.Tuple, arity)
		for c := range t {
			switch {
			case bits == 64:
				t[c] = int(rng.Uint64())
			case rng.IntN(2) == 0:
				t[c] = rng.IntN(1 << bits)
			default:
				t[c] = rng.IntN(16)
			}
		}
		tuples[i] = t
	}
	return relation.RunOf(arity, tuples)
}

// TestPartitionRunMatchesRoute: the counting scatter delivers what
// routing every row on its own does, whatever the partitioner and the
// rows — arity 1 to 4 at strides 1 to 3 (arity 3's 64-bit rows, with
// negative values), grids with bound, free and size-1 dimensions, a
// repeated variable whose conflicting rows are dropped, more workers
// than grid points, the hash and broadcast partitioners, an empty and a
// nil run, and a run just past two shards' worth — and delivers the same
// words on one core and on two.
func TestPartitionRunMatchesRoute(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewPCG(53, 7))
	strides := map[int]bool{}
	for arity := 1; arity <= 4; arity++ {
		for _, bits := range []uint{4, 24, 40, 64} {
			for _, n := range []int{0, 1, 37, 2*minShard + 5} {
				run := valueRun(rng, arity, n, bits)
				strides[run.Stride()] = true
				type routed struct {
					name string
					part Partitioner
					p    int
				}
				parts := []routed{
					{"hash", HashPartitioner{Col: arity - 1, P: 5, Seed: 11}, 5},
					{"broadcast", Broadcast{P: 3}, 3},
				}
				for _, s := range gridShapes {
					g, err := s.grid(arity, uint64(arity)*uint64(bits))
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, routed{s.name, g, g.Size() + s.extra})
				}
				for _, r := range parts {
					what := fmt.Sprintf("%s, arity %d at stride %d, %d rows", r.name, arity, run.Stride(), n)
					runtime.GOMAXPROCS(1)
					one := checkMatchesRoute(t, what, run, r.p, r.part)
					runtime.GOMAXPROCS(2)
					two := checkMatchesRoute(t, what, run, r.p, r.part)
					for i := range one {
						if one[i].To != two[i].To || !slices.Equal(one[i].Buf.Words(), two[i].Buf.Words()) {
							t.Fatalf("%s: delivery %d differs between one core and two", what, i)
						}
					}
				}
			}
		}
	}
	for _, s := range []int{1, 2, 3} {
		if !strides[s] {
			t.Errorf("no run at stride %d", s)
		}
	}
	if ds, err := PartitionRun("R", nil, 3, Broadcast{P: 3}); err != nil || ds != nil {
		t.Errorf("a nil run: %v, %v", ds, err)
	}
	narrow, _ := NewGrid([]int{2}, []uint64{1}, []GridBind{{Pos: 2, Dim: 0}})
	if _, err := PartitionRun("R", valueRun(rng, 2, 3, 4), 2, narrow); err == nil {
		t.Error("a grid bound past the rows' arity routed them")
	}
}

// fuzzSpec encodes a grid shape for rows of the arity as
// FuzzPartitionRun reads one: the arity, the workers past the grid, the
// dimension count, each dimension's share, then each bind's position and
// dimension.
func fuzzSpec(s gridShape, arity int) []byte {
	spec := []byte{byte(arity - 1), byte(s.extra), byte(len(s.dims) - 1)}
	for _, n := range s.dims {
		spec = append(spec, byte(n-1))
	}
	for _, b := range s.binds {
		pos := b.Pos
		if pos < 0 {
			pos += arity
		}
		spec = append(spec, byte(pos), byte(b.Dim))
	}
	return spec
}

// fuzzRows encodes tuples as FuzzPartitionRun reads values: a value in
// [0, 128) as its byte, any other as 0x80 and its eight bytes.
func fuzzRows(tuples []relation.Tuple) []byte {
	var data []byte
	for _, t := range tuples {
		for _, v := range t {
			if v >= 0 && v < 0x80 {
				data = append(data, byte(v))
			} else {
				data = binary.LittleEndian.AppendUint64(append(data, 0x80), uint64(v))
			}
		}
	}
	return data
}

// FuzzPartitionRun holds PartitionRun to routeOracle on a fuzzer-chosen
// grid — up to four dimensions of up to four points, any binds, repeats
// included, up to three workers past its points — over a sealed run of
// fuzzer-chosen rows of arity 1 to 4, small values and any 64-bit ones.
func FuzzPartitionRun(f *testing.F) {
	rng := rand.New(rand.NewPCG(1, 2))
	for arity := 1; arity <= 4; arity++ {
		for i, s := range gridShapes {
			bits := []uint{4, 24, 40, 64}[i%4]
			f.Add(fuzzSpec(s, arity), uint64(i), fuzzRows(valueRun(rng, arity, 40, bits).Tuples()))
		}
	}
	f.Fuzz(func(t *testing.T, spec []byte, seed uint64, data []byte) {
		if len(spec) < 3 {
			return
		}
		arity, extra, nd := 1+int(spec[0]%4), int(spec[1]%4), 1+int(spec[2]%4)
		spec = spec[3:]
		if len(spec) < nd {
			return
		}
		s := gridShape{dims: make([]int, nd), extra: extra}
		for d := range s.dims {
			s.dims[d] = 1 + int(spec[d]%4)
		}
		for spec = spec[nd:]; len(spec) >= 2; spec = spec[2:] {
			s.binds = append(s.binds, GridBind{Pos: int(spec[0]) % arity, Dim: int(spec[1]) % nd})
		}
		g, err := s.grid(arity, seed)
		if err != nil {
			t.Fatal(err)
		}
		var tuples []relation.Tuple
		for row := make(relation.Tuple, 0, arity); len(data) > 0; {
			v := int(data[0])
			if data = data[1:]; v >= 0x80 {
				if len(data) < 8 {
					break
				}
				v, data = int(binary.LittleEndian.Uint64(data)), data[8:]
			}
			if row = append(row, v); len(row) == arity {
				tuples, row = append(tuples, row), make(relation.Tuple, 0, arity)
			}
		}
		checkMatchesRoute(t, fmt.Sprintf("grid %v, binds %v", s.dims, s.binds), relation.RunOf(arity, tuples), g.Size()+s.extra, g)
	})
}
