package exchange

import (
	"fmt"

	"repro/internal/relation"
)

// Mix is the splitmix64-style mixer behind every hash placement of the
// system: an independent-looking hash per (value, seed) pair.
func Mix(x, seed uint64) uint64 {
	z := x + seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// GridBind fixes grid dimension Dim from tuple position Pos.
type GridBind struct{ Pos, Dim int }

// maxGrid bounds the points of a Grid, so that a spec from a peer cannot
// make the stride products overflow.
const maxGrid = 1 << 30

// Grid is the HyperCube routing of one atom's tuples (Section 3.1):
// per-dimension shares and hash seeds, and which tuple position fixes
// which dimension. A tuple goes to every grid point whose coordinates on
// its bound dimensions are the hashes of its values, every coordinate on
// the others. It is the one routing function of the grid — the
// coordinator's scatter (hypercube.GridPartitioner) and a worker's route
// step (dist) both build one, the worker from the spec a route frame
// carries — and it is safe for concurrent senders.
type Grid struct {
	dims    []int
	seeds   []uint64
	binds   []GridBind
	strides []int // strides[d] = ∏_{d' > d} dims[d']
	free    []int // unbound dimensions with dims[d] > 1, in dimension order
	fanout  int   // ∏ dims[free]
}

// NewGrid validates a grid spec — one share of at least 1 and one seed
// per dimension, at most 2³⁰ points, binds from non-negative positions
// to existing dimensions — and precomputes its routing state.
func NewGrid(dims []int, seeds []uint64, binds []GridBind) (*Grid, error) {
	if len(dims) == 0 || len(seeds) != len(dims) {
		return nil, fmt.Errorf("exchange: grid of %d dimensions with %d seeds", len(dims), len(seeds))
	}
	g := &Grid{dims: dims, seeds: seeds, binds: binds, strides: make([]int, len(dims)), fanout: 1}
	stride := 1
	for d := len(dims) - 1; d >= 0; d-- {
		if dims[d] < 1 || dims[d] > maxGrid/stride {
			return nil, fmt.Errorf("exchange: grid dimensions %v exceed %d points", dims, maxGrid)
		}
		g.strides[d] = stride
		stride *= dims[d]
	}
	bound := make([]bool, len(dims))
	for _, b := range binds {
		if b.Pos < 0 || b.Dim < 0 || b.Dim >= len(dims) {
			return nil, fmt.Errorf("exchange: grid bind %+v outside %d dimensions", b, len(dims))
		}
		bound[b.Dim] = true
	}
	for d, n := range dims {
		if !bound[d] && n > 1 {
			g.free = append(g.free, d)
			g.fanout *= n
		}
	}
	return g, nil
}

// Dims returns the grid's share per dimension.
func (g *Grid) Dims() []int { return g.dims }

// Seeds returns the grid's hash seed per dimension.
func (g *Grid) Seeds() []uint64 { return g.seeds }

// Binds returns which tuple position fixes which dimension.
func (g *Grid) Binds() []GridBind { return g.binds }

// Size returns ∏ dims, the number of grid points.
func (g *Grid) Size() int { return g.strides[0] * g.dims[0] }

// Fanout returns the number of grid points a tuple replicates to.
func (g *Grid) Fanout() int { return g.fanout }

// coord returns the coordinate value v hashes to on dimension d.
func (g *Grid) coord(d, v int) int {
	if g.dims[d] == 1 {
		return 0
	}
	return int(Mix(uint64(v), g.seeds[d]) % uint64(g.dims[d]))
}

// Width is the narrowest tuple the grid routes: one past its largest
// bound position.
func (g *Grid) Width() int {
	w := 0
	for _, b := range g.binds {
		w = max(w, b.Pos+1)
	}
	return w
}

// Total reports whether the grid places every tuple: no dimension of
// more than one point is fixed from two positions, whose values could
// hash apart.
func (g *Grid) Total() bool {
	seen := make([]bool, len(g.dims))
	for _, b := range g.binds {
		if seen[b.Dim] && g.dims[b.Dim] > 1 {
			return false
		}
		seen[b.Dim] = true
	}
	return true
}

// Canonical lists the grid points with coordinate 0 on every unbound
// dimension, in order: the one copy of each tuple the grid replicates —
// where Route sends it first — so what those points hold together holds
// every placed tuple exactly once.
func (g *Grid) Canonical() []int {
	var cells []int
	for cell := 0; cell < g.Size(); cell++ {
		canonical := true
		for _, d := range g.free {
			canonical = canonical && cell/g.strides[d]%g.dims[d] == 0
		}
		if canonical {
			cells = append(cells, cell)
		}
	}
	return cells
}

// PerDestination returns the tuples one grid point should expect of
// rows, each reaching Fanout of the grid's points.
func (g *Grid) PerDestination(rows int) int {
	return (rows*g.fanout + g.Size() - 1) / g.Size()
}

// Key implements Keyed: shares, per-dimension hash seeds and position →
// dimension bindings.
func (g *Grid) Key() string {
	return fmt.Sprint("grid", g.dims, g.seeds, g.binds)
}

// Route implements Partitioner. It allocates nothing once buf has
// capacity: the bound coordinates are hashed into one base point, and
// the free dimensions expand it by mixed-radix enumeration.
func (g *Grid) Route(_ int, t relation.Tuple, buf []int) []int {
	const maxStackDims = 16
	var setArr [maxStackDims]bool
	var coordArr [maxStackDims]int
	set, coord := setArr[:], coordArr[:]
	if len(g.dims) > maxStackDims {
		set = make([]bool, len(g.dims))
		coord = make([]int, len(g.dims))
	}
	base := 0
	for _, b := range g.binds {
		c := g.coord(b.Dim, t[b.Pos])
		if set[b.Dim] {
			if coord[b.Dim] != c {
				// A repeated variable hashes consistently (same value,
				// same hash); conflicting values mean the tuple can
				// never participate in an answer.
				return buf
			}
			continue
		}
		set[b.Dim] = true
		coord[b.Dim] = c
		base += c * g.strides[b.Dim]
	}
	start := len(buf)
	buf = append(buf, base)
	// Expand the free dimensions innermost-first, so the first free
	// dimension is outermost in the result.
	for i := len(g.free) - 1; i >= 0; i-- {
		d := g.free[i]
		m := len(buf)
		for c := 1; c < g.dims[d]; c++ {
			off := c * g.strides[d]
			for j := start; j < m; j++ {
				buf = append(buf, buf[j]+off)
			}
		}
	}
	return buf
}
