package experiments

// E-DELTA: the incremental-maintenance experiment. A hypercube
// distribution routes every tuple to the grid points that could need
// it, and that routing is a pure per-tuple function — so maintaining
// the distribution under a one-tuple change costs exactly the tuple's
// replication factor, independent of the database size. This
// experiment measures that claim against the alternative the rest of
// the world uses: throw the answer away and re-join from scratch. For
// each (n, p) cell it builds a maintained triangle distribution,
// applies a single-tuple append, and compares the maintenance bits
// against a full cold re-join of the post-delta database. The ratio
// is the paper's argument in one number: re-join moves Θ(n·fanout)
// tuples, maintenance moves fanout.

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/relation"
)

// DeltaRow is one point of the E-DELTA experiment: single-tuple
// maintenance cost versus full re-join cost for one database size and
// pool size.
type DeltaRow struct {
	// N is the per-relation database size.
	N int
	// P is the number of servers.
	P int
	// Fanout is the changed atom's replication factor — the per-tuple
	// maintenance bound.
	Fanout int
	// MaintTuples is the number of delta tuple receipts the
	// maintenance batch caused across workers (≤ Fanout for a
	// single-tuple batch).
	MaintTuples int64
	// MaintBits is the communication the maintenance batch cost.
	MaintBits int64
	// RejoinBits is the communication a full cold re-join of the
	// post-delta database costs (scatter + join + gather).
	RejoinBits int64
	// Ratio is RejoinBits / MaintBits — how much cheaper maintaining
	// the view is than recomputing it.
	Ratio float64
}

// Delta runs the E-DELTA experiment: a triangle query over the
// identity database at every size in ns, maintained on every pool
// size in ps. Each cell appends one fresh tuple to S1 through the
// maintainer and cross-checks the warm answer count against the cold
// re-join before comparing their communication costs.
func Delta(w io.Writer, ns []int, ps []int, seed uint64) ([]DeltaRow, error) {
	q := query.Cycle(3)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "E-DELTA: triangle, single-tuple append, maintenance vs full re-join")
	fmt.Fprintln(tw, "n\tp\tfanout\tmaint tuples\tmaint bits\tre-join bits\tre-join/maint")
	var rows []DeltaRow
	for _, n := range ns {
		if n < 2 {
			return nil, fmt.Errorf("experiments: delta with n=%d, need ≥ 2", n)
		}
		// The identity database has exactly n triangles, all of the
		// form (i,i,i); the appended S1 tuple (1,2) is in-domain,
		// absent, and closes no triangle, so the warm answer set must
		// stay at n — a maintenance bug shows up as a count drift
		// against the cold re-join.
		db := relation.IdentityDatabase(q, n)
		fresh := relation.Tuple{1, 2}
		delta := relation.Delta{Appends: map[string][]relation.Tuple{"S1": {fresh}}}
		ndb, effects, err := relation.ApplyDelta(db, delta)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			if p < 1 {
				return nil, fmt.Errorf("experiments: delta with p=%d", p)
			}
			row, err := deltaCell(q, db, ndb, effects, n, p, seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%.1f×\n",
				row.N, row.P, row.Fanout, row.MaintTuples, row.MaintBits, row.RejoinBits, row.Ratio)
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return rows, nil
}

// deltaCell measures one (n, p) cell: maintain the warm distribution
// of db under effects, cold re-join ndb, and compare the two costs.
func deltaCell(q *query.Query, db, ndb *relation.Database, effects map[string]relation.Effect, n, p int, seed uint64) (*DeltaRow, error) {
	opts := hypercube.Options{Seed: seed}
	m, err := hypercube.NewMaintainer(q, db, p, opts)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	rep, err := m.ApplyDelta(effects)
	if err != nil {
		return nil, err
	}
	fanout := m.Fanout("S1")
	if rep.RoutedTuples > int64(fanout) {
		return nil, fmt.Errorf("experiments: delta n=%d p=%d routed %d tuples, above the replication factor %d",
			n, p, rep.RoutedTuples, fanout)
	}
	cold, err := hypercube.Run(q, ndb, p, opts)
	if err != nil {
		return nil, err
	}
	if got, want := m.Answers().Len(), cold.Run.Len(); got != want {
		return nil, fmt.Errorf("experiments: delta n=%d p=%d maintained %d answers, cold re-join found %d",
			n, p, got, want)
	}
	row := &DeltaRow{
		N:           n,
		P:           p,
		Fanout:      fanout,
		MaintTuples: rep.RoutedTuples,
		MaintBits:   rep.Bits,
		RejoinBits:  cold.Stats.TotalBits(),
	}
	if row.MaintBits > 0 {
		row.Ratio = float64(row.RejoinBits) / float64(row.MaintBits)
	}
	return row, nil
}
