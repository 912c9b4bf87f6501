//go:build race

package dist_test

// raceSlackAllocs is what the race detector adds to TestHashJoinWorkerAllocs'
// count: under it a sync.Pool drops a quarter of what is handed back, and
// the join after a drop grows its answer scratch anew (≈ 19 allocations for
// that test's 4 000-row answer). 84 + 15 is the 99 the bound was before the
// scratch.
const raceSlackAllocs = 15
