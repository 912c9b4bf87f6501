//go:build race

package dist_test

// raceSlackAllocs is what the race detector adds to TestHashJoinWorkerAllocs'
// count: under it a sync.Pool drops a quarter of what is handed back, and
// the join after a drop grows its answer scratch anew (≈ 19 allocations for
// that test's 4 000-row answer). It was set when the bound was 84, as the
// 99 the bound was before the scratch less 84, and kept when the bound fell
// to 52.
const raceSlackAllocs = 15
