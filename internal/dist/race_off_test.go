//go:build !race

package dist_test

// raceSlackAllocs: see race_on_test.go.
const raceSlackAllocs = 0
