//go:build !race

package datalog

// raceSlackMB: see race_on_test.go.
const raceSlackMB = 0
