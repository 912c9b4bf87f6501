//go:build race

package datalog

// raceSlackMB is what the race detector's runtime adds to the bytes one
// Eval allocates at TestClosureIsHeldOnce's shape (25.8 MB against 21.5
// in a plain build; 37.5 against 31.3 at PR 22's tree).
const raceSlackMB = 5
