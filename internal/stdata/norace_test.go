//go:build !race

package stdata_test

// raceEnabled reports a race-detector build, whose instrumented appends
// allocate what a plain build does not.
const raceEnabled = false
