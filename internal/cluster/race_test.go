//go:build race

package cluster

// raceEnabled reports a race-detector build, whose instrumented code
// allocates what a plain build does not.
const raceEnabled = true
