//go:build !race

package serve

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// quarter of what is put back and whose instrumented appends allocate what
// a plain build does not.
const raceEnabled = false
