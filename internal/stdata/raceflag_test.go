//go:build race

package stdata

// raceBuild reports a race-detector build, whose instrumented appends
// allocate what a plain build does not.
const raceBuild = true
