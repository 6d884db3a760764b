// Package st4ml is a Go reproduction of "ST4ML: Machine Learning Oriented
// Spatio-Temporal Data Processing at Scale" (SIGMOD 2023): a distributed
// spatio-temporal data processing system for ML feature extraction built on
// a three-stage Selection–Conversion–Extraction pipeline.
//
// The implementation lives in the packages under internal/, driven by the
// command-line tools under cmd/ and the runnable apps under examples/.
// ARCHITECTURE.md's package tour walks every one of them in dataflow order;
// README.md has the quickstart, DESIGN.md the paper mapping and
// substitution notes, and EXPERIMENTS.md the reproduced results.
//
// testdata/surface.txt lists the exported names no production file calls,
// each with the paper section it reproduces or the interface it satisfies;
// surface_test.go keeps that list exact.
package st4ml

// Version identifies this reproduction release.
const Version = "1.0.0"
