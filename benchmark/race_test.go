//go:build race

package main

// raceEnabled reports that the race detector instruments this build. It
// slows the wrapped layers and the code between them unevenly, so the
// layer sums are not checked.
const raceEnabled = true
