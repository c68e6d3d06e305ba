//go:build race

package main

// raceDetector is set when the tests are built with -race, whose shadow
// allocations MemStats counts as the program's.
const raceDetector = true
