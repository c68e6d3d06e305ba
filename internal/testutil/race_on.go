//go:build race

package testutil

// RaceEnabled is set when the tests are built with -race, whose shadow
// allocations testing.AllocsPerRun counts as the program's: allocation
// guards skip themselves under it.
const RaceEnabled = true
