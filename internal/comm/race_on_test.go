//go:build race

package comm

// raceEnabled is set when the tests are built with -race, whose shadow
// allocations testing.AllocsPerRun counts as the program's.
const raceEnabled = true
