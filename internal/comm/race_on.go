//go:build race

package comm

// raceEnabled is set when the package is built with -race: the
// dispatch loop then poisons every payload it lent to a handler once
// the handler returns, so a handler that keeps one fails under the
// race lane (see reclaim in endpoint.go). The package's tests read it
// too; testutil.RaceEnabled, which other packages' tests use, cannot be
// imported here because testutil imports testing.
const raceEnabled = true
