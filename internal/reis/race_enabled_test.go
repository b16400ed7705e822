//go:build race

package reis

// raceEnabled reports whether the race detector instruments this run.
const raceEnabled = true
