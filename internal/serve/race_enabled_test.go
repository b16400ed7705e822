//go:build race

package serve

// raceEnabled reports whether the race detector instruments this run.
const raceEnabled = true
