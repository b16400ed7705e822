//go:build race

package main

// raceEnabled reports that the race detector is on: everything runs
// about ten times slower, so the smoke run's timed windows stretch.
const raceEnabled = true
