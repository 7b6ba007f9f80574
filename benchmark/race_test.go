//go:build race

package main

// raceEnabled reports a race-detector build. The detector's runtime runs
// outside Go frames, so CPU samples taken inside it carry no caller to
// charge.
const raceEnabled = true
