//go:build race

package server

// raceEnabled reports that the race detector is on. The exhaustive
// conversion tests, which run on one goroutine and give it nothing to check,
// then take a twentieth of their cases so the repeated race runs stay short.
const raceEnabled = true
