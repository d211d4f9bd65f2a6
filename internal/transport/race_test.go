//go:build race

package transport_test

// raceEnabled reports that the race detector is on. It makes sync.Pool drop
// a share of what is put into it, so allocation counts mean nothing then.
const raceEnabled = true
