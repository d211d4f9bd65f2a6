//go:build !poolcheck

package server

// Poolcheck is set by the poolcheck build tag; see poolcheck_on.go.
const Poolcheck = false
