//go:build poolcheck

package server

// Poolcheck is set by the poolcheck build tag: buffers are overwritten the
// moment their owner gives them up (transport.PutBuf, BatchBuf.Release).
const Poolcheck = true
