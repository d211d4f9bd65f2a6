package transport

import (
	"sync"

	"venn/internal/server"
)

// Frame buffer pooling. GetBuf/PutBuf recycle byte slices through a
// sync.Pool so the client's request scratch and reply buffers, the relay's
// coalescing buffers, and the server's detour for frames larger than a
// connection's read buffer all reuse steady-state memory.
//
// The pool holds *[]byte (not []byte) so Put never allocates an interface
// box for the slice header, and the boxes themselves cycle through boxPool:
// GetBuf empties the box it drew and parks it there, PutBuf draws one for the
// buffer it is handed (taking the address of its own parameter instead would
// move that to the heap on every call). Buffers above maxPooledBuf are left
// to the GC: one multi-megabyte metrics reply must not pin its footprint
// forever. Buffers below minPooledBuf are left to it too: PutBuf accepts any
// buffer its caller owns, and one json.Marshal result of a hundred bytes,
// once pooled, would fail every GetBuf that drew it — each failure putting it
// back and allocating a fresh buffer beside it.
const (
	minPooledBuf = 4096
	maxPooledBuf = 1 << 20
)

var (
	bufPool = sync.Pool{New: func() any { b := make([]byte, 0, minPooledBuf); return &b }}
	boxPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBuf returns a zero-length buffer with capacity at least n. The buffer
// is pool-owned: hand it back with PutBuf once nothing references it.
func GetBuf(n int) []byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		// Too small for this caller; recycle it for a smaller one.
		bufPool.Put(bp)
		return make([]byte, 0, n)
	}
	b := (*bp)[:0]
	*bp = nil
	boxPool.Put(bp)
	return b
}

// poison does nothing in a normal build. Under the poolcheck build tag it
// overwrites b with 0xA5, which is how a test finds a string or a range that
// still points into bytes their owner has given up.
func poison(b []byte) {
	if server.Poolcheck {
		for i := range b {
			b[i] = 0xA5
		}
	}
}

// PutBuf returns a buffer obtained from GetBuf (or any buffer the caller
// owns outright) to the pool. The caller must not touch b afterwards.
func PutBuf(b []byte) {
	if cap(b) < minPooledBuf || cap(b) > maxPooledBuf {
		return
	}
	poison(b[:cap(b)])
	bp := boxPool.Get().(*[]byte)
	*bp = b[:0]
	bufPool.Put(bp)
}
