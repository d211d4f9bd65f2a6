// Package hashring is the consistent-hash ownership ring shared by the
// federation layer (internal/cluster) and ring-aware clients
// (internal/client with WithTopology). It is a leaf package — no venn
// imports — because the client cannot depend on the cluster package (the
// dependency runs the other way), yet both sides must derive *identical*
// ownership from the same member set: a client that partitions a batch with
// a different hash or vnode placement than the serving daemons would
// misroute every item it "direct-routes".
//
// Each member contributes VNodes points placed by FNV-1a over
// "<member>#<index>" (finalized by a murmur3-style avalanche); a key is
// owned by the first point clockwise from the key's own hash. A *Ring is
// immutable and safe to share across goroutines without synchronization.
package hashring

import (
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per member. 128 points per member
// keeps the expected ownership imbalance under ~15% for small clusters while
// the whole ring for dozens of members still fits comfortably in cache.
const DefaultVNodes = 128

// bucketBits sizes the Owner lookup index: the 32-bit hash space is split
// into 2^bucketBits equal buckets, each remembering the first ring point at
// or after its start. Lookups then skip the binary search — they start at
// the bucket entry and walk forward an expected vnodes/2^bucketBits (≪1)
// steps. 12 bits = 4096 buckets = 16KB of index, sized so rings of dozens
// of members stay O(1) while the index still fits in L1/L2.
const bucketBits = 12

// Ring is an immutable consistent-hash ring mapping keys (device IDs) to
// member node IDs.
type Ring struct {
	vnodes  int
	hashes  []uint32 // sorted point hashes
	owners  []int32  // members[owners[i]] owns the arc ending at hashes[i]
	members []string // sorted, deduplicated member IDs
	bucket  []int32  // bucket[j] = first i with hashes[i] >= j<<(32-bucketBits)
}

// New builds a ring over the given member IDs with vnodes virtual nodes per
// member (<=0 takes DefaultVNodes). Members are deduplicated; their input
// order does not affect the ring, so every party configured with the same
// member set derives the same ownership no matter how its list was ordered.
func New(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if _, dup := seen[m]; !dup && m != "" {
			seen[m] = struct{}{}
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	type point struct {
		hash  uint32
		owner int32
	}
	points := make([]point, 0, len(uniq)*vnodes)
	for mi, m := range uniq {
		base := m + "#"
		for i := 0; i < vnodes; i++ {
			points = append(points, point{hash: Hash(base + strconv.Itoa(i)), owner: int32(mi)})
		}
	}
	// Ties (two members hashing one point) are broken by owner order (members
	// are sorted, so index order is ID order) so the ring stays a pure
	// function of the member set.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].owner < points[j].owner
	})
	r.hashes = make([]uint32, len(points))
	r.owners = make([]int32, len(points))
	for i, p := range points {
		r.hashes[i] = p.hash
		r.owners[i] = p.owner
	}
	r.bucket = make([]int32, 1<<bucketBits)
	i := 0
	for j := range r.bucket {
		start := uint32(j) << (32 - bucketBits)
		for i < len(r.hashes) && r.hashes[i] < start {
			i++
		}
		r.bucket[j] = int32(i)
	}
	return r
}

// Owner returns the member owning key; an empty ring owns nothing and
// returns "".
func (r *Ring) Owner(key string) string {
	if i := r.OwnerIndex(key); i >= 0 {
		return r.members[i]
	}
	return ""
}

// OwnerIndex returns the owner of key as an index into Members(): the first
// ring point at or clockwise after the key's hash (wrapping at the top). An
// empty ring returns -1.
func (r *Ring) OwnerIndex(key string) int {
	if len(r.hashes) == 0 {
		return -1
	}
	h := Hash(key)
	// First point >= h: the bucket index lands at (or just before) it, and
	// the walk from there is expected-sub-one steps (see bucketBits).
	i := int(r.bucket[h>>(32-bucketBits)])
	for i < len(r.hashes) && r.hashes[i] < h {
		i++
	}
	if i == len(r.hashes) {
		i = 0
	}
	return int(r.owners[i])
}

// Members returns the deduplicated, sorted member IDs.
func (r *Ring) Members() []string { return r.members }

// Size is the number of members on the ring.
func (r *Ring) Size() int { return len(r.members) }

// VNodes is the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// Hash places keys and vnode points on the ring: FNV-1a (the hash family
// the manager's lock stripes use) followed by a murmur3-style avalanche
// finalizer. Raw FNV-1a clusters badly on the near-identical strings members
// produce ("host:9001#17" vs "host:9002#17"), leaving >20% ownership
// imbalance even at 128 vnodes; the finalizer is a bijection on uint32 — it
// changes no equality relations, only disperses the points — and brings the
// imbalance under the 15% budget.
func Hash(s string) uint32 {
	return fmix32(fnv32a(s))
}

// fnv32a is FNV-1a over s, allocation-free (hash/fnv forces a heap handle on
// the hot path). It matches hash/fnv's New32a for byte-identical input.
func fnv32a(s string) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// fmix32 is the murmur3 32-bit finalizer: a cheap bijective avalanche.
func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
