package server

// The device registry: sharded device state, admission, and TTL eviction.
//
// Each shard is an open-addressed, linearly probed table of fixed-size,
// pointer-free slots plus a byte arena holding the device IDs. A slot keeps
// only what outlives a check-in: 32 bytes, two to a cache line (pinned by
// TestSlotLayout). The scores do not: every check-in carries them again, so
// the batch clamps them once and hands them to the snapshot probe and the
// core, and the slot keeps only their grid cell. A warm lookup costs the
// slot's line plus one ID compare against the arena; a cold insert is an
// amortised append to the table and the arena, no per-device allocation. The
// tables and arenas contain no pointers, so the garbage collector never scans
// the registry however large the fleet is.
//
// Slot handles. The serving paths work on *slot handles into a shard's table.
// A handle is valid only while the shard's mutex is held and only until the
// shard's next reserve: reserve may rebuild the table, admit never does. A
// batch therefore locks its shards, reserves room for every insert it could
// make, and only then takes handles, which stay valid — also in the batch's
// core section, which it enters holding the shard locks — until the batch
// unlocks.
//
// Eviction leaves a tombstone so probe runs stay intact. A later insert whose
// probe passes a tombstone reuses it; what remains is reclaimed, along with
// the evicted IDs' arena bytes, by the next rebuild.

import (
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"venn/internal/device"
)

// Slot flags. The zero value is an empty slot, which ends a probe run.
const (
	slotUsed uint8 = 1 << iota // holds a registered device
	slotTomb                   // held an evicted device
	slotBusy                   // the device is reserved by a batch in progress or holds a task
)

// slot is one registered device.
type slot struct {
	lastSeenSec int64  // wall-clock second of the latest check-in; drives TTL eviction
	hash        uint32 // low half of registry.hash of the ID; the high half picked the shard
	idOff       uint32 // the ID is shard.ids[idOff : idOff+idLen]
	idLen       uint32
	dev         int32  // device number, in registration order across the registry
	lastTaskDay int32  // day index of the latest assignment, -1 before the first
	cell        uint16 // grid cell of the latest check-in's scores
	flags       uint8
}

// maxCells is the largest grid a slot's cell field can index.
const maxCells = 1 << 16

// device materialises the scheduler's view of the slot, with the scores of
// the check-in or assignment at hand. The core and the snapshot probe read it
// during the call and never retain it.
func (s *slot) device(cpu, mem float64) device.Device {
	return device.Device{ID: device.ID(s.dev), CPU: cpu, Mem: mem, LastTaskDay: s.lastTaskDay}
}

// minShardSlots is a shard table's initial size; sizes are powers of two.
const minShardSlots = 8

// regShard is one lock stripe of the registry. Everything but mu is guarded
// by mu. The trailing pad keeps neighbouring stripes' mutexes on separate
// cache lines.
type regShard struct {
	mu    sync.Mutex
	slots []slot
	ids   []byte
	live  int // slots with slotUsed
	tombs int // slots with slotTomb
	// dead counts arena bytes that belong to evicted devices.
	dead     int
	rehashes int64
	_        [40]byte
}

// full reports whether n more inserts could push the table past 7/8 load,
// tombstones counted: the bound that keeps an empty slot at the end of every
// probe run.
func (sh *regShard) full(n int) bool {
	return (sh.live+sh.tombs+n)*8 > len(sh.slots)*7
}

// reserve makes room for n more inserts, rebuilding the table if it must, and
// compacts the arena once evicted IDs are more than half of it. It
// invalidates the shard's slot handles.
func (sh *regShard) reserve(n int) {
	if sh.full(n) || sh.dead*2 > len(sh.ids) {
		sh.rehash(n)
	}
}

// rehash rebuilds the table with room for n more inserts, dropping
// tombstones. The table doubles when live devices alone fill half of its load
// bound (purging tombstones would buy too little) and never shrinks.
func (sh *regShard) rehash(n int) {
	need := sh.live + n
	size := len(sh.slots)
	if sh.full(n) && need*16 > size*7 {
		size *= 2
	}
	for need*8 > size*7 {
		size *= 2
	}
	old, oldIDs := sh.slots, sh.ids
	sh.slots = make([]slot, size)
	compact := sh.dead > 0
	if compact {
		sh.ids = make([]byte, 0, len(oldIDs)-sh.dead)
	}
	mask := uint32(size - 1)
	for i := range old {
		s := &old[i]
		if s.flags&slotUsed == 0 {
			continue
		}
		j := s.hash & mask
		for sh.slots[j].flags != 0 {
			j = (j + 1) & mask
		}
		sh.slots[j] = *s
		if compact {
			sh.slots[j].idOff = uint32(len(sh.ids))
			sh.ids = append(sh.ids, oldIDs[s.idOff:uint64(s.idOff)+uint64(s.idLen)]...)
		}
	}
	sh.tombs, sh.dead = 0, 0
	sh.rehashes++
}

// id returns the slot's ID bytes in sh's arena.
func (sh *regShard) id(s *slot) []byte {
	return sh.ids[s.idOff : uint64(s.idOff)+uint64(s.idLen)]
}

// holds reports whether s is id's live slot, given that the hashes match.
func (sh *regShard) holds(s *slot, id string) bool {
	return s.flags&slotUsed != 0 && int(s.idLen) == len(id) && string(sh.id(s)) == id
}

// find returns id's slot and nil, or nil and the slot an insert of id goes
// to: the first tombstone on its probe run, else the run's empty end.
func (sh *regShard) find(h uint64, id string) (found, free *slot) {
	mask, h32 := uint32(len(sh.slots)-1), uint32(h)
	for i := h32 & mask; ; i = (i + 1) & mask {
		s := &sh.slots[i]
		switch {
		case s.flags == 0:
			if free == nil {
				free = s
			}
			return nil, free
		case s.flags == slotTomb:
			if free == nil {
				free = s
			}
		case s.hash == h32 && sh.holds(s, id):
			return s, nil
		}
	}
}

// evict tombstones a registered device.
func (sh *regShard) evict(s *slot) {
	sh.dead += int(s.idLen)
	s.flags = slotTomb
	sh.live--
	sh.tombs++
}

// registry is the sharded device registry.
type registry struct {
	shards []regShard
	seed   maphash.Seed
	// hashMask is all ones; tests narrow it so that distinct IDs share a
	// full 64-bit hash.
	hashMask uint64
	// arenaMax bounds a shard's arena, so that every ID offset fits a
	// slot's idOff; tests narrow it.
	arenaMax    uint64
	grid        *device.Grid
	dailyBudget bool // one task per device per day

	nextDev     atomic.Int64
	busy        atomic.Int64 // devices holding a task
	evictions   atomic.Int64
	sweepCursor atomic.Int64 // round-robins TTL sweeps across shards

	scratchPool sync.Pool // *batchScratch
}

func newRegistry(shards int, grid *device.Grid, dailyBudget bool) *registry {
	r := &registry{
		shards:      make([]regShard, shards),
		seed:        maphash.MakeSeed(),
		hashMask:    ^uint64(0),
		arenaMax:    1 << 32,
		grid:        grid,
		dailyBudget: dailyBudget,
	}
	for i := range r.shards {
		r.shards[i].slots = make([]slot, minShardSlots)
	}
	return r
}

// hash is the one hash taken of a device ID: its high half picks the shard,
// and its low half, which the slot stores for probe compares, the home slot.
func (r *registry) hash(id string) uint64 {
	return maphash.String(r.seed, id) & r.hashMask
}

func (r *registry) shardIndex(h uint64) int {
	return int((h >> 32) * uint64(len(r.shards)) >> 32)
}

// admit runs the shard-local admission checks for one check-in, whose scores
// the caller has clamped, and reserves the device (slotBusy) on success, so
// that a second check-in for it, in this batch or a concurrent one, cannot
// double-book it while the core section runs. The caller holds sh's mutex,
// has reserved room for the insert, and clears the reservation if the
// scheduler hands out no assignment.
//
// Returns (s, nil) when the check-in should proceed to assignment, (nil, nil)
// when it is refused without error (daily task budget), and (nil, err) for a
// busy device or a new one whose ID the shard's arena has no room for.
func (r *registry) admit(sh *regShard, h uint64, id string, cpu, mem float64, day int, nowSec int64) (*slot, error) {
	s, free := sh.find(h, id)
	if s == nil {
		if uint64(len(sh.ids))+uint64(len(id)) > r.arenaMax {
			return nil, ErrRegistryFull
		}
		if free.flags == slotTomb {
			sh.tombs--
		}
		s = free
		*s = slot{
			hash: uint32(h), idOff: uint32(len(sh.ids)), idLen: uint32(len(id)),
			cell: uint16(r.grid.CellOf(cpu, mem)),
			dev:  int32(r.nextDev.Add(1) - 1), lastTaskDay: -1, flags: slotUsed,
		}
		sh.ids = append(sh.ids, id...)
		sh.live++
	} else {
		if s.flags&slotBusy != 0 {
			s.lastSeenSec = nowSec
			return nil, ErrDeviceBusy
		}
		// Hardware doesn't change, but normalization or reporting might; the
		// cached cell follows the scores.
		if !r.grid.Contains(device.CellID(s.cell), cpu, mem) {
			s.cell = uint16(r.grid.CellOf(cpu, mem))
		}
	}
	s.lastSeenSec = nowSec
	if r.dailyBudget && int(s.lastTaskDay) == day {
		return nil, nil
	}
	s.flags |= slotBusy
	return s, nil
}

// sweep evicts, from a rotating fraction of the shards, every device last
// seen before cutoff, busy ones included, and returns how many went. With the
// default 64 shards and a 1s tick, 5 shards a tick, the whole fleet is
// revisited about every 13 seconds, so a huge registry never stalls one tick.
func (r *registry) sweep(cutoff int64) int {
	evicted, busyEvicted := 0, 0
	for n := len(r.shards)/16 + 1; n > 0; n-- {
		sh := &r.shards[int(r.sweepCursor.Add(1)-1)%len(r.shards)]
		sh.mu.Lock()
		for i := range sh.slots {
			s := &sh.slots[i]
			if s.flags&slotUsed == 0 || s.lastSeenSec >= cutoff {
				continue
			}
			if s.flags&slotBusy != 0 {
				busyEvicted++
			}
			sh.evict(s)
			evicted++
		}
		sh.mu.Unlock()
	}
	r.busy.Add(int64(-busyEvicted))
	r.evictions.Add(int64(evicted))
	return evicted
}

// registryStats is the registry's shape, summed over its shards: load factor
// is (Live+Tombstones)/Slots, IDBytes is the arenas' length, evicted IDs not
// yet compacted away included, and Bytes is what the tables and arenas hold
// allocated.
type registryStats struct {
	Slots      int64
	Live       int64
	Tombstones int64
	IDBytes    int64
	Bytes      int64
	Rehashes   int64
}

func (r *registry) stats() registryStats {
	var st registryStats
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		st.Slots += int64(len(sh.slots))
		st.Live += int64(sh.live)
		st.Tombstones += int64(sh.tombs)
		st.IDBytes += int64(len(sh.ids))
		st.Bytes += int64(cap(sh.slots))*int64(unsafe.Sizeof(slot{})) + int64(cap(sh.ids))
		st.Rehashes += sh.rehashes
		sh.mu.Unlock()
	}
	return st
}

// batchScratch is the working set of one batch call, pooled per registry so
// that a warm batch allocates only its result slice. Per item: the ID's hash
// and shard (nil for an item without an ID) and the slot handle the batch
// took. Per batch: the set of shards to lock as a bitmask, how many items
// hash to each (the reserve bound), and the per-cell supply counts.
type batchScratch struct {
	hash   []uint64
	shard  []*regShard
	slots  []*slot
	need   []uint64
	count  []int32
	supply []int64
	// sink receives what touch reads, so the reads are not dead code.
	sink byte
}

// scratch returns a batchScratch for n items with every shard unmarked.
func (r *registry) scratch(n int) *batchScratch {
	sc, _ := r.scratchPool.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{
			need:   make([]uint64, (len(r.shards)+63)/64),
			count:  make([]int32, len(r.shards)),
			supply: make([]int64, r.grid.NumCells()),
		}
	}
	if cap(sc.hash) < n {
		sc.hash = make([]uint64, n)
		sc.shard = make([]*regShard, n)
		sc.slots = make([]*slot, n)
	}
	sc.hash, sc.shard, sc.slots = sc.hash[:n], sc.shard[:n], sc.slots[:n]
	return sc
}

// mark hashes item i's ID, once for the whole batch, and adds its shard to
// the set the batch locks.
func (r *registry) mark(sc *batchScratch, i int, id string) {
	h := r.hash(id)
	k := r.shardIndex(h)
	sc.hash[i], sc.shard[i] = h, &r.shards[k]
	sc.need[k>>6] |= 1 << (k & 63)
	sc.count[k]++
}

// lockMarked locks the marked shards in ascending index order, which keeps
// the global lock order consistent across concurrent batches (shards
// ascending, then the core mutex). With inserts set it reserves, per shard,
// room for every item that hashes there, so the handles the batch takes
// afterwards stay valid until unlockMarked.
func (r *registry) lockMarked(sc *batchScratch, inserts bool) {
	for w, word := range sc.need {
		for ; word != 0; word &= word - 1 {
			k := w<<6 + bits.TrailingZeros64(word)
			sh := &r.shards[k]
			sh.mu.Lock()
			if inserts {
				sh.reserve(int(sc.count[k]))
			}
		}
	}
}

// touch walks every marked item's probe run up to the slot with its hash and
// reads the ends of that slot's ID, comparing nothing. The walks of different
// items depend on nothing but the hashes, so their cache misses overlap
// instead of queueing one probe after another in the admission loop, which
// then finds every line it needs in the cache (a third off a warm 64-item
// batch on a 100,000-device fleet). The caller holds the marked shards.
func (r *registry) touch(sc *batchScratch) {
	var t byte
	for i, sh := range sc.shard {
		if sh == nil {
			continue
		}
		h := uint32(sc.hash[i])
		mask := uint32(len(sh.slots) - 1)
		for j := h & mask; sh.slots[j].flags != 0; j = (j + 1) & mask {
			if s := &sh.slots[j]; s.hash == h && s.idLen > 0 {
				t += sh.ids[s.idOff] + sh.ids[uint64(s.idOff)+uint64(s.idLen)-1]
				break
			}
		}
	}
	sc.sink += t
}

// unlockMarked unlocks the marked shards, unmarks them, drops the handles and
// returns sc to the pool.
func (r *registry) unlockMarked(sc *batchScratch) {
	for w, word := range sc.need {
		for ; word != 0; word &= word - 1 {
			k := w<<6 + bits.TrailingZeros64(word)
			sc.count[k] = 0
			r.shards[k].mu.Unlock()
		}
		sc.need[w] = 0
	}
	clear(sc.shard)
	clear(sc.slots)
	r.scratchPool.Put(sc)
}
