package kvserver

import (
	"errors"
	"fmt"
	"math"

	"camp/internal/alloc"
	"camp/internal/cache"
)

// memLayout is where a store keeps its values: one of the paper's §5 memory
// managers (malloc as "byte", Twemcache's slab classes, a buddy arena) or
// Memshare's packed log-structured arena. The store owns the items map and
// the eviction policies and calls only this interface; everything
// layout-specific — placement, the pressure loop that runs when a value
// does not fit, where the bytes live — stays behind it. Every method runs
// under the shard lock.
type memLayout interface {
	// place makes room for key's new value with the layout's own pressure
	// loop and stores it. It returns the item's location word and the bytes
	// the owning policy is charged; false means the value cannot be placed.
	place(st *store, key string, value []byte, flags uint32, deadline int64) (loc uint64, charge int64, ok bool)
	// value returns an item's bytes. Under a relocating layout the slice
	// aliases layout memory and is valid only while the shard lock is held.
	value(it *item) []byte
	// release frees the space at an item's location word: on delete, on
	// eviction, for the old version of an overwritten key and for a placed
	// value the policy then refused.
	release(loc uint64)
	// touch records it.deadline wherever the layout keeps its own copy.
	touch(it *item)
	caps() layoutCaps
}

// layoutCaps are the only two layout properties code outside the layouts
// may depend on.
type layoutCaps struct {
	// tenancy: several per-tenant policies can share the layout, with the
	// store-level arbiter (makeRoom) enforcing the one capacity.
	tenancy bool
	// relocates: value bytes move after placement, so a reader must copy
	// them before the shard lock drops. In exchange place copies the value
	// in, so a set may pass pooled scratch.
	relocates bool
}

// newLayout builds cfg.Mode's layout and the default tenant's policy, which
// for slab is the layout itself (its class LRUs). items is the store's map,
// which the slab and arena layouts index into and which is never
// reassigned.
func newLayout(cfg Config, items map[string]*item) (memLayout, cache.Policy, error) {
	switch cfg.Mode {
	case ModeByte:
		p, err := buildPolicy(cfg, cfg.MemoryBytes)
		return byteLayout{}, p, err
	case ModeSlab:
		var opts []alloc.SlabOption
		if cfg.SlabSize > 0 {
			opts = append(opts, alloc.WithSlabSize(cfg.SlabSize))
		}
		a, err := alloc.NewSlabAllocator(cfg.MemoryBytes, opts...)
		if err != nil {
			return nil, nil, err
		}
		l := &slabLayout{a: a, items: items, classes: make([]*cache.LRU, a.NumClasses())}
		for i := range l.classes {
			chunk := a.ChunkSize(i)
			l.classes[i] = cache.NewLRU(math.MaxInt64)
			l.classes[i].SetEvictFunc(func(e cache.Entry) {
				l.used -= chunk
				l.onEvict(e)
			})
		}
		return l, l, nil
	case ModeBuddy:
		minBlock := cfg.MinBlock
		if minBlock == 0 {
			minBlock = 64
		}
		b, err := alloc.NewBuddyAllocator(cfg.MemoryBytes, minBlock)
		if err != nil {
			return nil, nil, err
		}
		p, err := buildPolicy(cfg, b.ArenaSize())
		return buddyLayout{b: b}, p, err
	case ModeArena:
		a, err := alloc.NewArena(cfg.MemoryBytes, cfg.ArenaSegment)
		if err != nil {
			return nil, nil, err
		}
		l := &arenaLayout{a: a}
		// Bound once so the per-set compaction steps never allocate a
		// closure.
		l.alive = func(key []byte, ref alloc.Ref) bool {
			it, ok := items[string(key)]
			return ok && it.loc == uint64(ref)
		}
		l.moved = func(key []byte, ref alloc.Ref) {
			if it, ok := items[string(key)]; ok {
				it.loc = uint64(ref)
			}
		}
		p, err := buildPolicy(cfg, cfg.MemoryBytes)
		return l, p, err
	}
	return nil, nil, fmt.Errorf("%w: unknown mode %q", errBadConfig, cfg.Mode)
}

// heapValues is the value side of the non-relocating layouts: each value
// keeps its own heap slice in the item, and the deadline lives only there.
type heapValues struct{}

func (heapValues) value(it *item) []byte { return it.value }
func (heapValues) touch(*item)           {}

// byteLayout is malloc: the policy is charged the item's exact size.
type byteLayout struct{ heapValues }

func (byteLayout) place(st *store, key string, value []byte, _ uint32, _ int64) (uint64, int64, bool) {
	return 0, st.itemSize(key, value), true
}

func (byteLayout) release(uint64)   {}
func (byteLayout) caps() layoutCaps { return layoutCaps{tenancy: true} }

// buddyLayout rounds each item to a power-of-two block of a buddy arena and
// charges the policy the block; the policy chooses victims when the arena
// is full. The location word is the block offset.
type buddyLayout struct {
	heapValues
	b *alloc.BuddyAllocator
}

func (l buddyLayout) place(st *store, key string, value []byte, _ uint32, _ int64) (uint64, int64, bool) {
	// Drop the previous version first so the pressure loop never evicts it.
	st.delete(key)
	size := st.itemSize(key, value)
	block, err := l.b.BlockSize(size)
	if err != nil {
		return 0, 0, false
	}
	for {
		off, err := l.b.Alloc(size)
		if err == nil {
			return uint64(off), block, true
		}
		if !errors.Is(err, alloc.ErrNoMemory) {
			return 0, 0, false
		}
		// The policy picks a victim; the eviction callback frees its block.
		if _, ok := st.evicter.EvictOne(); !ok {
			return 0, 0, false
		}
		st.noteUsage(st.policy, nil)
	}
}

func (l buddyLayout) release(loc uint64) { l.b.Free(int64(loc)) }
func (buddyLayout) caps() layoutCaps     { return layoutCaps{} }

// slabLayout is Twemcache's layout (§5): fixed-size slabs carved into
// per-class chunks, each class ordered by its own LRU. The class LRUs are
// presented as the store's policy (the cache.Policy methods below), whose
// Used is chunk bytes, so the store drives slab through the same calls as
// every other layout. The location word is the packed slab handle.
type slabLayout struct {
	heapValues
	a       *alloc.SlabAllocator
	items   map[string]*item
	classes []*cache.LRU
	// used is the chunk bytes held by resident items; reassigned counts the
	// items random slab eviction purged, which no class LRU sees.
	used       int64
	reassigned uint64
	onEvict    cache.EvictFunc
}

// place implements Twemcache's §5 strategy: free chunk or new slab (inside
// Alloc), then the class LRU's victim, then random slab eviction.
func (l *slabLayout) place(st *store, key string, value []byte, _ uint32, _ int64) (uint64, int64, bool) {
	st.delete(key)
	size := st.itemSize(key, value)
	class, err := l.a.ClassFor(size)
	if err != nil {
		return 0, 0, false
	}
	defer st.noteUsage(st.policy, nil)
	for {
		h, err := l.a.Alloc(key, size)
		if err == nil {
			return uint64(h), size, true
		}
		if !errors.Is(err, alloc.ErrNoMemory) {
			return 0, 0, false
		}
		if _, ok := l.classes[class].EvictOne(); ok {
			continue
		}
		owners, ok := l.a.ReassignRandomSlab(class)
		if !ok {
			return 0, 0, false
		}
		// The reassigned slab's chunks are gone already: unlink the owners
		// without freeing them.
		for _, owner := range owners {
			if c, ok := l.classOf(owner); ok && l.classes[c].Delete(owner) {
				l.used -= l.a.ChunkSize(c)
				l.reassigned++
				delete(l.items, owner)
			}
		}
	}
}

func (l *slabLayout) release(loc uint64) { l.a.Free(alloc.Handle(loc)) }
func (*slabLayout) caps() layoutCaps     { return layoutCaps{} }

func (l *slabLayout) classOf(key string) (int, bool) {
	it, ok := l.items[key]
	if !ok {
		return 0, false
	}
	return alloc.Handle(it.loc).Class(), true
}

// Name implements cache.Policy.
func (*slabLayout) Name() string { return "lru-slab" }

// Get implements cache.Policy: a hit refreshes the key in its class LRU.
func (l *slabLayout) Get(key string) bool {
	c, ok := l.classOf(key)
	return ok && l.classes[c].Get(key)
}

// Set implements cache.Policy. place has already removed any previous
// version and allocated the chunk, so this only links the key into its
// class LRU.
func (l *slabLayout) Set(key string, size, cost int64) bool {
	c, err := l.a.ClassFor(size)
	if err != nil || !l.classes[c].Set(key, size, cost) {
		return false
	}
	l.used += l.a.ChunkSize(c)
	return true
}

// Delete implements cache.Policy.
func (l *slabLayout) Delete(key string) bool {
	c, ok := l.classOf(key)
	if !ok || !l.classes[c].Delete(key) {
		return false
	}
	l.used -= l.a.ChunkSize(c)
	return true
}

// Contains implements cache.Policy.
func (l *slabLayout) Contains(key string) bool {
	c, ok := l.classOf(key)
	return ok && l.classes[c].Contains(key)
}

// Peek implements cache.Policy; the entry carries the item's exact size.
func (l *slabLayout) Peek(key string) (cache.Entry, bool) {
	c, ok := l.classOf(key)
	if !ok {
		return cache.Entry{}, false
	}
	return l.classes[c].Peek(key)
}

// Len implements cache.Policy.
func (l *slabLayout) Len() int { return len(l.items) }

// Used implements cache.Policy: chunk bytes, not exact item sizes.
func (l *slabLayout) Used() int64 { return l.used }

// Capacity implements cache.Policy: every slab the allocator may carve.
func (l *slabLayout) Capacity() int64 {
	return int64(l.a.MaxSlabs()) * l.a.ChunkSize(l.a.NumClasses()-1)
}

// Stats implements cache.Policy, summing the class LRUs.
func (l *slabLayout) Stats() cache.Stats {
	s := cache.Stats{Evictions: l.reassigned}
	for _, c := range l.classes {
		cs := c.Stats()
		s.Hits += cs.Hits
		s.Misses += cs.Misses
		s.Sets += cs.Sets
		s.Updates += cs.Updates
		s.Evictions += cs.Evictions
		s.EvictedBytes += cs.EvictedBytes
		s.Rejected += cs.Rejected
	}
	return s
}

// SetEvictFunc implements cache.Policy.
func (l *slabLayout) SetEvictFunc(fn cache.EvictFunc) { l.onEvict = fn }

// VisitEvictionOrder implements cache.EvictionOrdered: each class queue in
// LRU order, classes ascending, so a snapshot rebuilds every class queue in
// its original order.
func (l *slabLayout) VisitEvictionOrder(visit func(cache.Entry) bool) {
	stopped := false
	for _, c := range l.classes {
		c.VisitEvictionOrder(func(e cache.Entry) bool {
			stopped = !visit(e)
			return !stopped
		})
		if stopped {
			return
		}
	}
}

// arenaCompactStride bounds how many record bytes one set's incremental
// compaction step may scan, amortizing reclamation across operations the way
// sweepExpired amortizes expiry.
const arenaCompactStride = 32 << 10

// arenaLayout packs keys and values as records into per-shard
// log-structured segments (Memshare-style); the location word is the
// record's alloc.Ref and the item's value is nil. The compactor relocates
// live records, so the layout relocates, and a set copies its value in.
type arenaLayout struct {
	a     *alloc.Arena
	alive func(key []byte, ref alloc.Ref) bool
	moved func(key []byte, ref alloc.Ref)
}

// place appends the record, clearing space on pressure: compaction first
// (it reclaims dead bytes for free), then eviction arbitrated on behalf of
// the key's tenant. The loop terminates — each CompactForce recycles a whole
// segment or reports false, and each eviction removes one resident entry.
func (l *arenaLayout) place(st *store, key string, value []byte, flags uint32, deadline int64) (uint64, int64, bool) {
	// One bounded compaction step per set once a segment's dead-byte ratio
	// crossed the threshold. It runs first, while the index is consistent.
	if l.a.NeedsCompaction() {
		l.a.CompactStep(arenaCompactStride, l.alive, l.moved)
	}
	size := st.itemSize(key, value)
	if size > st.cfg.MemoryBytes {
		return 0, 0, false
	}
	requester := st.policyFor(key)
	for {
		ref, err := l.a.Append(key, value, flags, deadline)
		if err == nil {
			return uint64(ref), size, true
		}
		if l.a.CompactForce(l.alive, l.moved) {
			continue
		}
		if !st.evictArbitratedBatch(requester, 1) {
			return 0, 0, false
		}
	}
}

func (l *arenaLayout) value(it *item) []byte { return l.a.Value(alloc.Ref(it.loc)) }
func (l *arenaLayout) release(loc uint64)    { l.a.Release(alloc.Ref(loc)) }

// touch rewrites the packed record's deadline too, so a future rebuild from
// the segments sees the touched value.
func (l *arenaLayout) touch(it *item) { l.a.TouchExpiry(alloc.Ref(it.loc), it.deadline) }
func (*arenaLayout) caps() layoutCaps { return layoutCaps{tenancy: true, relocates: true} }

// arenaStats reports a store's packed-arena accounting; the zero value under
// every other layout.
func arenaStats(l memLayout) alloc.ArenaStats {
	if al, ok := l.(*arenaLayout); ok {
		return al.a.Stats()
	}
	return alloc.ArenaStats{}
}
