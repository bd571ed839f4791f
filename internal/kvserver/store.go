package kvserver

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"camp/internal/cache"
	"camp/internal/core"
	"camp/internal/persist"
)

// item is one stored key-value pair. Callers hold the server mutex. The key
// is duplicated into the item so hot reads arriving as wire []byte never
// materialize a string: the map lookup converts in place (which Go compiles
// allocation-free) and every downstream consumer — policy bump, VALUE reply
// — reuses this stored string.
//
// Under a non-relocating layout value holds the bytes, and a published item
// is never mutated apart from its deadline — an overwrite installs a new
// item — so handlers may reference key, flags and value after the shard lock
// drops. Under a relocating layout (arena) value is nil, the item is updated
// in place, and readers copy what they need before the lock drops.
type item struct {
	key   string
	value []byte
	// loc is the layout's location word: the buddy block offset, the packed
	// slab handle or the arena record's Ref.
	loc   uint64
	flags uint32
	// deadline is the absolute expiry in Unix nanoseconds, 0 meaning none —
	// the form journal and arena records carry too.
	deadline int64
	// cost is the admission cost the policy charged for this entry, kept
	// here so per-tenant cost-saved accounting on the get path needs no
	// policy lookup.
	cost int64
}

// expired reports whether the item's deadline has passed at now (Unix
// nanoseconds).
func (it *item) expired(now int64) bool { return it.deadline != 0 && now > it.deadline }

// store manages items under one memory layout (memlayout.go): the paper's §5
// malloc/slab/buddy trio or the Memshare-style packed arena.
type store struct {
	cfg    Config
	items  map[string]*item
	layout memLayout
	caps   layoutCaps

	// policy is the default tenant's. Under a tenancy layout each
	// non-default tenant additionally has its own policy in tens, with the
	// store-level arbiter (makeRoom) enforcing the shared capacity.
	policy  cache.Policy
	evicter cache.Evicter
	tens    map[string]*tenantState

	// totalUsed is the running store-resident byte total across the default
	// policy and every tenant policy — what usedAll() returns. Maintained
	// incrementally (noteUsage) against per-policy cached figures so the
	// arbiter's capacity checks are O(1) instead of O(#tenants) per probe.
	totalUsed int64
	// defUsed caches the default policy's last observed Used().
	defUsed int64

	// expiredReclaimed counts items removed because their TTL had passed —
	// on access and by the incremental sweep — as opposed to policy
	// evictions.
	expiredReclaimed uint64
	// evictedBase/rejectedBase carry policy-held counts across flush():
	// flush replaces the policy object, so its lifetime stats are folded in
	// here first.
	evictedBase  uint64
	rejectedBase uint64
}

func newStore(cfg Config) (*store, error) {
	st := &store{cfg: cfg, items: make(map[string]*item)}
	layout, policy, err := newLayout(cfg, st.items)
	if err != nil {
		return nil, err
	}
	st.layout, st.caps, st.policy = layout, layout.caps(), policy
	st.evicter, _ = policy.(cache.Evicter)
	policy.SetEvictFunc(st.onPolicyEvict)
	return st, nil
}

func buildPolicy(cfg Config, capacity int64) (cache.Policy, error) {
	switch cfg.Policy {
	case "camp":
		return core.NewCamp(capacity, core.WithPrecision(cfg.Precision)), nil
	case "lru":
		return cache.NewLRU(capacity), nil
	case "gds":
		return core.NewGDS(capacity), nil
	default:
		return nil, fmt.Errorf("%w: unknown policy %q", errBadConfig, cfg.Policy)
	}
}

// onPolicyEvict keeps the item map and the layout in sync with policy
// evictions.
func (st *store) onPolicyEvict(e cache.Entry) {
	if it, ok := st.items[e.Key]; ok {
		st.layout.release(it.loc)
		delete(st.items, e.Key)
	}
}

func (st *store) itemSize(key string, value []byte) int64 {
	return int64(len(key)) + int64(len(value)) + st.cfg.ItemOverhead
}

// tenantState is one non-default tenant's slice of a shard: its own instance
// of the configured eviction policy (sized to the whole shard — the
// store-level arbiter in makeRoom enforces the real shared limit) plus the
// registry entry carrying its reserve and lifetime counters.
type tenantState struct {
	t       *tenant
	policy  cache.Policy
	evicter cache.Evicter
	// cachedUsed is the policy's last Used() observed by noteUsage, the
	// delta base for the store's running totalUsed.
	cachedUsed int64
}

// ensureTenant creates (or returns) the per-shard policy state for a
// non-default tenant. Tenancy layouts only: the others refuse the tenant
// verb at the protocol layer, and under them a restored namespaced key is
// served as a plain key with no isolation. The caller holds the shard mutex.
func (st *store) ensureTenant(name string) *tenantState {
	if name == defaultTenantName || st.cfg.tenants == nil || !st.caps.tenancy {
		return nil
	}
	if ts, ok := st.tens[name]; ok {
		return ts
	}
	t, _ := st.cfg.tenants.ensure(name)
	p, err := buildPolicy(st.cfg, st.cfg.MemoryBytes)
	if err != nil {
		// The config was already validated at construction.
		panic("kvserver: tenant policy build failed: " + err.Error())
	}
	p.SetEvictFunc(st.onPolicyEvict)
	ts := &tenantState{t: t, policy: p}
	ts.evicter, _ = p.(cache.Evicter)
	if st.tens == nil {
		st.tens = make(map[string]*tenantState)
	}
	st.tens[name] = ts
	return ts
}

// multiTenant reports whether namespaced keys must be routed to per-tenant
// policies. It is driven by the server-wide registry, not this store's tens
// table: tens is a per-shard cache that flush() rebuilds, and routing off it
// was the flush_all escape — after `*st = *fresh` zeroed tens, every
// namespaced key silently landed in the default policy until restart,
// bypassing reserves, arbitration and per-tenant stats.
func (st *store) multiTenant() bool {
	reg := st.cfg.tenants
	return reg != nil && reg.multi.Load() && st.caps.tenancy
}

// policyFor routes a stored key to the policy that owns it: the tenant named
// by the key's NUL-delimited prefix, or the default policy for bare keys.
// With no non-default tenant registered anywhere — the single-tenant fast
// path — the byte scan is skipped entirely: no namespaced key can be
// resident then.
func (st *store) policyFor(key string) cache.Policy {
	p, _ := st.stateFor(key)
	return p
}

// stateFor is policyFor plus the owning tenantState (nil for the default
// tenant), the pair noteUsage needs to keep the running total exact.
func (st *store) stateFor(key string) (cache.Policy, *tenantState) {
	if !st.multiTenant() {
		return st.policy, nil
	}
	if i := strings.IndexByte(key, 0); i >= 0 {
		if ts := st.ensureTenant(key[:i]); ts != nil {
			return ts.policy, ts
		}
	}
	return st.policy, nil
}

// noteUsage re-reads one policy's Used() and folds the delta into the
// store's running total. It must be called after every mutation of a
// policy's contents (set, delete, eviction — including evictions the policy
// performed internally during a Set): the absolute re-read makes the resync
// self-healing no matter how many entries one call displaced.
func (st *store) noteUsage(p cache.Policy, ts *tenantState) {
	cached := &st.defUsed
	if ts != nil {
		cached = &ts.cachedUsed
	}
	u := p.Used()
	st.totalUsed += u - *cached
	*cached = u
}

// shardReserve is this shard's slice of a tenant's server-wide reserve: an
// even split with shard 0 absorbing the remainder, mirroring how New splits
// capacity.
func (st *store) shardReserve(total int64) int64 {
	n := int64(st.cfg.Shards)
	if n <= 1 {
		return total
	}
	per := total / n
	if st.cfg.shardSlot == 0 {
		per += total % n
	}
	return per
}

// usedAll is the store-wide resident byte figure the shared capacity bounds.
// It is the running total noteUsage maintains, so the arbiter's inner loops
// read it in O(1) instead of re-summing every tenant policy.
func (st *store) usedAll() int64 { return st.totalUsed }

// usedAllSlow recomputes the resident total from the policies directly; the
// invariant tests compare it against the running figure.
func (st *store) usedAllSlow() int64 {
	used := st.policy.Used()
	for _, ts := range st.tens {
		used += ts.policy.Used()
	}
	return used
}

// makeRoom frees shared capacity until an insert of size bytes on behalf of
// requester fits. Victims are chosen Memshare-style by evictArbitratedBatch,
// so a false return means the insert must be rejected (nothing evictable
// without breaking another tenant's reserve).
func (st *store) makeRoom(requester cache.Policy, size int64) bool {
	capacity := st.cfg.MemoryBytes
	if size > capacity {
		return false
	}
	for st.usedAll()+size > capacity {
		if !st.evictArbitratedBatch(requester, st.usedAll()+size-capacity) {
			return false
		}
	}
	return true
}

// evictArbitratedBatch frees up to need bytes from the tenant whose next
// victim carries the lowest marginal priority (the policy's H − L urgency),
// considering only tenants holding more than their reserve slice — plus the
// requester itself, which may always churn its own entries. One tenant's
// pressure can therefore drain the shared pool but never another tenant's
// reserve.
//
// After one walk picks the winner, eviction keeps draining the same policy
// while it stays eligible, its victims stay strictly cheapest (urgency below
// every other candidate's — their urgencies cannot change while only the
// winner is mutated), and bytes are still needed. That amortizes the
// O(#tenants) walk across a batch of victims: a large insert under many
// tenants is O(tenants + victims) instead of the old O(tenants × victims).
// Returns false only when nothing was evictable.
func (st *store) evictArbitratedBatch(requester cache.Policy, need int64) bool {
	var (
		found     bool
		best      cache.Policy
		bestTS    *tenantState
		bestEv    cache.Evicter
		bestUrg   float64
		bestOver  int64
		secondUrg float64
		hasSecond bool
	)
	consider := func(p cache.Policy, ts *tenantState, ev cache.Evicter, reserveTotal int64) {
		if ev == nil || p.Len() == 0 {
			return
		}
		over := p.Used() - st.shardReserve(reserveTotal)
		if over <= 0 && p != requester {
			return // within reserve: protected from other tenants' churn
		}
		urg := 0.0
		if vp, ok := p.(cache.VictimPeeker); ok {
			if _, u, ok := vp.PeekVictim(); ok {
				urg = u
			}
		}
		if !found || urg < bestUrg || (urg == bestUrg && over > bestOver) {
			if found {
				secondUrg, hasSecond = bestUrg, true
			}
			found, best, bestTS, bestEv, bestUrg, bestOver = true, p, ts, ev, urg, over
		} else if !hasSecond || urg < secondUrg {
			secondUrg, hasSecond = urg, true
		}
	}
	var defReserve int64
	if reg := st.cfg.tenants; reg != nil {
		defReserve = reg.def.reserve.Load()
	}
	consider(st.policy, nil, st.evicter, defReserve)
	for _, ts := range st.tens {
		consider(ts.policy, ts, ts.evicter, ts.t.reserve.Load())
	}
	if !found {
		return false
	}
	reserve := st.shardReserve(defReserve)
	if bestTS != nil {
		reserve = st.shardReserve(bestTS.t.reserve.Load())
	}
	evictedAny := false
	for need > 0 {
		if _, ok := bestEv.EvictOne(); !ok {
			break
		}
		evictedAny = true
		before := st.usedAll()
		st.noteUsage(best, bestTS)
		need -= before - st.usedAll()
		if need <= 0 || best.Len() == 0 {
			break
		}
		// Still eligible? The winner may have dropped to (or below) its
		// reserve; from there only the requester itself may keep churning.
		if best != requester && best.Used()-reserve <= 0 {
			break
		}
		// Still strictly cheapest? On a tie or crossover, fall back to the
		// caller's loop for a fresh arbitration walk.
		if hasSecond {
			vp, ok := best.(cache.VictimPeeker)
			if !ok {
				break
			}
			_, urg, ok := vp.PeekVictim()
			if !ok || urg >= secondUrg {
				break
			}
		}
	}
	return evictedAny
}

// flushTenant removes every entry owned by one tenant, leaving other
// tenants' entries, the per-tenant policy objects, and the store's lifetime
// counters untouched. Deletions are not evictions, so eviction stats are
// unaffected too.
func (st *store) flushTenant(name string) {
	if !st.caps.tenancy {
		// Layouts without tenancy are single-tenant: only the default name
		// means anything, and flushing it flushes everything.
		if name == defaultTenantName {
			st.flush()
		}
		return
	}
	var p cache.Policy
	if name == defaultTenantName {
		p = st.policy
	} else if ts, ok := st.tens[name]; ok {
		p = ts.policy
	} else {
		return
	}
	keys := make([]string, 0, p.Len())
	if eo, ok := p.(cache.EvictionOrdered); ok {
		eo.VisitEvictionOrder(func(e cache.Entry) bool {
			keys = append(keys, e.Key)
			return true
		})
	}
	for _, k := range keys {
		st.delete(k)
	}
}

// policyLifetime sums lifetime eviction/rejection counts across the default
// policy and every tenant policy.
func (st *store) policyLifetime() (evicted, rejected uint64) {
	s := st.policy.Stats()
	evicted, rejected = s.Evictions, s.Rejected
	for _, ts := range st.tens {
		ts2 := ts.policy.Stats()
		evicted += ts2.Evictions
		rejected += ts2.Rejected
	}
	return evicted, rejected
}

// visitTenantUsage reports per-tenant residency in this store. The caller
// holds the shard mutex.
func (st *store) visitTenantUsage(visit func(name string, used int64, items int, evictions uint64)) {
	visit(defaultTenantName, st.policy.Used(), st.policy.Len(), st.policy.Stats().Evictions)
	for name, ts := range st.tens {
		visit(name, ts.policy.Used(), ts.policy.Len(), ts.policy.Stats().Evictions)
	}
}

// get looks up a live key at now (Unix nanoseconds).
func (st *store) get(key string, now int64) (*item, bool) {
	it, ok := st.items[key]
	if !ok {
		return nil, false
	}
	return st.getResident(it, now)
}

// getBytes is get for a key still in its wire []byte form: the map access
// compiles to a no-allocation lookup, and on a hit the item's own key
// string serves the policy bump, so the read path never allocates.
func (st *store) getBytes(key []byte, now int64) (*item, bool) {
	it, ok := st.items[string(key)]
	if !ok {
		return nil, false
	}
	return st.getResident(it, now)
}

// getResident finishes a get on a mapped item: lazy expiry, then the
// recency/priority bump in whichever structure owns the key.
func (st *store) getResident(it *item, now int64) (*item, bool) {
	if it.expired(now) {
		st.delete(it.key)
		st.expiredReclaimed++
		return nil, false
	}
	if !st.policyFor(it.key).Get(it.key) {
		return nil, false
	}
	return it, true
}

// sweepExpired probes up to n items for passed TTLs and reclaims them,
// counting each in expired_reclaimed. Go's randomized map iteration starts
// every call at a fresh bucket, so the few probes each mutation pays walk
// the whole table over time — the memcached/Redis-style incremental sweep
// that stops expired-but-untouched items from pinning capacity (and
// inflating curr_items/bytes) forever. Runs under the already-held shard
// lock; n stays small so no single request stalls.
func (st *store) sweepExpired(now int64, n int) {
	for key, it := range st.items {
		if n <= 0 {
			return
		}
		n--
		if it.expired(now) {
			st.delete(key)
			st.expiredReclaimed++
		}
	}
}

// maxRelativeExptime is memcached's 30-day cut-off: a larger exptime is an
// absolute Unix time, not a TTL.
const maxRelativeExptime = 30 * 24 * 60 * 60

// expiryFrom converts a memcached exptime to an absolute deadline in Unix
// nanoseconds (0 = none) at now. A negative exptime means "already expired"
// (memcached's invalidation idiom): the deadline lands just behind now, so
// the entry is born expired and the next access or sweep reclaims it. An
// exptime over 30 days is an absolute Unix time, so a past one expires the
// same way; one too far ahead for int64 nanoseconds saturates instead of
// wrapping into the past. Journals and replication carry the deadline, not
// the exptime, so replay reproduces the same expiry.
func expiryFrom(exptime, now int64) int64 {
	const second = int64(1e9)
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return now - 1
	case exptime <= maxRelativeExptime:
		return now + exptime*second
	case exptime > math.MaxInt64/second:
		return math.MaxInt64
	default:
		return exptime * second
	}
}

// set stores a value with an absolute deadline — journals record
// deadlines, not TTLs, so replay does not extend item lifetimes — and an
// optional pinned eviction-priority offset, the form v2 snapshot replay
// uses: a KindSetPrio record re-enters the policy at the exact H − L it held
// when the snapshot was cut, so a mid-churn warm start reproduces the live
// cross-queue eviction schedule. Policies without priority state (LRU, the
// slab class LRUs) ignore the offset — replay order alone restores them
// exactly.
//
// The layout places the value first, with its own pressure loop; then the
// owning policy admits the charge. A failure at either step drops the entry
// entirely — the new bytes and whatever old version remained — so memory
// agrees with the delete the shard journals in its place.
func (st *store) set(key string, value []byte, flags uint32, deadline, cost int64, prio, class uint64, hasPrio bool) bool {
	loc, charge, ok := st.layout.place(st, key, value, flags, deadline)
	if !ok {
		st.delete(key)
		return false
	}
	if !st.policySet(key, charge, cost, prio, class, hasPrio) {
		// The policy dropped any old version itself.
		st.layout.release(loc)
		if old, exists := st.items[key]; exists {
			st.layout.release(old.loc)
			delete(st.items, key)
		}
		return false
	}
	// Re-lookup rather than trusting a pre-place snapshot: the pressure loop
	// or the policy's own evictions may have removed the old version.
	it, exists := st.items[key]
	if exists {
		st.layout.release(it.loc)
	}
	if !exists || !st.caps.relocates {
		it = &item{key: key}
		st.items[key] = it
	}
	if !st.caps.relocates {
		it.value = value
	}
	it.loc, it.flags, it.deadline, it.cost = loc, flags, deadline, cost
	return true
}

// policySet admits through the policy that owns the key, pinning the
// priority offset and class when they were recorded and the policy can
// restore them. On the multi-tenant path the old version is dropped first so
// the arbiter's byte accounting is exact, then makeRoom clears shared
// capacity before the owning policy (whose own capacity is the whole shard)
// admits the entry. Every policy mutation is followed by a noteUsage resync
// so the store's running resident total stays exact.
func (st *store) policySet(key string, size, cost int64, prio, class uint64, hasPrio bool) bool {
	p, ts := st.stateFor(key)
	if st.multiTenant() {
		p.Delete(key)
		st.noteUsage(p, ts)
		if !st.makeRoom(p, size) {
			return false
		}
	}
	ok := false
	if hasPrio {
		if po, isPrio := p.(cache.PriorityOrdered); isPrio {
			ok = po.SetWithPriority(key, size, cost, prio, class)
			st.noteUsage(p, ts)
			return ok
		}
	}
	ok = p.Set(key, size, cost)
	st.noteUsage(p, ts)
	return ok
}

// touch sets a resident item's deadline, in the item and in the layout.
func (st *store) touch(it *item, deadline int64) {
	it.deadline = deadline
	st.layout.touch(it)
}

func (st *store) delete(key string) bool {
	it, ok := st.items[key]
	if !ok {
		return false
	}
	p, ts := st.stateFor(key)
	p.Delete(key)
	st.noteUsage(p, ts)
	st.layout.release(it.loc)
	delete(st.items, key)
	return true
}

func (st *store) peek(key string) (*item, cache.Entry, bool) {
	it, ok := st.items[key]
	if !ok {
		return nil, cache.Entry{}, false
	}
	return st.peekResident(it)
}

// peekBytes is peek for a key in wire form (see getBytes).
func (st *store) peekBytes(key []byte) (*item, cache.Entry, bool) {
	it, ok := st.items[string(key)]
	if !ok {
		return nil, cache.Entry{}, false
	}
	return st.peekResident(it)
}

func (st *store) peekResident(it *item) (*item, cache.Entry, bool) {
	e, ok := st.policyFor(it.key).Peek(it.key)
	return it, e, ok
}

func (st *store) flush() {
	fresh, err := newStore(st.cfg)
	if err != nil {
		// The config was already validated at construction.
		panic("kvserver: flush rebuild failed: " + err.Error())
	}
	// Lifetime counters survive the flush, as memcached's stats do. The
	// policy object is being replaced, so its counts fold into the bases.
	reclaimed := st.expiredReclaimed
	evictedBase, rejectedBase := st.evictedBase, st.rejectedBase
	ev, rej := st.policyLifetime()
	evictedBase += ev
	rejectedBase += rej
	*st = *fresh
	st.expiredReclaimed = reclaimed
	st.evictedBase, st.rejectedBase = evictedBase, rejectedBase
	// Rebuild the per-tenant policy states eagerly from the registry, which
	// survives the flush: connections still hold their *tenant, and the next
	// namespaced write must land in its tenant's (fresh) policy — with
	// reserves and arbitration intact — not escape into the default one.
	if reg := st.cfg.tenants; reg != nil && st.caps.tenancy {
		for _, t := range reg.list() {
			if t.name != defaultTenantName {
				st.ensureTenant(t.name)
			}
		}
	}
}

func (st *store) len() int { return len(st.items) }

func (st *store) evictions() uint64 {
	ev, _ := st.policyLifetime()
	return st.evictedBase + ev
}

func (st *store) policyName() string { return st.policy.Name() }

func (st *store) queueCount() int {
	qc, ok := st.policy.(cache.QueueCounter)
	if !ok {
		return -1
	}
	n := qc.QueueCount()
	for _, ts := range st.tens {
		if tq, ok := ts.policy.(cache.QueueCounter); ok {
			n += tq.QueueCount()
		}
	}
	return n
}

// reclaimed returns how many expired items lazy expiry has removed.
func (st *store) reclaimed() uint64 { return st.expiredReclaimed }

// rejected returns how many Set calls the eviction policy refused, so
// operators can watch admission pressure.
func (st *store) rejected() uint64 {
	_, rej := st.policyLifetime()
	return st.rejectedBase + rej
}

// apply applies one op to the store. It is the one mutation entry point
// for every op, whoever produced it: a client write (shard.write), journal
// recovery, replication and migration. Sets go through the configured
// eviction policy, so replay rebuilds CAMP's queues and heap with the costs
// the original run learned. applied reports whether the op took effect: false
// for a set the layout or policy refuses (e.g. a restart with less memory;
// the key is dropped, mirroring live admission) and for a delete or touch of
// an absent key. The persist decoder rejects unknown kinds, so none reaches
// here.
func (st *store) apply(op persist.Op) (applied bool) {
	switch op.Kind {
	case persist.KindSet, persist.KindSetPrio:
		return st.set(op.Key, op.Value, op.Flags, op.Expires, op.Cost, op.Priority, op.Class, op.Kind == persist.KindSetPrio)
	case persist.KindDelete:
		return st.delete(op.Key)
	case persist.KindTouch:
		it, ok := st.items[op.Key]
		if ok {
			st.touch(it, op.Expires)
		}
		return ok
	case persist.KindFlush:
		// Keyless flushes clear the whole store (the only form before
		// multi-tenancy); keyed ones clear one tenant's namespace.
		if op.Key == "" {
			st.flush()
		} else {
			st.flushTenant(op.Key)
		}
	case persist.KindPosition:
		// Replication bookkeeping, not data; the recovery wrapper that
		// cares about positions tracks them before calling apply.
	case persist.KindScale:
		// The scale only ever widens, so installing one source's scale in
		// every policy is safe and keeps tenant replay order-independent.
		if ps, ok := st.policy.(cache.PriorityScaled); ok {
			ps.RestorePriorityScale(op.Scale)
		}
		for _, ts := range st.tens {
			if ps, ok := ts.policy.(cache.PriorityScaled); ok {
				ps.RestorePriorityScale(op.Scale)
			}
		}
	case persist.KindTenant:
		if reg := st.cfg.tenants; reg != nil {
			t, _ := reg.ensure(op.Key)
			t.reserve.Store(op.Reserve)
			st.ensureTenant(op.Key)
		}
	}
	return true
}

// collectOps copies every live entry out as a snapshot op, in each policy's
// eviction order, and — for the priority policies (CAMP, GDS) — with each
// entry's exact priority offset (H − L) as a KindSetPrio record, so
// replaying the ops rebuilds not just the queues' order but the live
// cross-queue eviction schedule, byte-exact even after eviction churn
// (snapshot format v2). Pure-recency policies (LRU, the slab class LRUs)
// stay KindSet: their order is their entire state. The caller holds the
// shard mutex only for this copy-out; the returned ops alias the stored
// value slices, which is safe to serialize after unlocking because a
// non-relocating layout never mutates a stored value in place. A relocating
// layout's values are copied out here, under the lock.
func (st *store) collectOps() []persist.Op {
	ops := make([]persist.Op, 0, len(st.items))
	// Tenant identity and quotas go first, so replay re-creates every
	// tenant — including ones with no resident keys — before any entry
	// lands or any keyed flush needs a namespace to clear.
	if reg := st.cfg.tenants; reg != nil {
		for _, t := range reg.list() {
			if t.prefix == "" && t.reserve.Load() == 0 {
				continue // the bare default tenant is implicit
			}
			ops = append(ops, persist.Op{Kind: persist.KindTenant, Key: t.name, Reserve: t.reserve.Load()})
		}
	}
	add := func(e cache.Entry, prio, class uint64, kind persist.Kind) bool {
		it, ok := st.items[e.Key]
		if !ok {
			return true
		}
		value := st.layout.value(it)
		if st.caps.relocates {
			value = append([]byte(nil), value...)
		}
		ops = append(ops, persist.Op{
			Kind:     kind,
			Key:      e.Key,
			Value:    value,
			Flags:    it.flags,
			Expires:  it.deadline,
			Size:     st.itemSize(e.Key, value),
			Cost:     e.Cost,
			Priority: prio,
			Class:    class,
		})
		return true
	}
	emitPolicy := func(p cache.Policy) {
		if po, ok := p.(cache.PriorityOrdered); ok {
			// The adaptive scale goes first so replay buckets every
			// subsequent Set with the live workload's learned state.
			if ps, ok := p.(cache.PriorityScaled); ok {
				ops = append(ops, persist.Op{Kind: persist.KindScale, Scale: ps.PriorityScale()})
			}
			po.VisitEvictionPriority(func(e cache.Entry, prio, class uint64) bool {
				return add(e, prio, class, persist.KindSetPrio)
			})
		} else if eo, ok := p.(cache.EvictionOrdered); ok {
			eo.VisitEvictionOrder(func(e cache.Entry) bool { return add(e, 0, 0, persist.KindSet) })
		}
	}
	emitPolicy(st.policy)
	names := make([]string, 0, len(st.tens))
	for name := range st.tens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		emitPolicy(st.tens[name].policy)
	}
	return ops
}

// collectOpsFiltered is collectOps restricted to a tenant subset, the shape a
// tenant-filtered FULLSYNC bootstrap ships: the subset's entries and
// KindTenant records, plus every KindScale record — the adaptive scale only
// ever widens, so installing the source's scale in all of the follower's
// policies is safe (mirroring apply's KindScale handling) and keeps the
// filter stateless. names must be sorted/deduped (Config validation does).
func (st *store) collectOpsFiltered(names []string) []persist.Op {
	ops := st.collectOps()
	out := ops[:0]
	for _, op := range ops {
		switch op.Kind {
		case persist.KindTenant:
			if tenantInSubset(names, op.Key) {
				out = append(out, op)
			}
		case persist.KindScale:
			out = append(out, op)
		default:
			if keyInAnyTenant(names, op.Key) {
				out = append(out, op)
			}
		}
	}
	return out
}

// emitOps writes the ops collected by collectOps, the shape
// persist.Compaction.Commit and persist.WriteSnapshotFile expect.
func emitOps(ops []persist.Op) func(write func(persist.Op) error) error {
	return func(write func(persist.Op) error) error {
		for _, op := range ops {
			if err := write(op); err != nil {
				return err
			}
		}
		return nil
	}
}
