//! The PXGW flow table: bounded, LRU-evicting, per-flow state storage.
//!
//! §3 of the paper: "packet merging requires identifying flows and
//! determining whether incoming packets are contiguous and mergeable,
//! which inevitably introduces per-flow state … it is essential … to
//! adopt data structures that support fast lookup of adjacent packets
//! under a large number of flows."
//!
//! Layout: entries live in a slab (`Vec<Slot>` plus a free list) and an
//! *intrusive doubly-linked LRU list* threads through them by slot
//! index, so a lookup refresh and an eviction are both O(1) pointer
//! splices — the previous implementation rescanned the whole map
//! (`iter().min_by_key`) to find the LRU victim on every full insert.
//! A `HashMap<FlowKey, slot>` keyed by a fast deterministic FxHash-style
//! hasher (the flow tuple is already uniformly mixed by Toeplitz RSS
//! upstream; SipHash's DoS hardening buys nothing here and costs ~3× per
//! lookup) provides the index. An optional per-entry deadline feeds a
//! binary heap so hold-timer expiry (`pop_expired`) is O(log n) pops of
//! actually-expired entries.
//!
//! Capacity is fixed at construction; inserting into a full table evicts
//! the least-recently-used flow (its state is returned to the caller so
//! pending merges can be flushed rather than dropped). Lookups are
//! counted so the cycle model can price them.
//!
//! LRU semantics are identical to the old clock-counter version —
//! `get_mut` and `insert` each count one lookup and refresh recency
//! (misses included in the count), eviction picks the least recently
//! touched entry — a property the model-equivalence test pins.

use px_wire::FlowKey;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Sentinel slot index terminating the LRU list.
const NIL: u32 = u32::MAX;

/// Deadline value meaning "never expires": such entries skip the heap.
pub const NO_DEADLINE: u64 = u64::MAX;

/// An FxHash-style deterministic hasher for flow keys.
///
/// The 5-tuple reaching this table was already spread across cores by
/// the Toeplitz RSS hash, so keys arriving at one table are naturally
/// diverse; a multiply-rotate mix is ample and, unlike the default
/// `RandomState`, is reproducible across runs — which the engine's
/// Deterministic mode requires of everything on the datapath.
#[derive(Default)]
pub struct FlowHasher(u64);

/// 2^64 / φ, the usual Fibonacci-hashing multiplier (same as rustc's
/// FxHash).
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

impl FlowHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl Hasher for FlowHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(px_wire::bytes::le64(bytes, 0));
            bytes = px_wire::bytes::range_from(bytes, 8);
        }
        if !bytes.is_empty() {
            let mut w = [0u8; 8];
            px_wire::bytes::put(&mut w, 0, bytes);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// The hasher state every map in this module uses.
pub type FlowBuildHasher = BuildHasherDefault<FlowHasher>;

#[derive(Debug)]
struct Slot<V> {
    key: FlowKey,
    /// `None` while the slot is on the free list.
    value: Option<V>,
    deadline: u64,
    /// Bumped on every vacate/replace, so parked heap entries for a
    /// previous occupant of this slot are recognisably stale.
    gen: u32,
    lru_prev: u32,
    lru_next: u32,
    /// Which LRU segment the slot lives on: `false` = probation (idle /
    /// unclassified flows, evicted first), `true` = protected (flows the
    /// caller marked hot via [`FlowTable::protect`]).
    protected: bool,
}

/// Sizing policy for a [`FlowTable`]: an entry-count ceiling plus an
/// optional hard byte budget for the table's arenas (slab + index +
/// expiry heap). When both are given, the *effective* capacity is the
/// smaller of the entry ceiling and however many entries fit in the
/// budget — so a table configured for a million flows on a 64 MiB
/// budget silently clamps rather than overcommitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTableConfig {
    /// Maximum tracked flows (entry-count ceiling).
    pub capacity: usize,
    /// Hard byte budget for the table's preallocated arenas, or `None`
    /// for "entry count only". [`FlowTable::arena_bytes`] never exceeds
    /// a configured budget.
    pub memory_budget: Option<usize>,
}

impl FlowTableConfig {
    /// Entry-count-only sizing (the historical `FlowTable::new`).
    pub fn with_capacity(capacity: usize) -> Self {
        FlowTableConfig {
            capacity,
            memory_budget: None,
        }
    }
}

/// A bounded per-flow state table with O(1) LRU eviction and O(log n)
/// deadline expiry.
#[derive(Debug)]
pub struct FlowTable<V> {
    map: HashMap<FlowKey, u32, FlowBuildHasher>,
    slots: Vec<Slot<V>>,
    free_slots: Vec<u32>,
    /// Per-segment least-recently-used entries, indexed by
    /// `protected as usize`: `[0]` is the probation list (evicted
    /// first), `[1]` the protected list (evicted only under pressure).
    lru_head: [u32; 2],
    /// Per-segment most-recently-used entries, same indexing.
    lru_tail: [u32; 2],
    /// Min-heap of (deadline, slot, gen); stale entries are skipped
    /// lazily on pop.
    expiry: BinaryHeap<Reverse<(u64, u32, u32)>>,
    capacity: usize,
    /// Hash-index bytes, captured at build: the bucket array is sized
    /// once for the preallocated capacity and rehashes in place
    /// thereafter (the table never holds more than `capacity` entries),
    /// but the map's live `capacity()` accounting fluctuates with
    /// tombstones, so it is not a stable byte measure.
    map_bytes: usize,
    /// Total lookups performed (for cost accounting).
    pub lookups: u64,
    /// Evictions performed (`evicted_idle + evicted_pressure`).
    pub evictions: u64,
    /// Capacity evictions that found a probation (idle / unprotected)
    /// victim — the cheap case.
    pub evicted_idle: u64,
    /// Capacity evictions forced onto the protected segment because the
    /// probation list was empty — active flows lost to arrival pressure.
    pub evicted_pressure: u64,
}

impl<V> FlowTable<V> {
    /// Creates a table holding at most `capacity` flows.
    pub fn new(capacity: usize) -> Self {
        Self::with_config(FlowTableConfig::with_capacity(capacity))
    }

    /// Creates a table from a [`FlowTableConfig`], clamping the entry
    /// capacity to the byte budget when one is set. The arenas are
    /// preallocated to the effective capacity, so steady-state inserts
    /// never touch the allocator and [`arena_bytes`](Self::arena_bytes)
    /// is fixed at construction.
    pub fn with_config(cfg: FlowTableConfig) -> Self {
        assert!(cfg.capacity > 0);
        let mut capacity = match cfg.memory_budget {
            Some(budget) => cfg.capacity.min(budget / Self::entry_bytes()).max(1),
            None => cfg.capacity,
        };
        if let Some(budget) = cfg.memory_budget {
            // The hash index rounds its bucket array up to a power of
            // two, so the per-entry estimate can land over budget; back
            // off until the *realised* arenas fit. Construction-time
            // only — the hot path never resizes.
            loop {
                let t = Self::build(capacity);
                if t.arena_bytes() <= budget || capacity == 1 {
                    return t;
                }
                capacity = (capacity * 7 / 8).min(capacity - 1).max(1);
            }
        }
        Self::build(capacity)
    }

    /// Allocates the arenas for an already-clamped capacity.
    fn build(capacity: usize) -> Self {
        let prealloc = capacity.min(1 << 20);
        let map: HashMap<FlowKey, u32, FlowBuildHasher> =
            HashMap::with_capacity_and_hasher(prealloc, FlowBuildHasher::default());
        let map_bytes =
            map.capacity() * (std::mem::size_of::<FlowKey>() + std::mem::size_of::<u32>() + 1);
        FlowTable {
            map,
            slots: Vec::with_capacity(prealloc),
            free_slots: Vec::with_capacity(prealloc),
            lru_head: [NIL; 2],
            lru_tail: [NIL; 2],
            expiry: BinaryHeap::with_capacity(prealloc),
            capacity,
            map_bytes,
            lookups: 0,
            evictions: 0,
            evicted_idle: 0,
            evicted_pressure: 0,
        }
    }

    /// Worst-case resident bytes one entry costs across the three
    /// arenas: its slab slot, its hash-index entry (key, slot index, and
    /// one control byte), its free-list cell, and one expiry-heap node.
    pub fn entry_bytes() -> usize {
        std::mem::size_of::<Slot<V>>()
            + std::mem::size_of::<FlowKey>()
            + std::mem::size_of::<u32>()
            + 1
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<Reverse<(u64, u32, u32)>>()
    }

    /// The effective entry capacity (after any budget clamp).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently reserved by the table's arenas (slab, hash
    /// index, free list, expiry heap), computed from live capacities.
    /// Under a `memory_budget` this never exceeds the budget: every
    /// arena is preallocated to the clamped capacity and reused.
    pub fn arena_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<V>>()
            + self.map_bytes
            + self.free_slots.capacity() * std::mem::size_of::<u32>()
            + self.expiry.capacity() * std::mem::size_of::<Reverse<(u64, u32, u32)>>()
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free_slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unlinks `idx` from its LRU segment.
    fn lru_unlink(&mut self, idx: u32) {
        let (prev, next, seg) = {
            let s = &self.slots[idx as usize];
            (s.lru_prev, s.lru_next, usize::from(s.protected))
        };
        match prev {
            NIL => self.lru_head[seg] = next,
            p => self.slots[p as usize].lru_next = next,
        }
        match next {
            NIL => self.lru_tail[seg] = prev,
            n => self.slots[n as usize].lru_prev = prev,
        }
    }

    /// Appends `idx` at the MRU end of its segment.
    fn lru_push_back(&mut self, idx: u32) {
        let seg = usize::from(self.slots[idx as usize].protected);
        let tail = self.lru_tail[seg];
        {
            let s = &mut self.slots[idx as usize];
            s.lru_prev = tail;
            s.lru_next = NIL;
        }
        match tail {
            NIL => self.lru_head[seg] = idx,
            t => self.slots[t as usize].lru_next = idx,
        }
        self.lru_tail[seg] = idx;
    }

    /// Moves `idx` to the MRU end of its segment (a "touch").
    fn lru_touch(&mut self, idx: u32) {
        let seg = usize::from(self.slots[idx as usize].protected);
        if self.lru_tail[seg] != idx {
            self.lru_unlink(idx);
            self.lru_push_back(idx);
        }
    }

    /// Moves a flow onto the protected LRU segment, shielding it from
    /// eviction while any probation (idle) entry remains. Returns
    /// whether the key was present. Idempotent; O(1). Intended for
    /// flows a classifier has promoted to elephant status, so arrival
    /// churn evicts idle mice first and conversion yield survives.
    pub fn protect(&mut self, key: &FlowKey) -> bool {
        let Some(&idx) = self.map.get(key) else {
            return false;
        };
        if !self.slots[idx as usize].protected {
            self.lru_unlink(idx);
            self.slots[idx as usize].protected = true;
            self.lru_push_back(idx);
        }
        true
    }

    /// Looks up a flow, refreshing its LRU position.
    pub fn get_mut(&mut self, key: &FlowKey) -> Option<&mut V> {
        self.lookups += 1;
        let idx = *self.map.get(key)?;
        self.lru_touch(idx);
        self.slots[idx as usize].value.as_mut()
    }

    /// Inserts (or replaces) a flow's state. If the table is full, the
    /// least-recently-used entry is evicted and returned as
    /// `(key, state)` so the caller can flush it.
    pub fn insert(&mut self, key: FlowKey, value: V) -> Option<(FlowKey, V)> {
        self.insert_with_deadline(key, value, NO_DEADLINE)
    }

    /// Like [`insert`](Self::insert), additionally arming `deadline` so
    /// the entry surfaces from [`pop_expired`](Self::pop_expired) once
    /// `now >= deadline`. Pass [`NO_DEADLINE`] for no expiry.
    pub fn insert_with_deadline(
        &mut self,
        key: FlowKey,
        value: V,
        deadline: u64,
    ) -> Option<(FlowKey, V)> {
        self.lookups += 1;
        // Fast path: the key is present — replace in place, one hash
        // probe total (the entry API; the old code probed twice via
        // contains_key + insert).
        if let std::collections::hash_map::Entry::Occupied(e) = self.map.entry(key) {
            let idx = *e.get();
            let slot = &mut self.slots[idx as usize];
            slot.value = Some(value);
            slot.deadline = deadline;
            slot.gen = slot.gen.wrapping_add(1);
            let gen = slot.gen;
            self.lru_touch(idx);
            if deadline != NO_DEADLINE {
                self.expiry.push(Reverse((deadline, idx, gen)));
            }
            return None;
        }
        // New key: evict first if at capacity — the probation (idle)
        // head when one exists, the protected head only under pressure.
        let evicted = if self.len() >= self.capacity {
            let victim = if self.lru_head[0] != NIL {
                self.evicted_idle += 1;
                self.lru_head[0]
            } else {
                self.evicted_pressure += 1;
                self.lru_head[1]
            };
            debug_assert_ne!(victim, NIL);
            self.evictions += 1;
            self.detach(victim)
        } else {
            None
        };
        let idx = match self.free_slots.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                slot.key = key;
                slot.value = Some(value);
                slot.deadline = deadline;
                slot.protected = false;
                idx
            }
            None => {
                // The slot count is bounded by the table capacity, far
                // below u32::MAX, so the narrowing cast cannot truncate.
                debug_assert!(self.slots.len() < u32::MAX as usize);
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    key,
                    value: Some(value),
                    deadline,
                    gen: 0,
                    lru_prev: NIL,
                    lru_next: NIL,
                    protected: false,
                });
                idx
            }
        };
        self.lru_push_back(idx);
        self.map.insert(key, idx);
        if deadline != NO_DEADLINE {
            let gen = self.slots[idx as usize].gen;
            self.expiry.push(Reverse((deadline, idx, gen)));
        }
        evicted
    }

    /// Vacates `idx`: unlinks it, frees the slot, removes the map entry,
    /// and returns the key and value. `None` if the slot was not
    /// occupied (a caller bug — every call site passes a live index, and
    /// the vacant case degrades to a no-op rather than a panic).
    fn detach(&mut self, idx: u32) -> Option<(FlowKey, V)> {
        self.lru_unlink(idx);
        let slot = self.slots.get_mut(idx as usize)?;
        let key = slot.key;
        let value = slot.value.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        slot.protected = false;
        self.free_slots.push(idx);
        self.map.remove(&key);
        Some((key, value))
    }

    /// Removes a flow, returning its state.
    pub fn remove(&mut self, key: &FlowKey) -> Option<V> {
        let idx = *self.map.get(key)?;
        self.detach(idx).map(|(_, v)| v)
    }

    /// Removes and returns the entry with the earliest armed deadline
    /// `<= now`, or `None` when nothing has expired. Amortised O(log n):
    /// stale heap entries (for since-removed or replaced occupants) are
    /// discarded as they surface.
    pub fn pop_expired(&mut self, now: u64) -> Option<(FlowKey, V)> {
        while let Some(&Reverse((deadline, idx, gen))) = self.expiry.peek() {
            if self.slots[idx as usize].gen != gen {
                self.expiry.pop();
                continue;
            }
            if deadline > now {
                return None;
            }
            self.expiry.pop();
            return self.detach(idx);
        }
        None
    }

    /// The earliest armed deadline among live entries, discarding stale
    /// heap entries along the way.
    pub fn next_deadline(&mut self) -> Option<u64> {
        while let Some(&Reverse((deadline, idx, gen))) = self.expiry.peek() {
            if self.slots[idx as usize].gen != gen {
                self.expiry.pop();
                continue;
            }
            return Some(deadline);
        }
        None
    }

    /// Drains the whole table (shutdown flush), in slot (≈ insertion)
    /// order.
    pub fn drain(&mut self) -> Vec<(FlowKey, V)> {
        let mut out = Vec::with_capacity(self.len());
        self.drain_into(&mut out);
        out
    }

    /// [`drain`](Self::drain) onto the end of `out`: a caller that keeps
    /// `out` drains as often as it likes without allocating once `out`
    /// has grown to the table's population.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<(FlowKey, V)>) {
        out.extend(self.slots.iter_mut().filter_map(|s| {
            s.value.take().map(|v| {
                s.gen = s.gen.wrapping_add(1);
                (s.key, v)
            })
        }));
        self.map.clear();
        self.slots.clear();
        self.free_slots.clear();
        self.expiry.clear();
        self.lru_head = [NIL; 2];
        self.lru_tail = [NIL; 2];
    }

    /// The tracked keys in eviction order — the probation segment from
    /// least to most recently used, then the protected segment likewise.
    /// A test and diagnostics accessor (allocates; not for the hot
    /// path). With no [`protect`](Self::protect) calls this is exactly
    /// the historical global LRU order.
    pub fn lru_order(&self) -> Vec<FlowKey> {
        let mut out = Vec::with_capacity(self.len());
        for seg in 0..2 {
            let mut idx = self.lru_head[seg];
            while idx != NIL {
                let s = &self.slots[idx as usize];
                out.push(s.key);
                idx = s.lru_next;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(i: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            1000 + i,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    #[test]
    fn insert_get_remove() {
        let mut t: FlowTable<u32> = FlowTable::new(4);
        assert!(t.insert(key(1), 11).is_none());
        assert_eq!(t.get_mut(&key(1)), Some(&mut 11));
        *t.get_mut(&key(1)).unwrap() = 12;
        assert_eq!(t.remove(&key(1)), Some(12));
        assert!(t.is_empty());
    }

    #[test]
    fn lru_eviction_returns_victim() {
        let mut t: FlowTable<u32> = FlowTable::new(3);
        t.insert(key(1), 1);
        t.insert(key(2), 2);
        t.insert(key(3), 3);
        // Touch 1 so 2 becomes LRU.
        t.get_mut(&key(1));
        let evicted = t.insert(key(4), 4).expect("table full");
        assert_eq!(evicted, (key(2), 2));
        assert_eq!(t.len(), 3);
        assert_eq!(t.evictions, 1);
        assert_eq!(t.lru_order(), vec![key(3), key(1), key(4)]);
    }

    #[test]
    fn reinsert_existing_does_not_evict() {
        let mut t: FlowTable<u32> = FlowTable::new(2);
        t.insert(key(1), 1);
        t.insert(key(2), 2);
        assert!(t.insert(key(1), 10).is_none(), "replacement, not growth");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_counting() {
        let mut t: FlowTable<u32> = FlowTable::new(2);
        t.insert(key(1), 1);
        t.get_mut(&key(1));
        t.get_mut(&key(9)); // miss also counts
        assert_eq!(t.lookups, 3);
    }

    #[test]
    fn drain_empties_the_table() {
        let mut t: FlowTable<u32> = FlowTable::new(10);
        for i in 0..3 {
            t.insert(key(i), u32::from(i));
        }
        let rest = t.drain();
        assert_eq!(rest.len(), 3);
        assert!(t.is_empty());
    }

    #[test]
    fn lru_order_tracks_touches() {
        let mut t: FlowTable<u32> = FlowTable::new(4);
        t.insert(key(1), 1);
        t.insert(key(2), 2);
        t.insert(key(3), 3);
        assert_eq!(t.lru_order(), vec![key(1), key(2), key(3)]);
        t.get_mut(&key(1));
        assert_eq!(t.lru_order(), vec![key(2), key(3), key(1)]);
        t.insert(key(2), 20); // replacement also refreshes
        assert_eq!(t.lru_order(), vec![key(3), key(1), key(2)]);
        t.remove(&key(1));
        assert_eq!(t.lru_order(), vec![key(3), key(2)]);
    }

    #[test]
    fn protected_entries_evict_only_under_pressure() {
        let mut t: FlowTable<u32> = FlowTable::new(3);
        t.insert(key(1), 1);
        t.insert(key(2), 2);
        t.insert(key(3), 3);
        assert!(t.protect(&key(1)), "present keys protect");
        assert!(!t.protect(&key(9)), "absent keys do not");
        // key(1) is older than 2 and 3 but protected: the probation
        // head (2) is the victim.
        let evicted = t.insert(key(4), 4).expect("full");
        assert_eq!(evicted.0, key(2));
        assert_eq!((t.evicted_idle, t.evicted_pressure), (1, 0));
        // Protect everything: the next eviction is forced onto the
        // protected segment, in its own LRU order.
        t.protect(&key(3));
        t.protect(&key(4));
        let evicted = t.insert(key(5), 5).expect("full");
        assert_eq!(evicted.0, key(1), "protected LRU head under pressure");
        assert_eq!((t.evicted_idle, t.evicted_pressure), (1, 1));
        assert_eq!(t.evictions, 2);
        // A reused slot must come back unprotected.
        let evicted = t.insert(key(6), 6).expect("full");
        assert_eq!(evicted.0, key(5), "new entries land on probation");
        assert_eq!((t.evicted_idle, t.evicted_pressure), (2, 1));
    }

    #[test]
    fn protect_is_idempotent_and_keeps_lru_order_sane() {
        let mut t: FlowTable<u32> = FlowTable::new(4);
        t.insert(key(1), 1);
        t.insert(key(2), 2);
        t.insert(key(3), 3);
        t.protect(&key(2));
        t.protect(&key(2));
        // Probation order first, then protected order.
        assert_eq!(t.lru_order(), vec![key(1), key(3), key(2)]);
        t.get_mut(&key(1));
        assert_eq!(t.lru_order(), vec![key(3), key(1), key(2)]);
        t.remove(&key(2));
        assert_eq!(t.lru_order(), vec![key(3), key(1)]);
    }

    #[test]
    fn memory_budget_clamps_capacity_and_bounds_arena() {
        let budget = 64 * 1024;
        let t: FlowTable<u64> = FlowTable::with_config(FlowTableConfig {
            capacity: 1 << 20,
            memory_budget: Some(budget),
        });
        assert!(t.capacity() < 1 << 20, "budget must clamp");
        assert!(t.capacity() >= 1, "never zero");
        assert!(
            t.arena_bytes() <= budget,
            "arena {} exceeds budget {budget}",
            t.arena_bytes()
        );
        // Fill past capacity: arena must not grow.
        let mut t = t;
        let before = t.arena_bytes();
        for i in 0..2 * t.capacity() {
            t.insert(key((i % 4096) as u16), i as u64);
        }
        assert!(t.len() <= t.capacity());
        assert_eq!(t.arena_bytes(), before, "arenas are fixed at build");
    }

    #[test]
    fn deadlines_pop_in_order_and_survive_removal() {
        let mut t: FlowTable<u32> = FlowTable::new(8);
        t.insert_with_deadline(key(1), 1, 300);
        t.insert_with_deadline(key(2), 2, 100);
        t.insert_with_deadline(key(3), 3, 200);
        t.insert(key(4), 4); // never expires
        assert_eq!(t.next_deadline(), Some(100));
        assert_eq!(t.pop_expired(99), None);
        assert_eq!(t.pop_expired(100), Some((key(2), 2)));
        // Removing an armed entry leaves only a stale heap node behind.
        assert_eq!(t.remove(&key(3)), Some(3));
        assert_eq!(t.next_deadline(), Some(300));
        assert_eq!(t.pop_expired(1000), Some((key(1), 1)));
        assert_eq!(t.pop_expired(u64::MAX - 1), None, "NO_DEADLINE never pops");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replacing_reargs_the_deadline() {
        let mut t: FlowTable<u32> = FlowTable::new(8);
        t.insert_with_deadline(key(1), 1, 100);
        t.insert_with_deadline(key(1), 2, 500); // re-arm later
        assert_eq!(t.pop_expired(100), None, "old deadline is stale");
        assert_eq!(t.pop_expired(500), Some((key(1), 2)));
    }

    /// Model-based test: the table behaves like a plain HashMap as long
    /// as capacity is never exceeded.
    #[test]
    fn model_equivalence_under_capacity() {
        use std::collections::HashMap;
        let mut t: FlowTable<u64> = FlowTable::new(1000);
        let mut model: HashMap<FlowKey, u64> = HashMap::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for step in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = key((x % 500) as u16);
            match x % 3 {
                0 => {
                    t.insert(k, step);
                    model.insert(k, step);
                }
                1 => {
                    assert_eq!(t.get_mut(&k).copied(), model.get(&k).copied());
                }
                _ => {
                    assert_eq!(t.remove(&k), model.remove(&k));
                }
            }
        }
        assert_eq!(t.len(), model.len());
    }

    /// A faithful reimplementation of the previous clock-counter table
    /// (`HashMap` + `iter().min_by_key(last_used)` eviction), used as
    /// the reference model below.
    struct ClockModel {
        map: std::collections::HashMap<FlowKey, (u64, u64)>, // value, last_used
        clock: u64,
        capacity: usize,
        lookups: u64,
        evictions: u64,
    }

    impl ClockModel {
        fn new(capacity: usize) -> Self {
            ClockModel {
                map: std::collections::HashMap::new(),
                clock: 0,
                capacity,
                lookups: 0,
                evictions: 0,
            }
        }

        fn get_mut(&mut self, key: &FlowKey) -> Option<u64> {
            self.lookups += 1;
            self.clock += 1;
            let clock = self.clock;
            self.map.get_mut(key).map(|e| {
                e.1 = clock;
                e.0
            })
        }

        fn insert(&mut self, key: FlowKey, value: u64) -> Option<(FlowKey, u64)> {
            self.lookups += 1;
            self.clock += 1;
            let mut evicted = None;
            if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
                let (&victim, _) = self.map.iter().min_by_key(|(_, e)| e.1).unwrap();
                let entry = self.map.remove(&victim).unwrap();
                self.evictions += 1;
                evicted = Some((victim, entry.0));
            }
            self.map.insert(key, (value, self.clock));
            evicted
        }

        fn remove(&mut self, key: &FlowKey) -> Option<u64> {
            self.map.remove(key).map(|e| e.0)
        }
    }

    /// Randomized equivalence against the old implementation under
    /// eviction pressure: same get results, same eviction victims, same
    /// lookup/eviction counters, at every step.
    #[test]
    fn lru_matches_clock_model_under_eviction() {
        const CAPACITY: usize = 16;
        const KEYSPACE: u64 = 48; // 3× capacity: constant eviction churn
        let mut t: FlowTable<u64> = FlowTable::new(CAPACITY);
        let mut model = ClockModel::new(CAPACITY);
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = key((x % KEYSPACE) as u16);
            match (x >> 32) % 5 {
                // Inserts dominate so the table stays at capacity.
                0..=2 => {
                    assert_eq!(
                        t.insert(k, step),
                        model.insert(k, step),
                        "eviction victim diverged at step {step}"
                    );
                }
                3 => {
                    assert_eq!(t.get_mut(&k).copied(), model.get_mut(&k), "step {step}");
                }
                _ => {
                    assert_eq!(t.remove(&k), model.remove(&k), "step {step}");
                }
            }
            assert_eq!(t.lookups, model.lookups);
            assert_eq!(t.evictions, model.evictions);
            assert_eq!(t.len(), model.map.len());
        }
        assert!(model.evictions > 1000, "the run must actually evict");
        // Final content identical too.
        let mut keys = t.lru_order();
        keys.sort();
        let mut model_keys: Vec<FlowKey> = model.map.keys().copied().collect();
        model_keys.sort();
        assert_eq!(keys, model_keys);
    }
}
