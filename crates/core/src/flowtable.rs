//! The PXGW flow table: bounded, second-chance-evicting, per-flow state
//! storage with addressable buckets.
//!
//! §3 of the paper: "packet merging requires identifying flows and
//! determining whether incoming packets are contiguous and mergeable,
//! which inevitably introduces per-flow state … it is essential … to
//! adopt data structures that support fast lookup of adjacent packets
//! under a large number of flows."
//!
//! Layout: entries live in a slab (`Vec<Slot>` plus a free list). The
//! index is the table's own open-addressed array: a power of two of
//! 8-byte buckets, each a 32-bit hash tag plus a 32-bit slot index,
//! probed linearly from the bucket [`flow_hash`] names and compacted by
//! backward-shift deletion (no tombstones). Because the index is ours,
//! the bucket a future packet will probe has a known address: the engine
//! worker prefetches it, and the slot it points at, a few packets ahead
//! (`FlowTable::index_line`, `FlowTable::slot_guess`).
//!
//! Eviction is CLOCK-style second chance over two FIFO segments threaded
//! through the slab: *probation* (new and unclassified flows, evicted
//! first) and *protected* (flows the caller marked hot with
//! [`protect`](FlowTable::protect)). A hit only sets the slot's
//! reference bit — no list splice, so a hit writes one line. An eviction
//! takes the segment head: a referenced head has its bit cleared and
//! moves to the tail, and the first unreferenced head is the victim.
//! The protected segment is consulted only when probation is empty. The
//! victim's state is returned so pending merges are flushed, not
//! dropped.
//!
//! An optional per-entry deadline feeds a binary heap, so hold-timer
//! expiry ([`pop_expired`](FlowTable::pop_expired)) pops only entries
//! that actually expired. Capacity and every arena are fixed at
//! construction. Key lookups are counted so the cost model can price
//! them, and so tests can hold a caller to one lookup per packet.

use px_wire::FlowKey;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel slot index: the end of a segment list, or an empty bucket.
const NIL: u32 = u32::MAX;

/// Deadline value meaning "never expires": such entries skip the heap.
pub const NO_DEADLINE: u64 = u64::MAX;

/// Live state (slots plus their index share) past which a table no
/// longer stays cached between two packets of one flow: half the 2 MiB
/// per-core L2 of a current server core. Below it the worker's table
/// lookahead would only add work.
const CACHE_RESIDENT_BYTES: usize = 1 << 20;

/// 2^64 / φ, the Fibonacci-hashing multiplier (rustc's FxHash uses it).
const FX_K: u64 = 0x517c_c1b7_2722_0a95;
/// A second odd multiplier (from SplitMix64's finaliser).
const MIX_K: u64 = 0xbf58_476d_1ce4_e5b9;

/// The 32-bit hash a [`FlowTable`] indexes `key` by: its low bits pick
/// the home bucket, and all 32 are the bucket's tag.
///
/// A deterministic multiply-xorshift mix of the packed 5-tuple. The
/// tuple reaching one table was already spread across cores by the
/// Toeplitz RSS hash, so keys arriving at a table are diverse and a
/// keyed (DoS-hardened) hash buys nothing; unlike `RandomState` this is
/// reproducible across runs, which Deterministic mode requires of
/// everything on the datapath. The engine's sharding pass computes it
/// once per packet as a prefetch hint; the engine recomputes it from
/// the key it parses, so a wrong hint costs a wasted prefetch only.
#[inline]
pub fn flow_hash(key: &FlowKey) -> u32 {
    let ips = (u64::from(u32::from(key.src_ip)) << 32) | u64::from(u32::from(key.dst_ip));
    let rest = (u64::from(key.src_port) << 32)
        | (u64::from(key.dst_port) << 16)
        | u64::from(u8::from(key.proto));
    let h = (ips.wrapping_mul(FX_K) ^ rest).wrapping_mul(MIX_K);
    (h >> 32) as u32 ^ h as u32
}

/// One index bucket: the entry's hash tag and its slot, or `slot == NIL`
/// when empty.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bucket {
    tag: u32,
    slot: u32,
}

const EMPTY: Bucket = Bucket { tag: 0, slot: NIL };

/// One slab entry.
#[derive(Debug)]
pub(crate) struct Slot<V> {
    key: FlowKey,
    /// `None` while the slot is on the free list.
    value: Option<V>,
    deadline: u64,
    /// Bumped on every arm, disarm and vacate, so parked heap entries
    /// for a previous deadline or occupant are recognisably stale.
    gen: u32,
    prev: u32,
    next: u32,
    /// Which segment the slot lives on: `false` = probation (idle /
    /// unclassified flows, evicted first), `true` = protected (flows the
    /// caller marked hot via [`FlowTable::protect`]).
    protected: bool,
    /// Set by a hit, cleared when an eviction scan passes the slot over.
    referenced: bool,
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

/// The outcome of [`FlowTable::entry`]: where the flow's slot is,
/// whether it was already tracked, and the flow evicted to make room.
#[derive(Debug)]
pub(crate) struct Entry<V> {
    pub slot: u32,
    pub found: bool,
    pub evicted: Option<(FlowKey, V)>,
}

/// A bounded per-flow state table with O(1) second-chance eviction and
/// O(log n) deadline expiry.
#[derive(Debug)]
pub struct FlowTable<V> {
    /// Open-addressed buckets, a power of two larger than `capacity`.
    index: Vec<Bucket>,
    /// `index.len() - 1`.
    mask: usize,
    slots: Vec<Slot<V>>,
    free_slots: Vec<u32>,
    /// Per-segment heads (the next eviction candidates), indexed by
    /// `protected as usize`: `[0]` is probation, `[1]` protected.
    head: [u32; 2],
    /// Per-segment tails (newest entries), same indexing.
    tail: [u32; 2],
    /// Min-heap of (deadline, slot, gen); stale entries are skipped
    /// lazily on pop.
    expiry: BinaryHeap<Reverse<(u64, u32, u32)>>,
    capacity: usize,
    /// Key lookups performed (for cost accounting): one per
    /// `get_mut`, `insert*` or `entry`. Work addressed by slot —
    /// eviction, removal, expiry — is not a lookup.
    pub lookups: u64,
    /// Evictions performed (`evicted_idle + evicted_pressure`).
    pub evictions: u64,
    /// Capacity evictions that found a probation (idle / unprotected)
    /// victim — the cheap case.
    pub evicted_idle: u64,
    /// Capacity evictions forced onto the protected segment because the
    /// probation segment was empty — active flows lost to arrival
    /// pressure.
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
            // The index rounds up to a power of two, so the per-entry
            // estimate can land over budget; back off until the
            // *realised* arenas fit. Construction-time only — the hot
            // path never resizes.
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

    /// Allocates the arenas for an already-clamped capacity. The index
    /// keeps its load at or under 80 %, so every probe meets an empty
    /// bucket.
    fn build(capacity: usize) -> Self {
        let prealloc = capacity.min(1 << 20);
        let buckets = (capacity + capacity / 4 + 1).next_power_of_two().max(8);
        FlowTable {
            index: vec![EMPTY; buckets],
            mask: buckets - 1,
            slots: Vec::with_capacity(prealloc),
            free_slots: Vec::with_capacity(prealloc),
            head: [NIL; 2],
            tail: [NIL; 2],
            expiry: BinaryHeap::with_capacity(prealloc),
            capacity,
            lookups: 0,
            evictions: 0,
            evicted_idle: 0,
            evicted_pressure: 0,
        }
    }

    /// Worst-case resident bytes one entry costs across the arenas: its
    /// slab slot, its index share (at most 2.5 buckets), its free-list
    /// cell, and one expiry-heap node.
    pub fn entry_bytes() -> usize {
        std::mem::size_of::<Slot<V>>()
            + 5 * std::mem::size_of::<Bucket>() / 2
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<Reverse<(u64, u32, u32)>>()
    }

    /// The effective entry capacity (after any budget clamp).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently reserved by the table's arenas (slab, index,
    /// free list, expiry heap), computed from live capacities. Under a
    /// `memory_budget` this never exceeds the budget: every arena is
    /// preallocated to the clamped capacity and reused.
    pub fn arena_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<V>>()
            + self.index.capacity() * std::mem::size_of::<Bucket>()
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

    /// Whether the live population is past what stays in cache: the
    /// point from which prefetching a packet's bucket and slot ahead of
    /// time pays.
    pub(crate) fn beyond_cache(&self) -> bool {
        let per_flow = std::mem::size_of::<Slot<V>>() + 2 * std::mem::size_of::<Bucket>();
        self.len() * per_flow > CACHE_RESIDENT_BYTES
    }

    /// The bucket `hash` probes first, for a lookahead to prefetch.
    pub(crate) fn index_line(&self, hash: u32) -> Option<&Bucket> {
        self.index.get(hash as usize & self.mask)
    }

    /// The slot the first few buckets from `hash`'s home name under its
    /// tag — the slot a lookup of that hash will most likely read, for a
    /// lookahead to prefetch. A guess: keys are not compared.
    pub(crate) fn slot_guess(&self, hash: u32) -> Option<&Slot<V>> {
        let mut pos = hash as usize & self.mask;
        for _ in 0..4 {
            let b = self.index.get(pos)?;
            if b.slot == NIL {
                return None;
            }
            if b.tag == hash {
                return self.slots.get(b.slot as usize);
            }
            pos = (pos + 1) & self.mask;
        }
        None
    }

    /// Walks `hash`'s probe sequence: `Ok(slot)` where `key` lives, or
    /// `Err(bucket)`, the empty bucket that ends the walk.
    fn probe(&self, hash: u32, key: &FlowKey) -> Result<u32, usize> {
        let mut pos = hash as usize & self.mask;
        loop {
            let b = self.index[pos];
            if b.slot == NIL {
                return Err(pos);
            }
            if b.tag == hash && self.slots[b.slot as usize].key == *key {
                return Ok(b.slot);
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// Removes the bucket naming `slot` from the index, shifting later
    /// entries of the probe run back so no walk ever crosses a hole.
    fn unindex(&mut self, slot: u32) {
        let hash = flow_hash(&self.slots[slot as usize].key);
        let mut hole = hash as usize & self.mask;
        while self.index[hole].slot != slot {
            if self.index[hole].slot == NIL {
                debug_assert!(false, "slot {slot} is not indexed");
                return;
            }
            hole = (hole + 1) & self.mask;
        }
        let mut pos = hole;
        loop {
            pos = (pos + 1) & self.mask;
            let b = self.index[pos];
            if b.slot == NIL {
                break;
            }
            // `b` may fill the hole unless its home lies cyclically in
            // (hole, pos]: it would then be moved before its home.
            let home = b.tag as usize & self.mask;
            if pos.wrapping_sub(home) & self.mask >= pos.wrapping_sub(hole) & self.mask {
                self.index[hole] = b;
                hole = pos;
            }
        }
        self.index[hole] = EMPTY;
    }

    /// Unlinks `idx` from its segment.
    fn unlink(&mut self, idx: u32) {
        let (prev, next, seg) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next, usize::from(s.protected))
        };
        match prev {
            NIL => self.head[seg] = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail[seg] = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends `idx` at the tail of its segment.
    fn push_back(&mut self, idx: u32) {
        let seg = usize::from(self.slots[idx as usize].protected);
        let tail = self.tail[seg];
        {
            let s = &mut self.slots[idx as usize];
            s.prev = tail;
            s.next = NIL;
        }
        match tail {
            NIL => self.head[seg] = idx,
            t => self.slots[t as usize].next = idx,
        }
        self.tail[seg] = idx;
    }

    /// Moves a flow onto the protected segment, shielding it from
    /// eviction while any probation (idle) entry remains. Returns
    /// whether the key was present. Idempotent; O(1). Intended for
    /// flows a classifier has promoted to elephant status, so arrival
    /// churn evicts idle mice first and conversion yield survives.
    pub fn protect(&mut self, key: &FlowKey) -> bool {
        match self.probe(flow_hash(key), key) {
            Ok(idx) => {
                self.protect_at(idx);
                true
            }
            Err(_) => false,
        }
    }

    /// [`protect`](Self::protect) for the flow in slot `idx`: it joins
    /// the protected tail.
    pub(crate) fn protect_at(&mut self, idx: u32) {
        if self.slots[idx as usize].protected {
            return;
        }
        self.unlink(idx);
        self.slots[idx as usize].protected = true;
        self.push_back(idx);
    }

    /// Looks up a flow, setting its reference bit.
    pub fn get_mut(&mut self, key: &FlowKey) -> Option<&mut V> {
        let idx = self.find(flow_hash(key), key)?;
        self.value_at(idx)
    }

    /// Looks up the flow `key`, hashed as `hash`, setting its reference
    /// bit: one counted lookup, hit or miss.
    pub(crate) fn find(&mut self, hash: u32, key: &FlowKey) -> Option<u32> {
        self.lookups += 1;
        let idx = self.probe(hash, key).ok()?;
        self.slots[idx as usize].referenced = true;
        Some(idx)
    }

    /// The state in slot `idx` (`None` for a vacant slot).
    pub(crate) fn value_at(&mut self, idx: u32) -> Option<&mut V> {
        self.slots.get_mut(idx as usize)?.value.as_mut()
    }

    /// The key in slot `idx` (`None` for a vacant slot).
    pub(crate) fn key_at(&self, idx: u32) -> Option<FlowKey> {
        let s = self.slots.get(idx as usize)?;
        s.value.as_ref().map(|_| s.key)
    }

    /// Slots ever used: every live slot index is below this.
    pub(crate) fn slot_count(&self) -> u32 {
        // The slot count is bounded by the table capacity, far below
        // u32::MAX, so the narrowing cast cannot truncate.
        self.slots.len() as u32
    }

    /// Inserts (or replaces) a flow's state. If the table is full, the
    /// second-chance victim is evicted and returned as `(key, state)` so
    /// the caller can flush it.
    pub fn insert(&mut self, key: FlowKey, value: V) -> Option<(FlowKey, V)> {
        self.insert_with_deadline(key, value, NO_DEADLINE)
    }

    /// Like [`insert`](Self::insert), additionally arming `deadline` so
    /// the entry surfaces from [`pop_expired`](Self::pop_expired) once
    /// `now >= deadline`. Pass [`NO_DEADLINE`] for no expiry. Replacing
    /// a tracked flow's state re-arms its deadline and counts as a hit.
    pub fn insert_with_deadline(
        &mut self,
        key: FlowKey,
        value: V,
        deadline: u64,
    ) -> Option<(FlowKey, V)> {
        self.lookups += 1;
        let hash = flow_hash(&key);
        let (slot, evicted) = match self.probe(hash, &key) {
            Ok(slot) => {
                let s = &mut self.slots[slot as usize];
                s.value = Some(value);
                s.referenced = true;
                (slot, None)
            }
            Err(bucket) => self.place(hash, &key, bucket, value),
        };
        self.arm_at(slot, deadline);
        evicted
    }

    /// Finds the flow `key`, hashed as `hash`, or starts tracking it
    /// with `make()` — one counted lookup either way. A hit sets the
    /// reference bit; a new entry lands unreferenced on the probation
    /// tail, first evicting the second-chance victim when the table is
    /// full.
    pub(crate) fn entry(&mut self, hash: u32, key: &FlowKey, make: impl FnOnce() -> V) -> Entry<V> {
        self.lookups += 1;
        match self.probe(hash, key) {
            Ok(slot) => {
                self.slots[slot as usize].referenced = true;
                Entry {
                    slot,
                    found: true,
                    evicted: None,
                }
            }
            Err(bucket) => {
                let (slot, evicted) = self.place(hash, key, bucket, make());
                Entry {
                    slot,
                    found: false,
                    evicted,
                }
            }
        }
    }

    /// Tracks the absent flow `key` in a free slot, indexed at `bucket`
    /// (the empty bucket its probe ended on), after evicting the
    /// second-chance victim if the table is full. Returns the slot and
    /// the victim.
    fn place(
        &mut self,
        hash: u32,
        key: &FlowKey,
        mut bucket: usize,
        value: V,
    ) -> (u32, Option<(FlowKey, V)>) {
        let evicted = if self.len() >= self.capacity {
            let evicted = self.evict();
            // The eviction's backward shift may have moved the run this
            // key probes: walk it again for its empty bucket.
            if let Err(b) = self.probe(hash, key) {
                bucket = b;
            }
            evicted
        } else {
            None
        };
        let slot = match self.free_slots.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                s.key = *key;
                s.value = Some(value);
                s.deadline = NO_DEADLINE;
                s.protected = false;
                s.referenced = false;
                idx
            }
            None => {
                debug_assert!(self.slots.len() < NIL as usize);
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    key: *key,
                    value: Some(value),
                    deadline: NO_DEADLINE,
                    gen: 0,
                    prev: NIL,
                    next: NIL,
                    protected: false,
                    referenced: false,
                });
                idx
            }
        };
        self.push_back(slot);
        self.index[bucket] = Bucket { tag: hash, slot };
        (slot, evicted)
    }

    /// Evicts the second-chance victim: from the probation head while
    /// probation holds anything, else from the protected head. Referenced
    /// heads lose their bit and move to the tail; the first unreferenced
    /// head goes.
    fn evict(&mut self) -> Option<(FlowKey, V)> {
        let seg = if self.head[0] != NIL { 0 } else { 1 };
        loop {
            let idx = self.head[seg];
            if idx == NIL {
                return None;
            }
            let s = &mut self.slots[idx as usize];
            if !s.referenced {
                break;
            }
            s.referenced = false;
            self.unlink(idx);
            self.push_back(idx);
        }
        if seg == 0 {
            self.evicted_idle += 1;
        } else {
            self.evicted_pressure += 1;
        }
        self.evictions += 1;
        self.remove_at(self.head[seg])
    }

    /// Arms (or, with [`NO_DEADLINE`], disarms) slot `idx`'s deadline;
    /// any earlier deadline of the slot goes stale.
    pub(crate) fn arm_at(&mut self, idx: u32, deadline: u64) {
        let Some(slot) = self.slots.get_mut(idx as usize) else {
            return;
        };
        slot.deadline = deadline;
        slot.gen = slot.gen.wrapping_add(1);
        if deadline != NO_DEADLINE {
            self.expiry.push(Reverse((deadline, idx, slot.gen)));
        }
    }

    /// Removes the flow in slot `idx`: unindexes and unlinks it, frees
    /// the slot, and returns the key and value. `None` if the slot was
    /// not occupied (a caller bug — every call site passes a live index,
    /// and the vacant case degrades to a no-op rather than a panic).
    fn remove_at(&mut self, idx: u32) -> Option<(FlowKey, V)> {
        self.slots.get(idx as usize)?.value.as_ref()?;
        self.unindex(idx);
        self.unlink(idx);
        let slot = &mut self.slots[idx as usize];
        let value = slot.value.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        slot.protected = false;
        self.free_slots.push(idx);
        Some((slot.key, value))
    }

    /// Removes a flow, returning its state.
    pub fn remove(&mut self, key: &FlowKey) -> Option<V> {
        let idx = self.probe(flow_hash(key), key).ok()?;
        self.remove_at(idx).map(|(_, v)| v)
    }

    /// The slot of the entry with the earliest armed deadline `<= now`,
    /// disarmed but still tracked, or `None` when nothing has expired.
    /// Amortised O(log n): stale heap entries (for since-disarmed,
    /// re-armed or removed occupants) are discarded as they surface.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<u32> {
        while let Some(&Reverse((deadline, idx, gen))) = self.expiry.peek() {
            if self.slots[idx as usize].gen != gen {
                self.expiry.pop();
                continue;
            }
            if deadline > now {
                return None;
            }
            self.expiry.pop();
            self.arm_at(idx, NO_DEADLINE);
            return Some(idx);
        }
        None
    }

    /// Removes and returns the entry with the earliest armed deadline
    /// `<= now`, or `None` when nothing has expired.
    pub fn pop_expired(&mut self, now: u64) -> Option<(FlowKey, V)> {
        let idx = self.pop_due(now)?;
        self.remove_at(idx)
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
        out.extend(
            self.slots
                .iter_mut()
                .filter_map(|s| s.value.take().map(|v| (s.key, v))),
        );
        self.clear();
        out
    }

    /// Forgets every entry, keeping the arenas: the table is as built.
    pub(crate) fn clear(&mut self) {
        self.index.fill(EMPTY);
        self.slots.clear();
        self.free_slots.clear();
        self.expiry.clear();
        self.head = [NIL; 2];
        self.tail = [NIL; 2];
    }

    /// The tracked keys in queue order — the probation segment from head
    /// to tail, then the protected segment likewise. With every
    /// reference bit clear this is the eviction order. A test and
    /// diagnostics accessor (allocates; not for the hot path).
    pub fn queue_order(&self) -> Vec<FlowKey> {
        let mut out = Vec::with_capacity(self.len());
        for seg in 0..2 {
            let mut idx = self.head[seg];
            while idx != NIL {
                let s = &self.slots[idx as usize];
                out.push(s.key);
                idx = s.next;
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

    /// Every live slot is reachable from its home bucket and every
    /// occupied bucket names a live slot.
    fn assert_indexed(t: &FlowTable<u32>) {
        let occupied = t.index.iter().filter(|b| b.slot != NIL).count();
        assert_eq!(occupied, t.len());
        for (i, s) in t.slots.iter().enumerate() {
            if s.value.is_some() {
                assert_eq!(t.probe(flow_hash(&s.key), &s.key), Ok(i as u32));
            }
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut t: FlowTable<u32> = FlowTable::new(4);
        assert!(t.insert(key(1), 11).is_none());
        assert_eq!(t.get_mut(&key(1)), Some(&mut 11));
        *t.get_mut(&key(1)).unwrap() = 12;
        assert_eq!(t.remove(&key(1)), Some(12));
        assert!(t.is_empty());
        assert_indexed(&t);
    }

    #[test]
    fn second_chance_spares_a_referenced_head() {
        let mut t: FlowTable<u32> = FlowTable::new(3);
        t.insert(key(1), 1);
        t.insert(key(2), 2);
        t.insert(key(3), 3);
        // A hit sets 1's bit without moving it.
        t.get_mut(&key(1));
        assert_eq!(t.queue_order(), vec![key(1), key(2), key(3)]);
        // The eviction passes over 1 (bit cleared, to the tail) and
        // takes 2.
        let evicted = t.insert(key(4), 4).expect("table full");
        assert_eq!(evicted, (key(2), 2));
        assert_eq!(t.len(), 3);
        assert_eq!(t.evictions, 1);
        assert_eq!(t.queue_order(), vec![key(3), key(1), key(4)]);
        // With every bit clear the head goes: FIFO.
        assert_eq!(t.insert(key(5), 5), Some((key(3), 3)));
        assert_eq!(t.insert(key(6), 6), Some((key(1), 1)));
        assert_indexed(&t);
    }

    #[test]
    fn all_referenced_evicts_the_head_after_one_pass() {
        let mut t: FlowTable<u32> = FlowTable::new(3);
        for i in 1..=3 {
            t.insert(key(i), u32::from(i));
            t.get_mut(&key(i));
        }
        assert_eq!(t.insert(key(4), 4), Some((key(1), 1)));
        assert_eq!(t.queue_order(), vec![key(2), key(3), key(4)]);
    }

    #[test]
    fn reinsert_existing_does_not_evict() {
        let mut t: FlowTable<u32> = FlowTable::new(2);
        t.insert(key(1), 1);
        t.insert(key(2), 2);
        assert!(t.insert(key(1), 10).is_none(), "replacement, not growth");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get_mut(&key(1)), Some(&mut 10));
    }

    #[test]
    fn lookup_counting() {
        let mut t: FlowTable<u32> = FlowTable::new(2);
        t.insert(key(1), 1);
        t.get_mut(&key(1));
        t.get_mut(&key(9)); // miss also counts
        assert_eq!(t.lookups, 3);
        // Work addressed by slot is not a lookup.
        let e = t.entry(flow_hash(&key(2)), &key(2), || 2);
        t.protect_at(e.slot);
        t.arm_at(e.slot, 5);
        assert_eq!(t.pop_due(5), Some(e.slot));
        t.remove_at(e.slot);
        assert_eq!(t.lookups, 4);
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
        assert_indexed(&t);
        assert!(t.get_mut(&key(1)).is_none());
    }

    #[test]
    fn queue_order_moves_only_on_eviction_scans() {
        let mut t: FlowTable<u32> = FlowTable::new(4);
        t.insert(key(1), 1);
        t.insert(key(2), 2);
        t.insert(key(3), 3);
        t.get_mut(&key(1));
        t.insert(key(2), 20); // replacement is a hit, not a splice
        assert_eq!(t.queue_order(), vec![key(1), key(2), key(3)]);
        t.remove(&key(1));
        assert_eq!(t.queue_order(), vec![key(2), key(3)]);
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
        // protected segment, in its own queue order.
        t.protect(&key(3));
        t.protect(&key(4));
        let evicted = t.insert(key(5), 5).expect("full");
        assert_eq!(evicted.0, key(1), "protected head under pressure");
        assert_eq!((t.evicted_idle, t.evicted_pressure), (1, 1));
        assert_eq!(t.evictions, 2);
        // A reused slot must come back unprotected.
        let evicted = t.insert(key(6), 6).expect("full");
        assert_eq!(evicted.0, key(5), "new entries land on probation");
        assert_eq!((t.evicted_idle, t.evicted_pressure), (2, 1));
    }

    #[test]
    fn protect_is_idempotent() {
        let mut t: FlowTable<u32> = FlowTable::new(4);
        t.insert(key(1), 1);
        t.insert(key(2), 2);
        t.insert(key(3), 3);
        t.protect(&key(2));
        t.protect(&key(2));
        // Probation order first, then protected order.
        assert_eq!(t.queue_order(), vec![key(1), key(3), key(2)]);
        t.remove(&key(2));
        assert_eq!(t.queue_order(), vec![key(1), key(3)]);
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
    fn replacing_rearms_the_deadline() {
        let mut t: FlowTable<u32> = FlowTable::new(8);
        t.insert_with_deadline(key(1), 1, 100);
        t.insert_with_deadline(key(1), 2, 500); // re-arm later
        assert_eq!(t.pop_expired(100), None, "old deadline is stale");
        assert_eq!(t.pop_expired(500), Some((key(1), 2)));
    }

    #[test]
    fn pop_due_disarms_but_keeps_the_entry() {
        let mut t: FlowTable<u32> = FlowTable::new(8);
        t.insert_with_deadline(key(1), 1, 100);
        let slot = t.pop_due(100).expect("due");
        assert_eq!(t.key_at(slot), Some(key(1)));
        assert_eq!(t.len(), 1, "still tracked");
        assert_eq!(t.next_deadline(), None, "disarmed");
        // Re-armed on the same slot, only the new deadline fires.
        t.arm_at(slot, 300);
        t.arm_at(slot, NO_DEADLINE);
        t.arm_at(slot, 400);
        assert_eq!(t.pop_due(399), None);
        assert_eq!(t.pop_due(400), Some(slot));
    }

    /// Keys whose hashes share their low 16 bits, all set: in any index
    /// of up to 64 K buckets they share the last bucket as home, so
    /// their probe run wraps to the front of the array.
    fn wrapping_keys(n: usize) -> Vec<FlowKey> {
        (0u32..)
            .map(|i| {
                FlowKey::tcp(
                    Ipv4Addr::from(0x0a00_0000 + i),
                    4000,
                    Ipv4Addr::new(10, 9, 0, 2),
                    80,
                )
            })
            .filter(|k| flow_hash(k) & 0xFFFF == 0xFFFF)
            .take(n)
            .collect()
    }

    #[test]
    fn backward_shift_deletion_wraps_the_index() {
        let keys = wrapping_keys(6);
        assert_eq!(keys.len(), 6);
        let mut t: FlowTable<u32> = FlowTable::new(8);
        for (i, k) in keys.iter().enumerate() {
            t.insert(*k, i as u32);
        }
        // The run starts at the last bucket and continues at the front.
        assert_eq!(t.index[t.mask].slot, 0);
        assert_eq!(t.index[0].slot, 1);
        assert_indexed(&t);
        // Deleting from the middle of the run pulls the wrapped
        // entries back across the end of the array.
        assert_eq!(t.remove(&keys[0]), Some(0));
        assert_indexed(&t);
        assert_eq!(t.index[t.mask].slot, 1, "shifted back over the end");
        assert_eq!(t.remove(&keys[3]), Some(3));
        assert_indexed(&t);
        for (i, k) in keys.iter().enumerate() {
            let want = (i != 0 && i != 3).then_some(i as u32);
            assert_eq!(t.get_mut(k).copied(), want, "key {i}");
        }
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
}
