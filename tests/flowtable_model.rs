//! Adversarial churn proptests for the PXGW flow table.
//!
//! A naive reference model of second-chance eviction — two plain queues
//! and a map — is driven in lockstep with the real table (slab,
//! open-addressed index, reference bits, lazy deadline heap) through
//! arbitrary interleavings of inserts, lookups, protects, removes,
//! deadline expiries, and time advances. Three properties are enforced
//! at every step:
//!
//! 1. **Bounded occupancy** — the table never exceeds its configured
//!    capacity, whatever the interleaving.
//! 2. **No silent loss** — every value (standing in for unflushed merge
//!    state) that enters the table leaves it exactly once, through a
//!    return path the caller can rescue-flush: the eviction return of
//!    `insert`, `remove`, `pop_expired`, or the final `drain`.
//! 3. **Model equivalence** — eviction victims, segment membership,
//!    queue order, expiry order, and the idle/pressure counters all
//!    match the reference.
//!
//! The churn runs twice: over keys spread across the index, and over
//! keys that all share the index's last bucket as home, so every probe
//! run wraps to the front of the array and every removal's backward
//! shift crosses its end.

use packet_express::core::flowtable::flow_hash;
use packet_express::core::{FlowTable, FlowTableConfig};
use packet_express::wire::FlowKey;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Small capacity against a larger key universe: most inserts during a
/// run happen at capacity, so eviction logic is exercised constantly.
const CAPACITY: usize = 8;
const KEYS: u16 = 24;

fn key(i: u16) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8),
        40_000 + i,
        Ipv4Addr::new(10, 99, 0, 1),
        5201,
    )
}

/// `KEYS` keys whose hashes share their low 16 bits, all set: in any
/// index of up to 64 K buckets their home is the last bucket.
fn colliding_keys() -> &'static [FlowKey] {
    static KEYS_AT_END: OnceLock<Vec<FlowKey>> = OnceLock::new();
    KEYS_AT_END.get_or_init(|| {
        (0u32..)
            .map(|i| {
                FlowKey::tcp(
                    Ipv4Addr::from(0x0a00_0000 + i),
                    40_000,
                    Ipv4Addr::new(10, 99, 0, 1),
                    5201,
                )
            })
            .filter(|k| flow_hash(k) & 0xFFFF == 0xFFFF)
            .take(usize::from(KEYS))
            .collect()
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert key `k`; when `armed`, with a deadline `delay` ticks out.
    Insert { k: u16, armed: bool, delay: u16 },
    /// `get_mut` (sets the reference bit on a hit).
    Get { k: u16 },
    /// Promote to the protected segment.
    Protect { k: u16 },
    /// Explicit removal.
    Remove { k: u16 },
    /// Drain one expired entry at the current clock.
    PopExpired,
    /// Advance the clock.
    Advance { dt: u16 },
}

/// Decodes one generated tuple into an operation. The selector field
/// weights the mix: inserts dominate (they drive churn), lookups are
/// frequent, and structural ops (protect / remove / expiry / time) each
/// get a steady share.
fn decode(sel: u8, k: u16, delay: u16, dt: u16) -> Op {
    match sel {
        0..=3 => Op::Insert {
            k,
            armed: sel.is_multiple_of(2),
            delay,
        },
        4..=6 => Op::Get { k },
        7 => Op::Protect { k },
        8 => Op::Remove { k },
        9..=10 => Op::PopExpired,
        _ => Op::Advance { dt },
    }
}

/// The naive reference: a flat map plus one queue per segment. A touch
/// sets the entry's reference bit; an eviction takes the probation
/// queue while it holds anything, else the protected one, moving
/// referenced heads to the back with the bit cleared until an
/// unreferenced head is found.
#[derive(Debug, Clone, Copy)]
struct ModelEntry {
    token: u64,
    deadline: Option<u64>,
    protected: bool,
    referenced: bool,
}

#[derive(Default)]
struct Model {
    entries: HashMap<u16, ModelEntry>,
    /// `[probation, protected]`, head first.
    queues: [VecDeque<u16>; 2],
    evicted_idle: u64,
    evicted_pressure: u64,
}

impl Model {
    /// The second-chance victim, taken out of the model.
    fn evict(&mut self) -> (u16, ModelEntry) {
        let seg = usize::from(self.queues[0].is_empty());
        loop {
            let head = self.queues[seg]
                .pop_front()
                .expect("victim in non-empty table");
            let e = self
                .entries
                .get_mut(&head)
                .expect("queued entries are live");
            if !e.referenced {
                if seg == 0 {
                    self.evicted_idle += 1;
                } else {
                    self.evicted_pressure += 1;
                }
                let e = self.entries.remove(&head).expect("checked above");
                return (head, e);
            }
            e.referenced = false;
            self.queues[seg].push_back(head);
        }
    }

    /// Mirrors `FlowTable::insert_with_deadline`; returns the rescue
    /// return the real table must produce. Replacing is a touch.
    fn insert(&mut self, k: u16, token: u64, deadline: Option<u64>) -> Option<(u16, u64)> {
        if let Some(e) = self.entries.get_mut(&k) {
            e.token = token;
            e.deadline = deadline;
            e.referenced = true;
            return None;
        }
        let evicted = (self.entries.len() >= CAPACITY).then(|| {
            let (v, e) = self.evict();
            (v, e.token)
        });
        self.entries.insert(
            k,
            ModelEntry {
                token,
                deadline,
                protected: false,
                referenced: false,
            },
        );
        self.queues[0].push_back(k);
        evicted
    }

    /// Takes `k` out of the map and its queue.
    fn remove(&mut self, k: u16) -> Option<ModelEntry> {
        let e = self.entries.remove(&k)?;
        self.queues[usize::from(e.protected)].retain(|&q| q != k);
        Some(e)
    }

    /// Moves `k` to the back of the protected queue.
    fn protect(&mut self, k: u16) {
        if let Some(e) = self.entries.get_mut(&k).filter(|e| !e.protected) {
            e.protected = true;
            self.queues[0].retain(|&q| q != k);
            self.queues[1].push_back(k);
        }
    }

    /// The key(s) holding the minimum armed deadline `<= now`. Deadline
    /// ties are possible (two arms can land on the same tick), and the
    /// real table breaks them by slot index — an implementation detail —
    /// so expiry checks accept any minimal candidate and then sync.
    fn expirable(&self, now: u64) -> Vec<u16> {
        let due = self
            .entries
            .values()
            .filter_map(|e| e.deadline)
            .filter(|&d| d <= now)
            .min();
        match due {
            None => Vec::new(),
            Some(min) => self
                .entries
                .iter()
                .filter(|(_, e)| e.deadline == Some(min))
                .map(|(&k, _)| k)
                .collect(),
        }
    }

    /// The queue order the table must report: probation, then
    /// protected, each head first.
    fn queue_order(&self, keys: &[FlowKey]) -> Vec<FlowKey> {
        self.queues
            .iter()
            .flatten()
            .map(|&k| keys[usize::from(k)])
            .collect()
    }
}

type Raw = Vec<(u8, u16, u16, u16)>;

fn raw_ops() -> impl Strategy<Value = Raw> {
    proptest::collection::vec((0u8..13, 0..KEYS, 1..64u16, 1..48u16), 1..300)
}

/// Drives table and model through one interleaving over `keys`,
/// demanding step-by-step equivalence plus end-to-end conservation of
/// every stored value.
fn churn(raw: Raw, keys: &[FlowKey]) {
    let key = |i: u16| keys[usize::from(i)];
    let mut table: FlowTable<u64> =
        FlowTable::with_config(FlowTableConfig::with_capacity(CAPACITY));
    let mut model = Model::default();
    let mut now = 0u64;
    let mut next_token = 0u64;
    let mut issued = 0u64;
    // Every token that left the table through a rescuable path.
    let mut returned: Vec<u64> = Vec::new();
    // Tokens the *caller* overwrote via insert-replace — the one
    // legitimate way state leaves without a rescue return.
    let mut clobbered: Vec<u64> = Vec::new();

    for (sel, k, delay, dt) in raw {
        match decode(sel, k, delay, dt) {
            Op::Insert { k, armed, delay } => {
                let token = next_token;
                next_token += 1;
                issued += 1;
                if let Some(old) = model.entries.get(&k) {
                    clobbered.push(old.token);
                }
                let deadline = armed.then(|| now + u64::from(delay));
                let want = model.insert(k, token, deadline);
                let got = match deadline {
                    Some(d) => table.insert_with_deadline(key(k), token, d),
                    None => table.insert(key(k), token),
                };
                let want_k = want.map(|(vk, v)| (key(vk), v));
                prop_assert_eq!(got, want_k, "eviction mismatch on insert of {}", k);
                if let Some((_, v)) = want {
                    returned.push(v);
                }
            }
            Op::Get { k } => {
                let want = model.entries.get_mut(&k).map(|e| {
                    // A hit sets the reference bit in both worlds.
                    e.referenced = true;
                    e.token
                });
                prop_assert_eq!(table.get_mut(&key(k)).copied(), want);
            }
            Op::Protect { k } => {
                let want = model.entries.contains_key(&k);
                model.protect(k);
                prop_assert_eq!(table.protect(&key(k)), want);
            }
            Op::Remove { k } => {
                let want = model.remove(k).map(|e| e.token);
                prop_assert_eq!(table.remove(&key(k)), want);
                if let Some(v) = want {
                    returned.push(v);
                }
            }
            Op::PopExpired => {
                let candidates = model.expirable(now);
                match table.pop_expired(now) {
                    None => prop_assert!(
                        candidates.is_empty(),
                        "table says nothing expired at {} but model has {:?}",
                        now,
                        candidates
                    ),
                    Some((fk, v)) => {
                        let k = candidates.iter().copied().find(|&c| key(c) == fk);
                        prop_assert!(
                            k.is_some(),
                            "popped {:?} not among minimal-deadline candidates {:?}",
                            fk,
                            candidates
                        );
                        let e = model
                            .remove(k.expect("checked above"))
                            .expect("candidate is live");
                        prop_assert_eq!(v, e.token);
                        returned.push(v);
                    }
                }
            }
            Op::Advance { dt } => now += u64::from(dt),
        }

        // Invariants that must hold after *every* operation.
        prop_assert!(
            table.len() <= CAPACITY,
            "capacity exceeded: {}",
            table.len()
        );
        prop_assert_eq!(table.len(), model.entries.len());
        prop_assert_eq!(table.evicted_idle, model.evicted_idle);
        prop_assert_eq!(table.evicted_pressure, model.evicted_pressure);
        prop_assert_eq!(table.queue_order(), model.queue_order(keys));
    }

    // Conservation: drain what remains; every issued token must have
    // left the table exactly once — via an eviction return, an
    // explicit remove, an expiry pop, or this final drain. Nothing
    // is silently dropped, nothing is duplicated.
    for (fk, v) in table.drain() {
        let k = (0..KEYS)
            .find(|&i| key(i) == fk)
            .expect("key from our universe");
        let e = model.remove(k).expect("drained entry is live in model");
        prop_assert_eq!(v, e.token);
        returned.push(v);
    }
    prop_assert!(
        model.entries.is_empty(),
        "model retained {:?}",
        model.entries.keys()
    );
    returned.extend_from_slice(&clobbered);
    returned.sort_unstable();
    let unique = returned.windows(2).all(|w| w[0] != w[1]);
    prop_assert!(unique, "a value left the table twice");
    prop_assert_eq!(
        returned.len() as u64,
        issued,
        "values lost without a rescue path"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Keys spread across the index.
    #[test]
    fn flow_table_survives_adversarial_churn(raw in raw_ops()) {
        let keys: Vec<FlowKey> = (0..KEYS).map(key).collect();
        churn(raw, &keys);
    }

    /// Keys that all share the last bucket as home.
    #[test]
    fn flow_table_survives_churn_wrapping_one_home_bucket(raw in raw_ops()) {
        churn(raw, colliding_keys());
    }
}
