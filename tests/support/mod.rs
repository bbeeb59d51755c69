//! Support shared by the integration tests: the transparency oracle
//! and adversarial flow keys. Each test crate includes this module with
//! `mod support;` and uses what it needs.

#![allow(dead_code)]

pub mod oracle;

use packet_express::core::flowtable::flow_hash;
use packet_express::wire::FlowKey;
use std::net::Ipv4Addr;

/// `n` TCP flow keys to `10.99.0.1:5201`, from `40000` on source
/// addresses counted up from `10.0.0.0`, whose [`flow_hash`]es all have
/// their low `bits` bits set: in any flow-table index of up to
/// `2^bits` buckets they share the last bucket as home, so a lookup of
/// any of them walks a probe run that wraps to the front of the index.
/// `flow_hash` is unkeyed, so a sender who picks source addresses finds
/// these by trial: ≈ `n · 2^bits` hashes.
pub fn colliding_keys(bits: u32, n: usize) -> Vec<FlowKey> {
    let mask = (1u32 << bits) - 1;
    (0u32..)
        .map(|i| {
            FlowKey::tcp(
                Ipv4Addr::from(0x0a00_0000 + i),
                40_000,
                Ipv4Addr::new(10, 99, 0, 1),
                5201,
            )
        })
        .filter(|k| flow_hash(k) & mask == mask)
        .take(n)
        .collect()
}
