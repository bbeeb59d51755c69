//! The system under test, as the benchmark sees it.
//!
//! Every program symbol `pxbench` touches is named in this file and
//! nowhere else (`only_sut_names_the_program` below holds the other
//! modules to that). A refactor of the program keeps the benchmark alive
//! by keeping — or adapting here — exactly the signatures in
//! [`SURFACE`]; nothing else in `benchmark/` needs to change.
//!
//! Config structs are built through their constructors plus field
//! assignment, never struct literals, so a field added by a later change
//! does not break this package. The two wire reprs without constructors
//! (`TcpRepr`, `UdpRepr`) are the exception and are built in one place
//! each, below.

use std::net::Ipv4Addr;

pub use px_core::caravan_gw::CaravanEngine;
pub use px_core::engine::{run_engine_on_trace, CoreEngine, EngineConfig, EngineMode};
pub use px_core::flowtable::FlowTable;
pub use px_core::merge::MergeStats;
pub use px_core::pipeline::PipelineConfig;
pub use px_core::split::SplitEngine;
pub use px_core::steer::FlowClassifier;
pub use px_obs::ObsConfig;
pub use px_wire::batchparse::{parse_batch_with, parse_packet, ParsedMeta};
pub use px_wire::caravan::CaravanBuilder;
pub use px_wire::checksum::ones_complement_sum;
pub use px_wire::ipv4::CARAVAN_TOS;
pub use px_wire::pool::{BufPool, PacketSink, PoolStats, SgPacket};
pub use px_wire::{FlowKey, IpProtocol, PacketBuf, RssHasher};

use px_core::caravan_gw::CaravanConfig;
use px_core::pipeline::{SystemVariant, WorkloadKind};
use px_core::steer::SteerConfig;
use px_wire::ipv4::Ipv4Repr;
use px_wire::tcp::{SeqNum, TcpFlags, TcpRepr};
use px_wire::UdpRepr;

/// The signatures the benchmark depends on, as `path :: item`. Repeated
/// in `benchmark/README.md`; `surface_lists_every_import` keeps the two
/// halves of this file in step.
pub const SURFACE: &[&str] = &[
    "px_core::engine::run_engine_on_trace(EngineConfig, Vec<(FlowKey, Vec<u8>)>) -> EngineReport {wall_ns, totals, captured_output}",
    "px_core::engine::EngineConfig::new(PipelineConfig, EngineMode) + fields pipe, obs, digests, capture_output",
    "px_core::engine::EngineMode::Parallel",
    "px_core::engine::CoreEngine::{for_pipe, push_into, push_parsed_into, finish_into, idle_tick_into, enable_obs, obs_mut, flow_stats} + variants Merge, Caravan, Baseline",
    "px_core::pipeline::PipelineConfig::fig5(SystemVariant, WorkloadKind, cores) + fields cores, imtu, emtu, n_flows, offered_pps, hold_ns, steer, flow_table, pool_bufs",
    "px_core::pipeline::{SystemVariant::Px, WorkloadKind::{Tcp, Udp}}",
    "px_core::merge::MergeEngine::{push_into, poll_into, flush_all_into, pool_stats, flows_live, arena_bytes, stats: MergeStats} (reached through CoreEngine::Merge)",
    "px_core::merge::MergeStats fields pkts_in, passthrough, stashed_segs, below_window_forwarded, dropped_duplicate_segs, degraded_pkts, dropped_inconsistent_overlap, dropped_overlap_evasion",
    "px_core::caravan_gw::CaravanEngine::{new, push_inbound_into, push_outbound_into, poll_into, flush_all_into, pool_stats}",
    "px_core::caravan_gw::CaravanConfig::default() + fields imtu, hold_ns",
    "px_core::split::SplitEngine::{new, push_into, pool_stats}",
    "px_core::flowtable::FlowTable::{new, get_mut, insert_with_deadline, drain}",
    "px_core::steer::{FlowClassifier::{new, classify}, SteerConfig::default() + fields table_capacity, memory_budget}",
    "px_obs::ObsConfig::{default, disabled}",
    "px_obs::Recorder::{events_recorded, spans_recorded}",
    "px_wire::batchparse::{parse_packet, parse_batch_with, ParsedMeta}",
    "px_wire::checksum::ones_complement_sum(&[u8]) -> u16",
    "px_wire::pool::{BufPool::{for_mtu, prewarm, get, put, stats}, PoolStats, PacketSink::{accept, push_sg}, SgPacket::{header, payload, take_header}}",
    "px_wire::{FlowKey::{tcp, udp}, IpProtocol, PacketBuf::as_slice, RssHasher::{symmetric, queue_for}}",
    "px_wire::caravan::CaravanBuilder::{new, push, finish}",
    "px_wire::ipv4::{Ipv4Repr::{new, build_packet} + fields ident, tos; CARAVAN_TOS}",
    "px_wire::tcp::{TcpRepr {..}.build_segment, SeqNum, TcpFlags::ACK}",
    "px_wire::udp::UdpRepr {..}.build_datagram",
];

/// The gateway direction a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translate {
    /// eMTU → iMTU TCP merge (`CoreEngine::Merge`).
    Merge,
    /// eMTU → iMTU UDP caravan packing (`CoreEngine::Caravan`).
    Caravan,
    /// iMTU → eMTU: TCP split plus caravan unpacking. The engine has no
    /// variant for this direction, so only the loop runs it.
    Egress,
}

/// The Fig. 5 pipeline for one worker, PX variant.
pub fn fig5_pipe(translate: Translate) -> PipelineConfig {
    let kind = match translate {
        Translate::Merge | Translate::Egress => WorkloadKind::Tcp,
        Translate::Caravan => WorkloadKind::Udp,
    };
    PipelineConfig::fig5(SystemVariant::Px, kind, 1)
}

/// Steering and pool sizing for a large flow population, the values
/// `crates/bench/src/flow_scale.rs` uses (classifier sized for twice the
/// live flows under a byte budget, 1024 parked pool buffers).
// Constructor plus field assignment on purpose (see the module docs).
#[allow(clippy::field_reassign_with_default)]
pub fn size_for_flow_scale(pipe: &mut PipelineConfig, live_flows: usize) {
    const STEER_ENTRY_BYTES: usize = 192;
    let mut steer = SteerConfig::default();
    steer.table_capacity = 2 * live_flows;
    steer.memory_budget = Some((2 * live_flows * STEER_ENTRY_BYTES).max(32 << 20));
    pipe.steer = Some(steer);
    pipe.pool_bufs = 1024;
}

/// The whole-engine configuration every timed row uses: Parallel mode,
/// the FNV auditor off, everything else as shipped.
pub fn engine_config(pipe: PipelineConfig) -> EngineConfig {
    let mut cfg = EngineConfig::new(pipe, EngineMode::Parallel);
    cfg.digests = false;
    cfg
}

/// A classifier configured as `pipe.steer` asks (`None` when the
/// workload does not steer).
pub fn classifier_for(pipe: &PipelineConfig) -> Option<FlowClassifier> {
    pipe.steer.map(FlowClassifier::new)
}

/// The merge/caravan flow-table capacity `pipe` resolves to.
pub fn flow_table_capacity(pipe: &PipelineConfig) -> usize {
    pipe.flow_table.map_or(65536, |t| t.capacity)
}

/// The caravan engine the egress direction unpacks with.
#[allow(clippy::field_reassign_with_default)]
pub fn egress_caravan(pipe: &PipelineConfig) -> CaravanEngine {
    let mut cfg = CaravanConfig::default();
    cfg.imtu = pipe.imtu;
    cfg.hold_ns = pipe.hold_ns;
    CaravanEngine::new(cfg)
}

/// Events plus spans the engine's recorder has written so far.
pub fn obs_records(engine: &mut CoreEngine) -> u64 {
    engine
        .obs_mut()
        .map_or(0, |r| r.events_recorded() + r.spans_recorded())
}

/// One IPv4/TCP packet (ACK set, no options, ack 1, window 8192 — the
/// header shape the merge gates treat as one in-order stream).
pub fn build_tcp(key: &FlowKey, seq: u32, ip_id: u16, payload: &[u8]) -> Vec<u8> {
    let repr = TcpRepr {
        src_port: key.src_port,
        dst_port: key.dst_port,
        seq: SeqNum(seq),
        ack: SeqNum(1),
        flags: TcpFlags::ACK,
        window: 8192,
        options: Vec::new(),
    };
    let seg = repr.build_segment(key.src_ip, key.dst_ip, payload);
    let mut ip = Ipv4Repr::new(key.src_ip, key.dst_ip, IpProtocol::Tcp, seg.len());
    ip.ident = ip_id;
    ip.build_packet(&seg).expect("generated segment fits IPv4")
}

/// One UDP datagram (header + payload) of `key`.
pub fn build_udp_datagram(key: &FlowKey, payload: &[u8]) -> Vec<u8> {
    UdpRepr {
        src_port: key.src_port,
        dst_port: key.dst_port,
    }
    .build_datagram(key.src_ip, key.dst_ip, payload)
    .expect("generated datagram fits UDP")
}

/// Wraps a UDP datagram (or a caravan's outer datagram, with
/// `tos = CARAVAN_TOS`) in its IPv4 header.
pub fn wrap_udp(src: Ipv4Addr, dst: Ipv4Addr, ip_id: u16, tos: u8, datagram: &[u8]) -> Vec<u8> {
    let mut ip = Ipv4Repr::new(src, dst, IpProtocol::Udp, datagram.len());
    ip.ident = ip_id;
    ip.tos = tos;
    ip.build_packet(datagram)
        .expect("generated datagram fits IPv4")
}

#[cfg(test)]
mod tests {
    use super::SURFACE;

    fn sources() -> Vec<(String, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "rs") {
                let name = path.file_name().unwrap().to_string_lossy().to_string();
                out.push((name, std::fs::read_to_string(&path).unwrap()));
            }
        }
        out
    }

    #[test]
    fn only_sut_names_the_program() {
        for (name, text) in sources() {
            if name == "sut.rs" {
                continue;
            }
            for krate in ["px_core", "px_wire", "px_obs"] {
                let needle = format!("{krate}::");
                assert!(
                    !text.contains(&needle),
                    "{name} names {krate} directly; route it through sut.rs"
                );
            }
        }
    }

    #[test]
    fn surface_lists_every_import() {
        let (_, text) = sources()
            .into_iter()
            .find(|(n, _)| n == "sut.rs")
            .expect("sut.rs");
        let surface = SURFACE.join("\n");
        for line in text.lines().filter(|l| l.starts_with("pub use px_")) {
            let idents = line
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|t| !t.is_empty() && !matches!(*t, "pub" | "use"));
            for ident in idents {
                assert!(surface.contains(ident), "SURFACE does not mention {ident}");
            }
        }
    }
}
