//! The six workloads: what each offers, how the gateway is configured for
//! it, and why it exists. Sizes are fixed here; a run that must be
//! shorter cuts repetitions, never packets.

use crate::gen::{Churn, GenSpec, Hostile, Shape};
use crate::sut::{fig5_pipe, size_for_flow_scale, PipelineConfig, Translate};

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layer it loads or bypasses.
    pub why: &'static str,
    pub translate: Translate,
    pub spec: GenSpec,
    /// Offered load: sets the logical arrival clock, and with it how
    /// often held aggregates time out.
    pub offered_pps: f64,
    pub hold_ns: u64,
    /// Size steering and the pool for this many live flows
    /// (`None`: the Fig. 5 defaults).
    pub flow_scale: Option<usize>,
    /// Trace hash at `--seed 1`: input drift fails loudly.
    pub pinned_fnv_seed1: u64,
}

impl Workload {
    /// The one-worker pipeline the whole engine and the loop both run.
    pub fn pipe(&self) -> PipelineConfig {
        let mut pipe = fig5_pipe(self.translate);
        pipe.n_flows = self.spec.flows;
        pipe.offered_pps = self.offered_pps;
        pipe.hold_ns = self.hold_ns;
        if let Some(live) = self.flow_scale {
            size_for_flow_scale(&mut pipe, live);
        }
        pipe
    }

    /// IP total length from which a delivered packet counts as
    /// full-sized on this workload's egress side: inbound, the paper's
    /// rule (no further eMTU payload fits under the iMTU); outbound, a
    /// packet that fills the eMTU.
    pub fn full_at(&self, pipe: &PipelineConfig) -> usize {
        match self.translate {
            Translate::Egress => pipe.emtu,
            _ => pipe.imtu - (pipe.emtu - 40) + 1,
        }
    }
}

const FIG5_PPS: f64 = 133e6;
const FIG5_HOLD_NS: u64 = 130_000;

const BULK: GenSpec = GenSpec {
    shape: Shape::Tcp,
    flows: 800,
    pkts: 120_000,
    mean_burst: 24.0,
    burst_cap: 64,
    mix: &[(1460, 1)],
    bundle: 1,
    jumbo_payload: 0,
    churn: None,
    hostile: None,
};

pub const ALL: [Workload; 6] = [
    Workload {
        name: "tcp-bulk",
        why: "Fig. 5a: 800 TCP flows of full 1460 B segments; checksum, append copy and merge dominate, flow table stays in cache",
        translate: Translate::Merge,
        spec: BULK,
        offered_pps: FIG5_PPS,
        hold_ns: FIG5_HOLD_NS,
        flow_scale: None,
        pinned_fnv_seed1: 0xae83_59cd_dcd6_cb1e,
    },
    Workload {
        name: "udp-caravan",
        why: "Fig. 5b: 800 UDP flows of 1472 B datagrams; same engine, pool and flow table but caravan packing, so a merge change must not move it",
        translate: Translate::Caravan,
        spec: GenSpec {
            shape: Shape::Udp,
            mix: &[(1472, 1)],
            ..BULK
        },
        offered_pps: FIG5_PPS,
        hold_ns: FIG5_HOLD_NS,
        flow_scale: None,
        pinned_fnv_seed1: 0xee9a_f903_bf3e_1c79,
    },
    Workload {
        name: "egress-split",
        why: "the other direction: 9000 B TCP jumbos split and caravans unpacked; one big read, many small writes; bypasses merge, flow table and dispatch",
        translate: Translate::Egress,
        spec: GenSpec {
            shape: Shape::Egress,
            pkts: 20_000,
            mean_burst: 4.0,
            burst_cap: 16,
            mix: &[(1472, 1)],
            bundle: 6,
            jumbo_payload: 8960,
            ..BULK
        },
        offered_pps: FIG5_PPS / 6.0,
        hold_ns: FIG5_HOLD_NS,
        flow_scale: None,
        pinned_fnv_seed1: 0x1064_a898_036e_9abc,
    },
    Workload {
        name: "flows-100k",
        why: "100 k live flows, mice and Pareto elephants with churn; working set beyond cache, so flow table, steering and eviction dominate",
        translate: Translate::Merge,
        spec: GenSpec {
            flows: 100_000,
            pkts: 400_000,
            mean_burst: 48.0,
            burst_cap: 128,
            churn: Some(Churn {
                elephant_ppm: 20_000,
                mouse_max_pkts: 7,
                elephant_pkts: (50, 5_000),
                mice_mix: &[(64, 3), (256, 2), (536, 2), (1460, 3)],
            }),
            ..BULK
        },
        // The arrival clock and hold `crates/bench/src/flow_scale.rs` uses.
        offered_pps: 1e8,
        hold_ns: 20_000,
        flow_scale: Some(100_000),
        pinned_fnv_seed1: 0x1a51_c2ac_5eeb_caca,
    },
    Workload {
        name: "tcp-small",
        why: "smallest packets (0-536 B): parse, dispatch, ingress allocation and telemetry dominate, checksum is negligible",
        translate: Translate::Merge,
        spec: GenSpec {
            pkts: 400_000,
            mix: &[(0, 20), (64, 40), (256, 25), (536, 15)],
            ..BULK
        },
        offered_pps: FIG5_PPS,
        hold_ns: FIG5_HOLD_NS,
        flow_scale: None,
        pinned_fnv_seed1: 0xd15b_bfa9_a7ed_1c6f,
    },
    Workload {
        name: "hostile-mix",
        why: "tcp-bulk plus reorders, duplicates, forged and malformed segments; prices the stash, typed drops and passthrough slow path",
        translate: Translate::Merge,
        spec: GenSpec {
            hostile: Some(Hostile {
                reorder_ppm: 20_000,
                dup_ppm: 10_000,
                forge_ppm: 10_000,
                malformed_ppm: 5_000,
            }),
            ..BULK
        },
        offered_pps: FIG5_PPS,
        hold_ns: FIG5_HOLD_NS,
        flow_scale: None,
        pinned_fnv_seed1: 0x1822_3d06_cb80_1df4,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
