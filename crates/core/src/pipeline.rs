//! The multi-core PXGW datapath model — the machinery behind Fig. 5a/5b.
//!
//! A pipeline run combines three *real* components with two *modelled*
//! ones:
//!
//! real —
//! 1. a synthetic-but-byte-accurate packet trace (real TCP/UDP packets,
//!    per-flow sequence continuity, bursty run-length arrivals, as the
//!    800-flow iPerf workload of §5 produces after the ToR),
//! 2. RSS sharding of that trace across cores (real Toeplitz hashing, the
//!    symmetric key PXGW programs),
//! 3. the actual merge/caravan/baseline engines per core (conversion
//!    yield is *measured*, not assumed);
//!
//! modelled —
//! 4. per-core CPU cycles priced by [`px_sim::calib`],
//! 5. the shared memory bus ([`px_sim::calib::MEMBUS_BYTES_PER_SEC`]),
//!    which header-only DMA bypasses for payload bytes.
//!
//! Throughput = min(aggregate CPU rate, bus rate). Without header-only
//! DMA the 8-core PX configuration is bus-bound (the paper's 1.09 Tbps);
//! with it, CPU-bound (1.45 Tbps).

use crate::engine::CoreEngine;
use crate::flowtable::FlowTableConfig;
use crate::steer::SteerConfig;
use px_sim::calib;
use px_wire::ipv4::Ipv4Repr;
use px_wire::tcp::{SeqNum, TcpFlags, TcpRepr};
use px_wire::{FlowKey, IpProtocol, PacketBuf, RssHasher, UdpRepr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Which gateway implementation a pipeline run models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemVariant {
    /// DPDK-GRO software merging, no NIC offloads (the paper's baseline).
    BaselineGro,
    /// PXGW with LRO/TSO/RSS and delayed merging.
    Px,
    /// PXGW plus header-only DMA into NIC memory.
    PxHeaderOnly,
}

/// Which §5 workload the trace reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 800 bidirectional iPerf TCP flows (Fig. 5a).
    Tcp,
    /// 800 bidirectional iPerf UDP flows (Fig. 5b).
    Udp,
}

/// Pipeline run configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Gateway cores.
    pub cores: usize,
    /// System under test.
    pub variant: SystemVariant,
    /// Workload type.
    pub workload: WorkloadKind,
    /// b-network iMTU.
    pub imtu: usize,
    /// External MTU.
    pub emtu: usize,
    /// Concurrent flows.
    pub n_flows: usize,
    /// Mean contiguous run length (packets of one flow arriving
    /// back-to-back — the residue of sender-side TSO bursts after ToR
    /// multiplexing; §5's senders emit 64 KB bursts).
    pub mean_run: usize,
    /// Total input packets to trace.
    pub trace_pkts: usize,
    /// Offered load in packets/sec (drives inter-arrival timestamps and
    /// therefore how often delayed merges time out).
    pub offered_pps: f64,
    /// Delayed-merging hold (ns).
    pub hold_ns: u64,
    /// RNG seed.
    pub seed: u64,
    /// Small-flow steering (§3/§4.1). `None` — the Fig. 5 default —
    /// disables the classifier entirely: every flow takes the merge
    /// path, the historical (digest-pinned) behaviour.
    pub steer: Option<SteerConfig>,
    /// Per-core flow-table sizing override (entry ceiling + optional
    /// byte budget). `None` keeps the Fig. 5 default: 64 K entries,
    /// no budget.
    pub flow_table: Option<FlowTableConfig>,
    /// Parked-buffer cap for each core's output pool. 256 is the
    /// historical default; flow-scale runs raise it toward their
    /// concurrent-aggregate ceiling so recycling keeps the steady
    /// state allocation-free.
    pub pool_bufs: usize,
}

impl PipelineConfig {
    /// The paper's Fig. 5a setup for a given variant/core count.
    pub fn fig5(variant: SystemVariant, workload: WorkloadKind, cores: usize) -> Self {
        PipelineConfig {
            cores,
            variant,
            workload,
            imtu: px_wire::JUMBO_MTU,
            emtu: px_wire::LEGACY_MTU,
            n_flows: 800,
            mean_run: 24,
            trace_pkts: 120_000,
            // 800 flows × 2 Gbps at 1500 B ≈ 133 Mpps offered.
            offered_pps: 133e6,
            // Delayed merging must be comparable to the per-flow
            // inter-burst gap (≈145 µs at this load) for burst tails to
            // merge into the next burst instead of flushing as runts —
            // this is what buys PX its ≈93% conversion yield over the
            // baseline's ≈74% (paper: 76%) (sweep: 50 µs → 87%,
            // 130 µs → 94%, 250 µs → 98%). The baseline is never
            // polled, so it never reaches this hold: it flushes at every
            // RX burst instead.
            hold_ns: 130_000,
            seed: 0x000F_165A + cores as u64,
            steer: None,
            flow_table: None,
            pool_bufs: 256,
        }
    }
}

/// The outcome of a pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineReport {
    /// End-to-end forwarding throughput (bits/sec).
    pub throughput_bps: f64,
    /// What the CPU alone could sustain.
    pub cpu_bound_bps: f64,
    /// What the memory bus alone could sustain.
    pub membus_bound_bps: f64,
    /// Measured conversion yield (fraction of output packets that are
    /// iMTU-sized).
    pub conversion_yield: f64,
    /// Input packets traced.
    pub pkts_in: u64,
    /// Output packets after merging.
    pub pkts_out: u64,
}

/// One synthetic flow's packet-generation state.
struct FlowGen {
    key: FlowKey,
    next_seq: u32,
    next_ip_id: u16,
}

/// Generates the bursty, byte-accurate input trace: each step picks a
/// flow and emits a geometric-length run of contiguous eMTU packets.
pub struct TraceGen {
    flows: Vec<FlowGen>,
    rng: SmallRng,
    workload: WorkloadKind,
    emtu: usize,
    mean_run: usize,
}

impl TraceGen {
    /// Creates a trace generator over `n_flows` flows.
    pub fn new(
        workload: WorkloadKind,
        n_flows: usize,
        emtu: usize,
        mean_run: usize,
        seed: u64,
    ) -> Self {
        let flows = (0..n_flows)
            .map(|i| {
                let src = Ipv4Addr::new(198, 51, (i / 250) as u8, (i % 250) as u8 + 1);
                let dst = Ipv4Addr::new(10, 1, (i / 250) as u8, (i % 250) as u8 + 1);
                let sport = 33000 + (i % 16384) as u16;
                let key = match workload {
                    WorkloadKind::Tcp => FlowKey::tcp(src, sport, dst, 5201),
                    WorkloadKind::Udp => FlowKey::udp(src, sport, dst, 5201),
                };
                FlowGen {
                    key,
                    next_seq: (i as u32).wrapping_mul(1_000_003),
                    next_ip_id: i as u16,
                }
            })
            .collect();
        TraceGen {
            flows,
            rng: SmallRng::seed_from_u64(seed),
            workload,
            emtu,
            mean_run,
        }
    }

    // Workload generation, not datapath: payload sizes are computed from
    // the configured eMTU, so the builders cannot fail; a panic here is a
    // harness bug, not a gateway robustness issue.
    #[allow(clippy::expect_used)]
    fn build_pkt(&mut self, flow_idx: usize) -> Vec<u8> {
        let emtu = self.emtu;
        let f = &mut self.flows[flow_idx];
        match self.workload {
            WorkloadKind::Tcp => {
                let payload_len = emtu - 40;
                let mut payload = vec![0u8; payload_len];
                px_tcp::fill_pattern(u64::from(f.next_seq), &mut payload);
                let repr = TcpRepr {
                    src_port: f.key.src_port,
                    dst_port: f.key.dst_port,
                    seq: SeqNum(f.next_seq),
                    ack: SeqNum(1),
                    flags: TcpFlags::ACK,
                    window: 8192,
                    options: vec![],
                };
                let seg = repr.build_segment(f.key.src_ip, f.key.dst_ip, &payload);
                f.next_seq = f.next_seq.wrapping_add(payload_len as u32);
                let mut ip = Ipv4Repr::new(f.key.src_ip, f.key.dst_ip, IpProtocol::Tcp, seg.len());
                ip.ident = f.next_ip_id;
                f.next_ip_id = f.next_ip_id.wrapping_add(1);
                ip.build_packet(&seg).expect("fits")
            }
            WorkloadKind::Udp => {
                let payload_len = emtu - 28;
                let dg = UdpRepr {
                    src_port: f.key.src_port,
                    dst_port: f.key.dst_port,
                }
                .build_datagram(f.key.src_ip, f.key.dst_ip, &vec![0xEF; payload_len])
                .expect("fits");
                let mut ip = Ipv4Repr::new(f.key.src_ip, f.key.dst_ip, IpProtocol::Udp, dg.len());
                ip.ident = f.next_ip_id;
                f.next_ip_id = f.next_ip_id.wrapping_add(1);
                ip.build_packet(&dg).expect("fits")
            }
        }
    }

    /// Generates `total` packets as (flow_key, packet) pairs in arrival
    /// order.
    pub fn generate(&mut self, total: usize) -> Vec<(FlowKey, Vec<u8>)> {
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            let flow_idx = self.rng.gen_range(0..self.flows.len());
            // Geometric run length with the configured mean.
            let p = 1.0 / self.mean_run as f64;
            let mut run = 1;
            while self.rng.gen::<f64>() > p && run < 64 {
                run += 1;
            }
            for _ in 0..run {
                if out.len() >= total {
                    break;
                }
                let pkt = self.build_pkt(flow_idx);
                out.push((self.flows[flow_idx].key, pkt));
            }
        }
        out
    }
}

/// Runs the pipeline model and reports throughput + conversion yield.
pub fn run_pipeline(cfg: PipelineConfig) -> PipelineReport {
    assert!(cfg.cores > 0);
    let mut tracer = TraceGen::new(cfg.workload, cfg.n_flows, cfg.emtu, cfg.mean_run, cfg.seed);
    let trace = tracer.generate(cfg.trace_pkts);
    let rss = RssHasher::symmetric();

    // Per-core engines — the same construction the threaded engine uses.
    let mut engines: Vec<CoreEngine> = (0..cfg.cores).map(|_| CoreEngine::for_pipe(&cfg)).collect();

    let mut core_cycles = vec![0.0f64; cfg.cores];
    let mut core_bytes = vec![0u64; cfg.cores];
    let mut pkts_out = 0u64;
    let mut jumbo_out = 0u64;
    let inter_arrival_ns = 1e9 / cfg.offered_pps;
    let jumbo_at = cfg.imtu - (cfg.emtu - 40) + 1;

    // What one emitted unit costs the core that emitted it.
    let unit_cycles = |len: usize| {
        let segs = (len.saturating_sub(40)).div_ceil(cfg.emtu - 40).max(1);
        match (cfg.variant, cfg.workload) {
            // Baseline prices per input wire packet (done below);
            // output accounting is free.
            (SystemVariant::BaselineGro, _) => 0.0,
            (_, WorkloadKind::Tcp) => calib::px_tcp_unit_cycles(len, segs),
            (_, WorkloadKind::Udp) => calib::px_udp_unit_cycles(len, segs),
        }
    };

    for (i, (key, pkt)) in trace.into_iter().enumerate() {
        let core = rss.queue_for(&key, cfg.cores);
        let now = (i as f64 * inter_arrival_ns) as u64;
        if cfg.variant == SystemVariant::BaselineGro {
            // Software GRO cost is per *input* packet.
            core_cycles[core] += calib::baseline_gro_pkt_cycles(pkt.len());
        }
        core_bytes[core] += pkt.len() as u64;
        engines[core].push_into(now, pkt, &mut |unit: PacketBuf| {
            core_cycles[core] += unit_cycles(unit.len());
            pkts_out += 1;
            jumbo_out += u64::from(unit.len() >= jumbo_at);
            Some(unit)
        });
    }
    // The final drain is a finite-trace artifact: its cycles count, but
    // its (necessarily partial) aggregates are excluded from the
    // steady-state conversion yield.
    for (eng, cycles) in engines.iter_mut().zip(&mut core_cycles) {
        eng.finish_into(&mut |unit: PacketBuf| {
            *cycles += unit_cycles(unit.len());
            Some(unit)
        });
    }

    // CPU-bound throughput: each core forwards its bytes in the time its
    // cycles take; the aggregate is the sum of per-core rates.
    let cpu_bound_bps: f64 = core_bytes
        .iter()
        .zip(&core_cycles)
        .map(|(&b, &c)| {
            if c <= 0.0 {
                0.0
            } else {
                b as f64 * 8.0 * calib::FREQ_HZ / c
            }
        })
        .sum();

    // Memory-bus bound: payload crossings depend on the variant.
    let crossings = match (cfg.variant, cfg.workload) {
        (SystemVariant::PxHeaderOnly, _) => calib::BUS_CROSSINGS_HDR_ONLY,
        (SystemVariant::Px, WorkloadKind::Udp) => calib::BUS_CROSSINGS_UDP,
        (SystemVariant::Px, WorkloadKind::Tcp) => calib::BUS_CROSSINGS_DEFAULT,
        (SystemVariant::BaselineGro, _) => calib::BUS_CROSSINGS_UDP, // +1 copy
    };
    let membus_bound_bps = calib::MEMBUS_BYTES_PER_SEC / crossings * 8.0;

    let pkts_in: u64 = cfg.trace_pkts as u64;
    PipelineReport {
        throughput_bps: cpu_bound_bps.min(membus_bound_bps),
        cpu_bound_bps,
        membus_bound_bps,
        conversion_yield: if pkts_out == 0 {
            0.0
        } else {
            jumbo_out as f64 / pkts_out as f64
        },
        pkts_in,
        pkts_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(variant: SystemVariant, cores: usize) -> PipelineReport {
        let mut cfg = PipelineConfig::fig5(variant, WorkloadKind::Tcp, cores);
        cfg.trace_pkts = 30_000;
        cfg.n_flows = 200;
        run_pipeline(cfg)
    }

    #[test]
    fn px_beats_baseline_substantially() {
        let base = quick(SystemVariant::BaselineGro, 8);
        let px = quick(SystemVariant::Px, 8);
        assert!(
            px.throughput_bps > 4.0 * base.throughput_bps,
            "px {:.2e} vs base {:.2e}",
            px.throughput_bps,
            base.throughput_bps
        );
    }

    #[test]
    fn header_only_dma_lifts_the_bus_cap() {
        let px = quick(SystemVariant::Px, 8);
        let hdr = quick(SystemVariant::PxHeaderOnly, 8);
        assert!(px.throughput_bps <= px.membus_bound_bps + 1.0);
        assert!(
            hdr.throughput_bps > px.throughput_bps,
            "hdr {:.3e} vs px {:.3e}",
            hdr.throughput_bps,
            px.throughput_bps
        );
        // At 8 cores PX is bus-bound, PX+hdr CPU-bound.
        assert!(px.cpu_bound_bps > px.membus_bound_bps);
        assert!(hdr.membus_bound_bps > hdr.cpu_bound_bps);
    }

    #[test]
    fn scaling_with_cores_is_roughly_linear_until_the_bus() {
        let t1 = quick(SystemVariant::PxHeaderOnly, 1).throughput_bps;
        let t4 = quick(SystemVariant::PxHeaderOnly, 4).throughput_bps;
        let ratio = t4 / t1;
        assert!(ratio > 3.0 && ratio < 5.0, "4-core scaling ratio {ratio}");
    }

    #[test]
    fn px_yield_exceeds_baseline_yield() {
        let base = quick(SystemVariant::BaselineGro, 4);
        let px = quick(SystemVariant::Px, 4);
        assert!(
            px.conversion_yield > base.conversion_yield,
            "px {} vs base {}",
            px.conversion_yield,
            base.conversion_yield
        );
        assert!(
            px.conversion_yield > 0.8,
            "px yield {}",
            px.conversion_yield
        );
    }

    #[test]
    fn udp_caravan_peak_is_lower_than_tcp() {
        let mut tcp_cfg = PipelineConfig::fig5(SystemVariant::PxHeaderOnly, WorkloadKind::Tcp, 8);
        tcp_cfg.trace_pkts = 30_000;
        let mut udp_cfg = PipelineConfig::fig5(SystemVariant::PxHeaderOnly, WorkloadKind::Udp, 8);
        udp_cfg.trace_pkts = 30_000;
        let tcp = run_pipeline(tcp_cfg);
        let udp = run_pipeline(udp_cfg);
        assert!(
            udp.throughput_bps < tcp.throughput_bps,
            "udp {:.3e} tcp {:.3e}",
            udp.throughput_bps,
            tcp.throughput_bps
        );
        // "the conversion yield remains comparable to TCP"
        assert!(
            udp.conversion_yield > 0.75,
            "udp yield {}",
            udp.conversion_yield
        );
    }

    #[test]
    fn trace_is_byte_accurate() {
        let mut t = TraceGen::new(WorkloadKind::Tcp, 10, 1500, 8, 1);
        for (key, pkt) in t.generate(100) {
            let ip = px_wire::ipv4::Ipv4Packet::new_checked(&pkt[..]).unwrap();
            assert!(ip.verify_checksum());
            assert_eq!(px_wire::batchparse::parse_key(&pkt), Some(key));
            assert_eq!(pkt.len(), 1500);
        }
    }
}
