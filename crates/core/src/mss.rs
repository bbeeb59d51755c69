//! MSS rewriting — PXGW's handshake intervention (paper §4.1).
//!
//! "The MSS of a TCP connection is negotiated at handshake by the
//! endpoints, so the sender can be constrained to transmit only small
//! segments even if the internal path supports a larger MTU. To address
//! this, PXGW needs to intervene during the MSS negotiation, effectively
//! advertising a larger MSS on behalf of the downstream endpoint."
//!
//! Concretely: a SYN or SYN-ACK travelling *into* the b-network carries
//! the external host's MSS (e.g. 1460). PXGW raises it to `iMTU − 40` so
//! the internal host will emit jumbo segments — which the gateway later
//! splits back down for the external leg. Packets travelling *out* of the
//! b-network keep their MSS: the external host's own 1500 B interface
//! already limits its segments, and a large advertised MSS from the
//! internal host is harmless (senders use `min(own limit, peer MSS)`).
//!
//! A SYN signed with TCP-MD5 (RFC 2385) or TCP-AO (RFC 5925) is left as
//! it came: its MAC covers the options, so a raised MSS would fail the
//! receiver's check and the session (typically BGP) would never come up.

use px_wire::checksum;
use px_wire::ipv4::Ipv4Packet;
use px_wire::tcp::TcpSegment;
use px_wire::IpProtocol;

/// TCP option kinds whose MAC covers the segment, options included:
/// TCP-MD5 (RFC 2385) and TCP-AO (RFC 5925).
const SIGNED_OPTION_KINDS: [u8; 2] = [19, 29];

/// The result of an MSS rewrite attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MssRewrite {
    /// The packet was a SYN with an MSS option; it was rewritten from the
    /// contained old value to the new one.
    Rewritten {
        /// Value before rewriting.
        old: u16,
        /// Value after rewriting.
        new: u16,
    },
    /// The packet was a SYN with an MSS option already at least the
    /// target; left alone (never *lower* a peer's MSS on the inbound
    /// path — it would only cost performance).
    AlreadyLarge(u16),
    /// The packet is a SYN carrying a TCP-MD5 or TCP-AO option; left
    /// untouched, since a rewrite would break its MAC.
    Signed,
    /// The packet is not a SYN, or carries no MSS option; untouched.
    NotApplicable,
}

/// Rewrites the MSS option of a SYN/SYN-ACK IPv4+TCP packet *in place*,
/// raising it to `target_mss` (never lowering) unless the segment is
/// signed (see [`MssRewrite::Signed`]). Both the TCP checksum and
/// (unchanged) IP header are kept valid; the TCP checksum is patched
/// incrementally (RFC 1624), exactly as a hardware datapath would.
pub fn raise_mss(packet: &mut [u8], target_mss: u16) -> MssRewrite {
    let Ok(ip) = Ipv4Packet::new_checked(&packet[..]) else {
        return MssRewrite::NotApplicable;
    };
    if ip.protocol() != IpProtocol::Tcp || ip.is_fragment() {
        return MssRewrite::NotApplicable;
    }
    let ip_hlen = ip.header_len();
    let Ok(tcp) = TcpSegment::new_checked(ip.payload()) else {
        return MssRewrite::NotApplicable;
    };
    if !tcp.flags().syn {
        return MssRewrite::NotApplicable;
    }
    let tcp_hlen = tcp.header_len();

    // Walk the whole options block before writing anything: the first
    // MSS option (kind 2, len 4) is the one to raise, and a signing
    // option anywhere forbids touching the segment at all.
    let opt_start = ip_hlen + 20;
    let opt_end = ip_hlen + tcp_hlen;
    let mut mss_at = None;
    let mut i = opt_start;
    while i < opt_end {
        match packet[i] {
            0 => break,
            1 => i += 1,
            kind => {
                if i + 1 >= opt_end {
                    break;
                }
                let len = usize::from(packet[i + 1]);
                if len < 2 || i + len > opt_end {
                    break;
                }
                if SIGNED_OPTION_KINDS.contains(&kind) {
                    return MssRewrite::Signed;
                }
                if kind == 2 && len == 4 && mss_at.is_none() {
                    mss_at = Some(i + 2);
                }
                i += len;
            }
        }
    }
    let Some(at) = mss_at else {
        return MssRewrite::NotApplicable;
    };
    let old = u16::from_be_bytes([packet[at], packet[at + 1]]);
    if old >= target_mss {
        return MssRewrite::AlreadyLarge(old);
    }
    packet[at..at + 2].copy_from_slice(&target_mss.to_be_bytes());
    patch_tcp_checksum(packet, ip_hlen, at, old, target_mss);
    MssRewrite::Rewritten {
        old,
        new: target_mss,
    }
}

/// Incrementally patches the TCP checksum after a 16-bit word at absolute
/// byte offset `word_off` (must be even relative to the TCP header start)
/// changed from `old` to `new`.
fn patch_tcp_checksum(packet: &mut [u8], ip_hlen: usize, word_off: usize, old: u16, new: u16) {
    let ck_off = ip_hlen + 16;
    if (word_off - ip_hlen).is_multiple_of(2) {
        // Aligned 16-bit word: RFC 1624 incremental update.
        let old_ck = u16::from_be_bytes([packet[ck_off], packet[ck_off + 1]]);
        let new_ck = checksum::incremental_update(old_ck, old, new);
        packet[ck_off..ck_off + 2].copy_from_slice(&new_ck.to_be_bytes());
    } else {
        // Odd alignment (NOP-shifted option): recompute from scratch.
        let ip = Ipv4Packet::new_unchecked(&packet[..]);
        let (src, dst) = (ip.src(), ip.dst());
        let seg_start = ip_hlen;
        let seg_end = ip.total_len();
        let mut tcp = TcpSegment::new_unchecked(&mut packet[seg_start..seg_end]);
        tcp.fill_checksum(src, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_wire::ipv4::Ipv4Repr;
    use px_wire::tcp::{SeqNum, TcpFlags, TcpOption, TcpRepr};
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 5);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);

    fn syn_packet(mss: Option<u16>, syn: bool) -> Vec<u8> {
        syn_with(mss, syn, Vec::new())
    }

    /// A SYN(-ACK) with `extra` options after MSS, SACK-permitted and
    /// window scale.
    fn syn_with(mss: Option<u16>, syn: bool, extra: Vec<TcpOption>) -> Vec<u8> {
        let mut options = vec![TcpOption::SackPermitted, TcpOption::WindowScale(7)];
        if let Some(m) = mss {
            options.insert(0, TcpOption::Mss(m));
        }
        options.extend(extra);
        let repr = TcpRepr {
            src_port: 443,
            dst_port: 55000,
            seq: SeqNum(0xAABBCCDD),
            ack: SeqNum(17),
            flags: if syn {
                TcpFlags::SYN_ACK
            } else {
                TcpFlags::ACK
            },
            window: 64000,
            options,
        };
        let seg = repr.build_segment(SRC, DST, b"");
        Ipv4Repr::new(SRC, DST, px_wire::IpProtocol::Tcp, seg.len())
            .build_packet(&seg)
            .unwrap()
    }

    fn checksums_ok(pkt: &[u8]) -> bool {
        let ip = Ipv4Packet::new_checked(pkt).unwrap();
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        ip.verify_checksum() && tcp.verify_checksum(ip.src(), ip.dst())
    }

    #[test]
    fn rewrites_and_keeps_checksums_valid() {
        let mut pkt = syn_packet(Some(1460), true);
        assert!(checksums_ok(&pkt));
        let r = raise_mss(&mut pkt, 8960);
        assert_eq!(
            r,
            MssRewrite::Rewritten {
                old: 1460,
                new: 8960
            }
        );
        assert!(checksums_ok(&pkt), "incremental checksum patch must hold");
        // The peer now sees the jumbo MSS.
        let ip = Ipv4Packet::new_checked(&pkt[..]).unwrap();
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        let parsed = px_wire::tcp::TcpRepr::parse(&tcp).unwrap();
        assert_eq!(parsed.mss(), Some(8960));
    }

    #[test]
    fn never_lowers() {
        let mut pkt = syn_packet(Some(9216), true);
        let r = raise_mss(&mut pkt, 8960);
        assert_eq!(r, MssRewrite::AlreadyLarge(9216));
        assert!(checksums_ok(&pkt));
    }

    #[test]
    fn ignores_non_syn_and_missing_option() {
        let mut pkt = syn_packet(Some(1460), false);
        assert_eq!(raise_mss(&mut pkt, 8960), MssRewrite::NotApplicable);
        let mut pkt = syn_packet(None, true);
        assert_eq!(raise_mss(&mut pkt, 8960), MssRewrite::NotApplicable);
        assert!(checksums_ok(&pkt));
    }

    #[test]
    fn ignores_udp_and_garbage() {
        let dg = px_wire::UdpRepr {
            src_port: 1,
            dst_port: 2,
        }
        .build_datagram(SRC, DST, b"x")
        .unwrap();
        let mut pkt = Ipv4Repr::new(SRC, DST, px_wire::IpProtocol::Udp, dg.len())
            .build_packet(&dg)
            .unwrap();
        assert_eq!(raise_mss(&mut pkt, 8960), MssRewrite::NotApplicable);
        let mut junk = vec![0u8; 10];
        assert_eq!(raise_mss(&mut junk, 8960), MssRewrite::NotApplicable);
    }

    /// A signed SYN comes out byte-identical: TCP-MD5 (kind 19, an
    /// 18-byte option) and TCP-AO (kind 29, key ids plus a 12-byte MAC).
    #[test]
    fn leaves_signed_syns_alone() {
        let md5 = TcpOption::Unknown(19, vec![0xA5; 16]);
        let ao = TcpOption::Unknown(29, [vec![7, 7], vec![0x5A; 12]].concat());
        for signature in [md5, ao] {
            let orig = syn_with(Some(1460), true, vec![signature.clone()]);
            let mut pkt = orig.clone();
            assert_eq!(
                raise_mss(&mut pkt, 8960),
                MssRewrite::Signed,
                "{signature:?}"
            );
            assert_eq!(pkt, orig, "{signature:?}");
        }
        // The same SYN without a signature is still raised.
        let mut plain = syn_with(Some(1460), true, vec![TcpOption::Timestamps(1, 0)]);
        assert!(matches!(
            raise_mss(&mut plain, 8960),
            MssRewrite::Rewritten { old: 1460, .. }
        ));
        assert!(checksums_ok(&plain));
    }

    /// Exhaustive-ish: rewriting must match a full checksum recomputation
    /// for many MSS values.
    #[test]
    fn incremental_patch_matches_recompute() {
        for old in [536u16, 1200, 1460, 4000, 8000] {
            for new in [1460u16, 8960, 9000, 65535] {
                if new <= old {
                    continue;
                }
                let mut pkt = syn_packet(Some(old), true);
                raise_mss(&mut pkt, new);
                assert!(checksums_ok(&pkt), "old={old} new={new}");
            }
        }
    }
}
