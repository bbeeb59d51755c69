//! The F-PMTUD wire format (paper §4.2): probe and report payloads, the
//! daemon's rule that turns one into the other, and the protocol's
//! well-known ports.
//!
//! This lives in `px-wire` because three components speak it: the
//! prober (`px_core::pmtud_client`, which the PXGW runs and px-pmtud's
//! sim node wraps), the PXGW datapath (which must recognise probes to
//! exempt them from caravan bundling), and the daemons (px-pmtud's
//! standalone node and the host stack's built-in one).
//!
//! There is one format. A probe is `magic(4) id(4) nonce(8)` plus zero
//! padding up to the probe size; a report is `magic(4) id(4) nonce(8)
//! count(2)` followed by `count` big-endian 16-bit fragment sizes. The
//! report echoes the probe's nonce, which is what lets the prober tell
//! an answer from a forgery.

/// Well-known UDP port of the F-PMTUD daemon ("a dummy UDP packet … to
/// the destination node with a well-known port").
pub const FPMTUD_PORT: u16 = 3198;

/// UDP echo port served by daemons for DF-probe acknowledgments
/// (PLPMTUD and classic-PMTUD verification).
pub const ECHO_PORT: u16 = 3197;

/// Magic prefix of a probe payload.
pub const PROBE_MAGIC: [u8; 4] = *b"FPMP";
/// Magic prefix of a report payload.
pub const REPORT_MAGIC: [u8; 4] = *b"FPMR";
/// Magic prefix of an echo-ack payload (served on [`ECHO_PORT`]).
pub const ECHO_MAGIC: [u8; 4] = *b"FPME";

/// Bytes before a report's size list: magic, id, nonce, count.
const REPORT_HEADER: usize = 18;

/// Builds a probe payload: magic + probe id + nonce + zero padding so
/// the whole IP packet is `probe_size` bytes (20 B IP + 8 B UDP +
/// payload). The payload is floored at 16 bytes so the nonce always fits.
pub fn probe_payload(probe_id: u32, nonce: u64, probe_size: usize) -> Vec<u8> {
    let udp_payload_len = probe_size.saturating_sub(20 + 8).max(16);
    let mut p = vec![0u8; udp_payload_len];
    p[0..4].copy_from_slice(&PROBE_MAGIC);
    p[4..8].copy_from_slice(&probe_id.to_be_bytes());
    p[8..16].copy_from_slice(&nonce.to_be_bytes());
    p
}

/// Parses a probe payload into (probe id, nonce).
pub fn parse_probe(data: &[u8]) -> Option<(u32, u64)> {
    if data.len() < 16 || data[0..4] != PROBE_MAGIC {
        return None;
    }
    Some((
        crate::bytes::be32(data, 4),
        u64::from_be_bytes(data[8..16].try_into().ok()?),
    ))
}

/// Serializes a fragment-size report: magic + probe id + nonce + count
/// + sizes.
pub fn report_payload(probe_id: u32, nonce: u64, sizes: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REPORT_HEADER + sizes.len() * 2);
    out.extend_from_slice(&REPORT_MAGIC);
    out.extend_from_slice(&probe_id.to_be_bytes());
    out.extend_from_slice(&nonce.to_be_bytes());
    out.extend_from_slice(&(sizes.len() as u16).to_be_bytes());
    for &s in sizes {
        out.extend_from_slice(&(s.min(65535) as u16).to_be_bytes());
    }
    out
}

/// Parses a report payload into (probe id, nonce, fragment sizes).
pub fn parse_report(data: &[u8]) -> Option<(u32, u64, Vec<usize>)> {
    if data.len() < REPORT_HEADER || data[0..4] != REPORT_MAGIC {
        return None;
    }
    let id = crate::bytes::be32(data, 4);
    let nonce = u64::from_be_bytes(data[8..16].try_into().ok()?);
    let n = usize::from(crate::bytes::be16(data, 16));
    if data.len() < REPORT_HEADER + 2 * n {
        return None;
    }
    let sizes = (0..n)
        .map(|i| usize::from(crate::bytes::be16(data, REPORT_HEADER + 2 * i)))
        .collect();
    Some((id, nonce, sizes))
}

/// The daemon rule: the report answering `probe` (a probe's UDP
/// payload), which arrived as fragments of `fragment_sizes` bytes (one
/// size when it arrived whole). It echoes the probe's id and nonce.
/// `None` when `probe` is not a probe.
pub fn answer_probe(probe: &[u8], fragment_sizes: &[usize]) -> Option<Vec<u8>> {
    let (id, nonce) = parse_probe(probe)?;
    Some(report_payload(id, nonce, fragment_sizes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_roundtrip_and_size() {
        let p = probe_payload(77, 0xDEAD_BEEF_CAFE_F00D, 1500);
        assert_eq!(p.len(), 1500 - 28);
        assert_eq!(parse_probe(&p), Some((77, 0xDEAD_BEEF_CAFE_F00D)));
        assert_eq!(parse_probe(&p[..15]), None);
        let mut bad = p.clone();
        bad[0] = b'X';
        assert_eq!(parse_probe(&bad), None);
    }

    #[test]
    fn report_roundtrip() {
        let sizes = vec![996, 996, 532];
        let r = report_payload(9, 0x1234_5678_9ABC_DEF0, &sizes);
        assert_eq!(parse_report(&r), Some((9, 0x1234_5678_9ABC_DEF0, sizes)));
        assert_eq!(parse_report(&r[..REPORT_HEADER - 1]), None);
        // A count that claims more sizes than the payload holds.
        assert_eq!(parse_report(&r[..r.len() - 1]), None);
        let mut bad = r.clone();
        bad[0] = b'X';
        assert_eq!(parse_report(&bad), None);
    }

    #[test]
    fn tiny_probe_still_carries_id_and_nonce() {
        let p = probe_payload(1, 7, 10); // below headers: floor at 16 bytes
        assert_eq!(p.len(), 16);
        assert_eq!(parse_probe(&p), Some((1, 7)));
    }

    #[test]
    fn daemon_rule_echoes_id_and_nonce() {
        let p = probe_payload(42, 0xFEED, 9000);
        let r = answer_probe(&p, &[1500, 1500, 996]).expect("a probe");
        assert_eq!(parse_report(&r), Some((42, 0xFEED, vec![1500, 1500, 996])));
        assert_eq!(answer_probe(&r, &[1500]), None, "a report is no probe");
    }
}
