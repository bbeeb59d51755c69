//! Internet checksum (RFC 1071) helpers, including the incremental update
//! rule from RFC 1624 that PXGW uses when it rewrites single header fields
//! (e.g. the MSS option or an IP ID) without re-summing the whole packet.
//!
//! # Kernels
//!
//! [`ones_complement_sum`] has one fast path per platform, chosen from
//! what the CPU reports: the AVX2 kernel where
//! `is_x86_feature_detected!("avx2")` holds (std caches the probe), the
//! portable `u64` wide path everywhere else. There is no override —
//! every kernel is held bit-for-bit equal to
//! [`ones_complement_sum_scalar`], the trivially auditable RFC 1071
//! oracle, by exhaustive property tests over every length 0..=9216 and
//! alignment offset 0..=63, which address each kernel directly through
//! [`ones_complement_sum_with`].
//!
//! The AVX2 kernel sums 16-bit words in *little-endian* lane order and
//! byte-swaps the folded result: RFC 1071 §2(B) ("byte order
//! independence") makes the two conventions equal, and native-order
//! lanes keep the vector inner loop free of shuffles.

use std::net::Ipv4Addr;

/// One `ones_complement_sum` implementation. All kernels return
/// bit-identical results; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// 16 bits per iteration — the RFC 1071 oracle.
    Scalar,
    /// 8 bytes per iteration in a `u64` with end-around carry — the fast
    /// path off x86_64 and on x86_64 CPUs without AVX2.
    U64,
    /// 32 bytes per iteration in AVX2 registers.
    Avx2,
}

impl Kernel {
    /// Every kernel, for the property tests.
    pub const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::U64, Kernel::Avx2];

    /// Stable lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::U64 => "u64",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// Computes the one's-complement sum of `data` folded to 16 bits, without
/// the final negation. Odd trailing bytes are padded with zero per RFC 1071.
///
/// Runs the AVX2 kernel where the CPU has it and the `u64` kernel
/// otherwise (see module docs); [`ones_complement_sum_scalar`] is the
/// proven 16-bit-at-a-time implementation kept as the property-test
/// oracle (all kernels agree bit-for-bit, including the 0x0000/0xFFFF
/// representative: every kernel returns 0 only for all-zero input).
#[allow(unsafe_code)]
pub fn ones_complement_sum(data: &[u8]) -> u16 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 target-feature precondition was just checked.
        let wide = unsafe { simd::sum16_le_avx2(data) };
        let body = data.len() & !31;
        return finish_le(wide, crate::bytes::range_from(data, body));
    }
    ones_complement_sum_u64(data)
}

/// [`ones_complement_sum`] through an explicitly chosen kernel, so the
/// property tests can hold each one to the oracle. On a CPU without
/// AVX2, [`Kernel::Avx2`] runs the `u64` kernel, as the dispatcher does.
pub fn ones_complement_sum_with(kernel: Kernel, data: &[u8]) -> u16 {
    match kernel {
        Kernel::Scalar => ones_complement_sum_scalar(data),
        Kernel::U64 => ones_complement_sum_u64(data),
        Kernel::Avx2 => ones_complement_sum(data),
    }
}

/// The portable wide path: accumulates eight bytes per iteration into a
/// `u64` with end-around carry, then folds 64→32→16 (RFC 1071 §2(C)
/// licenses summing at any word width).
pub fn ones_complement_sum_u64(data: &[u8]) -> u16 {
    let mut wide: u64 = 0;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        let (s, carry) = wide.overflowing_add(w);
        wide = s + u64::from(carry);
    }
    // Fold the 64-bit one's-complement accumulator down to 16 bits…
    let mut sum = (wide >> 32) + (wide & 0xFFFF_FFFF);
    sum = (sum >> 16) + (sum & 0xFFFF);
    let mut sum = fold(sum as u32);
    // …then absorb the ≤7 trailing bytes at 16-bit granularity. They sit
    // at an even offset (8·k), so no byte-swap correction is needed.
    let rest = chunks.remainder();
    let mut tail = rest.chunks_exact(2);
    let mut tail_sum: u32 = u32::from(sum);
    for c in &mut tail {
        tail_sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = tail.remainder() {
        tail_sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum = fold(tail_sum);
    sum
}

/// Folds a little-endian-convention wide sum plus the trailing bytes
/// (`rest` starts at an even offset, so its words stay on the even word
/// grid) into the big-endian RFC 1071 result. Per §2(B), summing the
/// byte-swapped words and swapping the folded result equals the
/// byte-order-faithful sum; an odd final byte is the low half of its
/// little-endian word, so it contributes its plain value here and the
/// closing swap restores the oracle's `b << 8`.
#[cfg(target_arch = "x86_64")]
fn finish_le(mut wide: u64, rest: &[u8]) -> u16 {
    let mut tail = rest.chunks_exact(2);
    for c in &mut tail {
        wide += u64::from(u16::from_le_bytes([c[0], c[1]]));
    }
    if let [last] = tail.remainder() {
        wide += u64::from(*last);
    }
    let mut sum = (wide >> 32) + (wide & 0xFFFF_FFFF);
    sum = (sum >> 16) + (sum & 0xFFFF);
    fold(sum as u32).swap_bytes()
}

/// The raw vector inner loop. Lanes hold little-endian 16-bit words
/// widened to u32; [`finish_le`] converts the drained total back to the
/// RFC's byte order. The crate denies `unsafe_code` globally — this
/// module is the scoped exception, and every unsafe operation is spelled
/// out individually (`unsafe_op_in_unsafe_fn` is denied).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[deny(unsafe_op_in_unsafe_fn)]
mod simd {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_setzero_si256, _mm256_storeu_si256,
        _mm256_unpackhi_epi16, _mm256_unpacklo_epi16,
    };

    /// Vector iterations per u32-lane drain. Each iteration adds one
    /// 16-bit word into every u32 lane of each accumulator, so a block
    /// grows a lane by at most 16384 · 0xFFFF < 2³⁰ — far from wrapping.
    const BLOCK_ITERS: usize = 16_384;

    /// Sums the longest 32-byte-multiple prefix of `data` as
    /// little-endian 16-bit words into a `u64`. Each 16-bit lane is
    /// widened to u32 by interleaving with zero, then added; the
    /// in-lane unpack order of `_mm256_unpacklo/hi_epi16` scrambles word
    /// positions across lanes, which is irrelevant — every lane is
    /// summed into one scalar total.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available (runtime-detected).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum16_le_avx2(data: &[u8]) -> u64 {
        // Register-only intrinsics are safe inside a matching
        // #[target_feature] fn; only the pointer loads/stores stay unsafe.
        let zero = _mm256_setzero_si256();
        let mut acc_lo = zero;
        let mut acc_hi = zero;
        let mut total = 0u64;
        let mut iters = 0usize;
        for c in data.chunks_exact(32) {
            // SAFETY: `c` is exactly 32 readable bytes; `loadu` carries
            // no alignment requirement.
            let v = unsafe { _mm256_loadu_si256(c.as_ptr().cast()) };
            acc_lo = _mm256_add_epi32(acc_lo, _mm256_unpacklo_epi16(v, zero));
            acc_hi = _mm256_add_epi32(acc_hi, _mm256_unpackhi_epi16(v, zero));
            iters += 1;
            if iters == BLOCK_ITERS {
                // SAFETY: AVX2 precondition inherited from this fn.
                total += unsafe { drain_avx2(acc_lo) + drain_avx2(acc_hi) };
                acc_lo = zero;
                acc_hi = zero;
                iters = 0;
            }
        }
        // SAFETY: AVX2 precondition inherited from this fn.
        total + unsafe { drain_avx2(acc_lo) + drain_avx2(acc_hi) }
    }

    /// Sums a vector's eight u32 lanes.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    unsafe fn drain_avx2(v: __m256i) -> u64 {
        let mut out = [0u32; 8];
        // SAFETY: `out` is 32 writable bytes; `storeu` is unaligned-safe.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
        out.iter().map(|&x| u64::from(x)).sum()
    }
}

/// The original 16-bits-per-iteration one's-complement sum. Slower but
/// trivially auditable against RFC 1071; retained as the oracle the
/// property tests compare every other kernel against.
pub fn ones_complement_sum_scalar(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    fold(sum)
}

fn fold(mut sum: u32) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// Computes the Internet checksum of `data` (the negated folded sum).
pub fn checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data)
}

/// Combines partial one's-complement sums, as if their source buffers had
/// been concatenated (both parts must be even-length, which holds for all
/// uses in this crate: headers and pseudo-headers are even).
pub fn combine(a: u16, b: u16) -> u16 {
    fold(u32::from(a) + u32::from(b))
}

/// Combines partial sums when the second buffer was appended at an
/// arbitrary byte offset: if `b`'s data starts at an odd offset in the
/// concatenation, its 16-bit words straddle the even word grid and its
/// standalone sum must be byte-swapped before adding (RFC 1071 §2(B),
/// "byte order independence"). With an even offset this is exactly
/// [`combine`].
pub fn combine_at_offset(a: u16, b: u16, b_starts_odd: bool) -> u16 {
    let b = if b_starts_odd { b.swap_bytes() } else { b };
    fold(u32::from(a) + u32::from(b))
}

/// The TCP/UDP pseudo-header sum for IPv4 (RFC 793 §3.1, RFC 768).
pub fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, length: u16) -> u16 {
    let s = src.octets();
    let d = dst.octets();
    let mut sum: u32 = 0;
    sum += u32::from(u16::from_be_bytes([s[0], s[1]]));
    sum += u32::from(u16::from_be_bytes([s[2], s[3]]));
    sum += u32::from(u16::from_be_bytes([d[0], d[1]]));
    sum += u32::from(u16::from_be_bytes([d[2], d[3]]));
    sum += u32::from(protocol);
    sum += u32::from(length);
    fold(sum)
}

/// Computes a transport-layer checksum over pseudo-header + segment bytes.
pub fn transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8]) -> u16 {
    let pseudo = pseudo_header_sum(src, dst, protocol, segment.len() as u16);
    !combine(pseudo, ones_complement_sum(segment))
}

/// RFC 1624 incremental checksum update: returns the new checksum after a
/// 16-bit word at some position changed from `old_word` to `new_word`.
///
/// Uses the corrected equation `HC' = ~(~HC + ~m + m')` (eqn. 3), which is
/// safe for all corner cases including results of 0xFFFF.
pub fn incremental_update(old_checksum: u16, old_word: u16, new_word: u16) -> u16 {
    let sum = u32::from(!old_checksum) + u32::from(!old_word) + u32::from(new_word);
    !fold(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Example from RFC 1071 §3: words 0x0001 0xf203 0xf4f5 0xf6f7
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&data), 0xddf2);
        assert_eq!(ones_complement_sum_scalar(&data), 0xddf2);
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn wide_matches_scalar_on_edge_lengths() {
        // Deterministic xorshift bytes at every length spanning the 8-byte
        // chunk boundary and both parities; the proptest in the workspace
        // root covers random content up to 9216 bytes.
        let mut state = 0x9E37_79B9u32;
        let mut data = Vec::new();
        for len in 0..=64 {
            data.truncate(0);
            for _ in 0..len {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                data.push(state as u8);
            }
            assert_eq!(
                ones_complement_sum(&data),
                ones_complement_sum_scalar(&data),
                "len {len}"
            );
        }
        // All-ones input exercises the end-around carry chain.
        assert_eq!(
            ones_complement_sum(&[0xFF; 40]),
            ones_complement_sum_scalar(&[0xFF; 40])
        );
    }

    #[test]
    fn every_kernel_matches_the_scalar_oracle() {
        // Deterministic xorshift bytes; lengths crossing both vector
        // widths and the drain boundary. The workspace proptests sweep
        // every length 0..=9216 at every alignment offset 0..=63.
        let mut state = 0x1234_5678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        for kernel in Kernel::ALL {
            for len in (0..=96).chain([127, 128, 129, 1460, 4095, 4096]) {
                for off in [0usize, 1, 7, 33] {
                    let slice = &data[off..off + len.min(data.len() - off)];
                    assert_eq!(
                        ones_complement_sum_with(kernel, slice),
                        ones_complement_sum_scalar(slice),
                        "kernel {} len {len} off {off}",
                        kernel.name()
                    );
                }
            }
            assert_eq!(
                ones_complement_sum_with(kernel, &[0xFF; 40]),
                ones_complement_sum_scalar(&[0xFF; 40]),
                "kernel {} all-ones carry chain",
                kernel.name()
            );
        }
    }

    #[test]
    fn combine_at_offset_matches_concatenation() {
        let a = [0x12u8, 0x34, 0x56]; // odd length: b lands on an odd offset
        let b = [0x78u8, 0x9A, 0xBC, 0xDE];
        let whole: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(
            combine_at_offset(
                ones_complement_sum(&a),
                ones_complement_sum(&b),
                a.len() % 2 == 1
            ),
            ones_complement_sum(&whole)
        );
        // Even split degenerates to plain `combine`.
        let whole2: Vec<u8> = b.iter().chain(b.iter()).copied().collect();
        assert_eq!(
            combine_at_offset(ones_complement_sum(&b), ones_complement_sum(&b), false),
            ones_complement_sum(&whole2)
        );
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(ones_complement_sum(&[0xAB]), 0xAB00);
    }

    #[test]
    fn verify_is_zero_sum() {
        // A buffer containing its own correct checksum sums to 0xFFFF.
        let mut data = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let ck = checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(ones_complement_sum(&data), 0xFFFF);
    }

    #[test]
    fn combine_matches_concatenation() {
        let a = [1u8, 2, 3, 4, 5, 6];
        let b = [7u8, 8, 9, 10];
        let whole: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(
            combine(ones_complement_sum(&a), ones_complement_sum(&b)),
            ones_complement_sum(&whole)
        );
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mut data = vec![
            0x45, 0x00, 0x00, 0x54, 0xbe, 0xef, 0x40, 0x00, 0x40, 0x06, 0, 0,
        ];
        let ck = checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());

        // Change the ID word 0xbeef -> 0x1234 and update incrementally.
        let updated = incremental_update(ck, 0xbeef, 0x1234);
        data[4..6].copy_from_slice(&0x1234u16.to_be_bytes());
        data[10..12].copy_from_slice(&[0, 0]);
        assert_eq!(updated, checksum(&data));
    }

    #[test]
    fn pseudo_header_known_vector() {
        // Hand-computed: 10.0.0.1 -> 10.0.0.2, UDP(17), length 8.
        let sum = pseudo_header_sum(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            17,
            8,
        );
        // 0x0a00 + 0x0001 + 0x0a00 + 0x0002 + 0x0011 + 0x0008 = 0x141c
        assert_eq!(sum, 0x141c);
    }
}
