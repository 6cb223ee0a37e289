//! Bit-plane packing for 64-lane bit-sliced simulation.
//!
//! Bit-sliced (pattern-parallel) evaluation packs **64 independent input
//! vectors** into one `u64` word per circuit net: bit `j` of the word is
//! the value of that net in lane `j`. A bitwise `AND` on lane words then
//! evaluates 64 AND gates at once, which is how `xlac-sim` reaches its
//! throughput.
//!
//! A multi-bit operand batch is a *bit-plane* vector: `planes[i]` holds
//! bit `i` of all 64 lane values. These helpers transpose between the
//! value-per-lane and plane-per-bit representations; the layout invariant
//! used across the workspace is
//!
//! ```text
//! planes[i] >> j & 1  ==  values[j] >> i & 1
//! ```
//!
//! # Example
//!
//! ```
//! use xlac_core::lanes::{from_planes, to_planes, LANES};
//!
//! let mut values = [0u64; LANES];
//! for (j, v) in values.iter_mut().enumerate() {
//!     *v = (j as u64).wrapping_mul(0x9E37) & 0xFF;
//! }
//! let planes = to_planes(&values, 8);
//! assert_eq!(planes.len(), 8);
//! assert_eq!(from_planes(&planes), values);
//! ```

/// Number of parallel lanes in one bit-sliced word (`u64::BITS`).
pub const LANES: usize = 64;

/// Transposes an 8×8 bit matrix stored one row per byte: bit `8r + c`
/// moves to bit `8c + r`. Three delta swaps exchange the off-diagonal
/// 1×1, then 2×2, then 4×4 sub-blocks (Hacker's Delight §7-3).
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Transposes 64 lane values into `width` bit-planes.
///
/// Bits of `values[j]` at positions `>= width` are ignored (the planes
/// represent a `width`-bit operand batch, matching the hardware's
/// truncate-on-input semantics).
///
/// # Panics
///
/// Panics when `width > 64` (a `u64` lane value has no such bits).
#[inline]
#[must_use]
pub fn to_planes(values: &[u64; LANES], width: usize) -> Vec<u64> {
    assert!(width <= 64, "width {width} exceeds a u64 lane value");
    let mut planes = vec![0u64; width];
    // One 8×8 block per (plane byte `h`, lane byte `g`): byte `r` of the
    // block is bits `8h .. 8h + 8` of lane `8g + r`; transposed, byte `c`
    // holds bit `8h + c` of those eight lanes, i.e. byte `g` of plane
    // `8h + c`. Planes past `width` are never written.
    for (h, dst) in planes.chunks_mut(8).enumerate() {
        for (g, group) in values.chunks_exact(8).enumerate() {
            let block = group
                .iter()
                .enumerate()
                .fold(0u64, |x, (r, &v)| x | ((v >> (8 * h)) & 0xFF) << (8 * r));
            let t = transpose8(block);
            for (c, plane) in dst.iter_mut().enumerate() {
                *plane |= ((t >> (8 * c)) & 0xFF) << (8 * g);
            }
        }
    }
    planes
}

/// Transposes bit-planes back into 64 lane values.
///
/// Inverse of [`to_planes`] for any plane count `<= 64`.
///
/// # Panics
///
/// Panics when more than 64 planes are supplied (the lane values would
/// not fit a `u64`).
#[inline]
#[must_use]
pub fn from_planes(planes: &[u64]) -> [u64; LANES] {
    assert!(planes.len() <= 64, "{} planes exceed a u64 lane value", planes.len());
    let mut values = [0u64; LANES];
    // The mirror of `to_planes`: byte `c` of the block is byte `g` of
    // plane `8h + c` (missing planes read as zero); transposed, byte `r`
    // holds bits `8h .. 8h + 8` of lane `8g + r`.
    for (h, src) in planes.chunks(8).enumerate() {
        for (g, group) in values.chunks_exact_mut(8).enumerate() {
            let block = src
                .iter()
                .enumerate()
                .fold(0u64, |x, (c, &p)| x | ((p >> (8 * g)) & 0xFF) << (8 * c));
            let t = transpose8(block);
            for (r, v) in group.iter_mut().enumerate() {
                *v |= ((t >> (8 * r)) & 0xFF) << (8 * h);
            }
        }
    }
    values
}

/// Extracts the value of one lane from a plane vector.
///
/// # Panics
///
/// Panics when `lane >= 64` or more than 64 planes are supplied.
#[inline]
#[must_use]
pub fn lane(planes: &[u64], lane: usize) -> u64 {
    assert!(lane < LANES, "lane {lane} out of range");
    assert!(planes.len() <= 64, "{} planes exceed a u64 lane value", planes.len());
    let mut value = 0u64;
    for (i, plane) in planes.iter().enumerate() {
        value |= ((plane >> lane) & 1) << i;
    }
    value
}

/// Broadcasts one constant to all 64 lanes as a `width`-plane vector:
/// plane `i` is all-ones when bit `i` of `value` is set, zero otherwise.
#[inline]
#[must_use]
pub fn const_planes(value: u64, width: usize) -> Vec<u64> {
    (0..width).map(|i| if (value >> i) & 1 == 1 { u64::MAX } else { 0 }).collect()
}

/// A fixed-width block of bit-plane words — the value type one compiled
/// bit-plane program operates on.
///
/// A `u64` plane carries 64 lanes; wider blocks carry `64 × WORDS` lanes
/// and are plain word arrays, so the bitwise ops below compile to
/// straight-line vector code (256-bit for `[u64; 4]`, 512-bit for
/// `[u64; 8]` on targets with the matching SIMD width — rustc
/// autovectorizes the fixed-length array loops).
///
/// Word `k` of a block holds lanes `64k .. 64k + 64` in the standard
/// plane layout (`planes[i] >> j & 1 == values[j] >> i & 1` within each
/// word), so a wide block is just `WORDS` consecutive 64-lane batches.
pub trait PlaneBlock: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Number of 64-lane `u64` words per block.
    const WORDS: usize;

    /// The all-zero block (every lane 0).
    fn zeros() -> Self;
    /// The all-ones block (every lane 1).
    fn ones() -> Self;
    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, other: Self) -> Self;
    /// Lane-wise NOT.
    fn not(self) -> Self;
    /// The `i`-th 64-lane word of the block.
    ///
    /// # Panics
    ///
    /// Panics when `i >= Self::WORDS`.
    fn word(self, i: usize) -> u64;
    /// Overwrites the `i`-th 64-lane word of the block.
    ///
    /// # Panics
    ///
    /// Panics when `i >= Self::WORDS`.
    fn set_word(&mut self, i: usize, word: u64);
}

impl PlaneBlock for u64 {
    const WORDS: usize = 1;

    #[inline(always)]
    fn zeros() -> Self {
        0
    }
    #[inline(always)]
    fn ones() -> Self {
        u64::MAX
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline(always)]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline(always)]
    fn not(self) -> Self {
        !self
    }
    #[inline(always)]
    fn word(self, i: usize) -> u64 {
        assert_eq!(i, 0, "u64 plane has a single word");
        self
    }
    #[inline(always)]
    fn set_word(&mut self, i: usize, word: u64) {
        assert_eq!(i, 0, "u64 plane has a single word");
        *self = word;
    }
}

macro_rules! impl_plane_block_array {
    ($n:literal) => {
        impl PlaneBlock for [u64; $n] {
            const WORDS: usize = $n;

            #[inline(always)]
            fn zeros() -> Self {
                [0; $n]
            }
            #[inline(always)]
            fn ones() -> Self {
                [u64::MAX; $n]
            }
            #[inline(always)]
            fn and(self, other: Self) -> Self {
                std::array::from_fn(|k| self[k] & other[k])
            }
            #[inline(always)]
            fn or(self, other: Self) -> Self {
                std::array::from_fn(|k| self[k] | other[k])
            }
            #[inline(always)]
            fn xor(self, other: Self) -> Self {
                std::array::from_fn(|k| self[k] ^ other[k])
            }
            #[inline(always)]
            fn not(self) -> Self {
                std::array::from_fn(|k| !self[k])
            }
            #[inline(always)]
            fn word(self, i: usize) -> u64 {
                self[i]
            }
            #[inline(always)]
            fn set_word(&mut self, i: usize, word: u64) {
                self[i] = word;
            }
        }
    };
}

impl_plane_block_array!(4);
impl_plane_block_array!(8);

/// Applies a lane permutation: returns planes where lane `j` holds the
/// value that `perm[j]` held in the input.
///
/// Used by the lane-independence property tests: a bit-sliced evaluator
/// must commute with any lane permutation, because lanes never interact.
///
/// # Panics
///
/// Panics when `perm` is not a permutation of `0..64`.
#[must_use]
pub fn permute_lanes(planes: &[u64], perm: &[usize; LANES]) -> Vec<u64> {
    let mut seen = [false; LANES];
    for &p in perm {
        assert!(p < LANES && !seen[p], "perm is not a permutation of 0..64");
        seen[p] = true;
    }
    planes
        .iter()
        .map(|plane| {
            let mut word = 0u64;
            for (j, &src) in perm.iter().enumerate() {
                word |= ((plane >> src) & 1) << j;
            }
            word
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{DefaultRng, Rng};

    #[test]
    fn roundtrip_is_identity() {
        let mut rng = DefaultRng::seed_from_u64(7);
        for width in [1usize, 4, 8, 16, 23, 64] {
            let mut values = [0u64; LANES];
            rng.fill_u64(&mut values);
            let masked = values.map(|v| if width == 64 { v } else { v & ((1 << width) - 1) });
            let planes = to_planes(&masked, width);
            assert_eq!(from_planes(&planes), masked, "width {width}");
            for (j, &m) in masked.iter().enumerate() {
                assert_eq!(lane(&planes, j), m, "width {width} lane {j}");
            }
        }
    }

    #[test]
    fn transposes_match_the_layout_invariant_bit_by_bit() {
        // A round trip cannot catch an error that is its own inverse, so
        // each direction is checked against the invariant directly, at
        // every width and plane count, on unmasked random values.
        let mut rng = DefaultRng::seed_from_u64(0x7A5E);
        for width in 0..=64usize {
            for _ in 0..8 {
                let mut values = [0u64; LANES];
                rng.fill_u64(&mut values);
                let planes = to_planes(&values, width);
                assert_eq!(planes.len(), width);
                for (i, plane) in planes.iter().enumerate() {
                    for (j, v) in values.iter().enumerate() {
                        assert_eq!(plane >> j & 1, v >> i & 1, "to_planes w={width} i={i} j={j}");
                    }
                }

                let mut planes = vec![0u64; width];
                rng.fill_u64(&mut planes);
                let values = from_planes(&planes);
                for (j, v) in values.iter().enumerate() {
                    if width < 64 {
                        assert_eq!(v >> width, 0, "from_planes n={width}: bits past the planes");
                    }
                    for (i, plane) in planes.iter().enumerate() {
                        assert_eq!(plane >> j & 1, v >> i & 1, "from_planes n={width} i={i} j={j}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds a u64 lane value")]
    fn to_planes_rejects_widths_past_64() {
        let _ = to_planes(&[u64::MAX; LANES], 65);
    }

    #[test]
    fn to_planes_truncates_wide_values() {
        let mut values = [0u64; LANES];
        values[3] = 0x1F5;
        let planes = to_planes(&values, 8);
        assert_eq!(lane(&planes, 3), 0xF5);
    }

    #[test]
    fn const_planes_broadcasts() {
        let planes = const_planes(0b1010_0110, 8);
        let values = from_planes(&planes);
        assert!(values.iter().all(|&v| v == 0b1010_0110));
    }

    #[test]
    fn permute_lanes_permutes_values() {
        let mut rng = DefaultRng::seed_from_u64(11);
        let mut values = [0u64; LANES];
        rng.fill_u64(&mut values);
        let planes = to_planes(&values, 64);

        let mut perm: [usize; LANES] = std::array::from_fn(|i| i);
        rng.shuffle(&mut perm);
        let permuted = permute_lanes(&planes, &perm);
        let got = from_planes(&permuted);
        for j in 0..LANES {
            assert_eq!(got[j], values[perm[j]]);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_lanes_rejects_duplicates() {
        let perm = [0usize; LANES];
        let _ = permute_lanes(&[0u64; 4], &perm);
    }

    fn check_block_ops<B: PlaneBlock>(rng: &mut DefaultRng) {
        let mut a = B::zeros();
        let mut b = B::zeros();
        for k in 0..B::WORDS {
            a.set_word(k, rng.next_u64());
            b.set_word(k, rng.next_u64());
        }
        for k in 0..B::WORDS {
            let (aw, bw) = (a.word(k), b.word(k));
            assert_eq!(a.and(b).word(k), aw & bw);
            assert_eq!(a.or(b).word(k), aw | bw);
            assert_eq!(a.xor(b).word(k), aw ^ bw);
            assert_eq!(a.not().word(k), !aw);
            assert_eq!(B::zeros().word(k), 0);
            assert_eq!(B::ones().word(k), u64::MAX);
        }
    }

    #[test]
    fn plane_blocks_are_word_wise_bitops() {
        let mut rng = DefaultRng::seed_from_u64(0xB10C);
        assert_eq!(<u64 as PlaneBlock>::WORDS, 1);
        assert_eq!(<[u64; 4] as PlaneBlock>::WORDS, 4);
        assert_eq!(<[u64; 8] as PlaneBlock>::WORDS, 8);
        check_block_ops::<u64>(&mut rng);
        check_block_ops::<[u64; 4]>(&mut rng);
        check_block_ops::<[u64; 8]>(&mut rng);
    }

    #[test]
    fn set_word_roundtrips() {
        let mut block = <[u64; 4] as PlaneBlock>::zeros();
        block.set_word(2, 0xDEAD_BEEF);
        assert_eq!(block.word(2), 0xDEAD_BEEF);
        assert_eq!(block.word(0), 0);
        let mut scalar = 0u64;
        PlaneBlock::set_word(&mut scalar, 0, 7);
        assert_eq!(PlaneBlock::word(scalar, 0), 7);
    }

    #[test]
    #[should_panic(expected = "single word")]
    fn scalar_block_rejects_word_index_1() {
        let _ = PlaneBlock::word(0u64, 1);
    }
}
