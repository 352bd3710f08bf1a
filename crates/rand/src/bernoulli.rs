//! Exact Bernoulli sampling via 64-bit integer thresholds.
//!
//! Every perturbation step in every LDP protocol reduces to Bernoulli draws,
//! so this is the hottest primitive in the workspace: one `u64` from the
//! generator and one comparison, with the probability pre-scaled to a 64-bit
//! fixed-point threshold at construction time.
//!
//! [`randomize_bits`] applies a keep/noise pair of these draws to a whole
//! range of a bit vector's blocks, one output word at a time.

use rand::RngCore;
use std::ops::Range;

/// A Bernoulli distribution with success probability `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bernoulli {
    /// `p` scaled to [0, 2^64]; `u64::MAX` is reserved, `ALWAYS` marks p = 1.
    threshold: u64,
    always: bool,
}

impl Bernoulli {
    /// Creates a Bernoulli sampler.
    ///
    /// # Errors
    /// Returns `None` if `p` is not in `[0, 1]` (including NaN).
    pub fn new(p: f64) -> Option<Self> {
        if !(0.0..=1.0).contains(&p) {
            return None;
        }
        if p >= 1.0 {
            return Some(Self {
                threshold: u64::MAX,
                always: true,
            });
        }
        // p * 2^64, computed in extended precision. p < 1 here so the product
        // fits; rounding error is at most one part in 2^53 of p.
        let threshold = (p * (u64::MAX as f64 + 1.0)) as u64;
        Some(Self {
            threshold,
            always: false,
        })
    }

    /// The success probability this sampler was built with (up to the 64-bit
    /// fixed-point quantization).
    pub fn p(&self) -> f64 {
        if self.always {
            1.0
        } else {
            self.threshold as f64 / (u64::MAX as f64 + 1.0)
        }
    }

    /// Draws one sample.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        self.always || rng.next_u64() < self.threshold
    }
}

/// Re-randomizes bit positions `range` of the little-endian `blocks` in
/// place: a set bit becomes a `keep` draw, a clear bit a `noise` draw,
/// in increasing position order. Bits outside `range` are untouched.
///
/// The draws are exactly those of the per-bit loop
/// `for i in range { bit[i] = if bit[i] { keep } else { noise }.sample(rng) }`
/// — the same `next_u64` values consumed in the same order, none for a
/// `p = 1` sampler — so output and generator position are bit-identical
/// to it. Each output word is built as
/// `acc |= ((rng.next_u64() < t) as u64) << j` with the threshold `t`
/// selected arithmetically from the input bit: no data-dependent branch
/// per bit, which is what makes the dense unary-encoding path fast.
///
/// # Panics
/// Panics if `range` reaches past `blocks.len() * 64` or is reversed.
#[inline]
pub fn randomize_bits<R: RngCore + ?Sized>(
    blocks: &mut [u64],
    range: Range<usize>,
    keep: &Bernoulli,
    noise: &Bernoulli,
    rng: &mut R,
) {
    assert!(
        range.start <= range.end && range.end <= blocks.len() * 64,
        "bit range {range:?} outside {} blocks",
        blocks.len()
    );
    if range.is_empty() {
        return;
    }
    // Positions whose sampler is p = 1 are set without consuming a draw.
    let keep_forced = if keep.always { u64::MAX } else { 0 };
    let noise_forced = if noise.always { u64::MAX } else { 0 };
    let (t_one, t_zero) = (keep.threshold, noise.threshold);
    let first = range.start / 64;
    let last = (range.end - 1) / 64;
    for (b, word) in blocks.iter_mut().enumerate().take(last + 1).skip(first) {
        let lo = if b == first { range.start % 64 } else { 0 };
        let hi = if b == last {
            (range.end - 1) % 64 + 1
        } else {
            64
        };
        let span = (u64::MAX >> (64 - (hi - lo))) << lo;
        let input = *word;
        let forced = span & ((input & keep_forced) | (!input & noise_forced));
        let mut acc = forced;
        // Walk the positions that take a draw, lowest first.
        let mut pending = span & !forced;
        while pending != 0 {
            let j = pending.trailing_zeros();
            let one = (input >> j) & 1;
            let t = t_zero ^ ((t_zero ^ t_one) & one.wrapping_neg());
            acc |= u64::from(rng.next_u64() < t) << j;
            pending &= pending - 1;
        }
        *word = (input & !span) | acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive_rng;
    use proptest::prelude::*;

    #[test]
    fn rejects_invalid_probabilities() {
        assert!(Bernoulli::new(-0.1).is_none());
        assert!(Bernoulli::new(1.1).is_none());
        assert!(Bernoulli::new(f64::NAN).is_none());
    }

    #[test]
    fn degenerate_endpoints() {
        let mut rng = derive_rng(1, 1);
        let zero = Bernoulli::new(0.0).unwrap();
        let one = Bernoulli::new(1.0).unwrap();
        for _ in 0..1000 {
            assert!(!zero.sample(&mut rng));
            assert!(one.sample(&mut rng));
        }
    }

    #[test]
    fn empirical_rate_matches_p() {
        let mut rng = derive_rng(2, 2);
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            let d = Bernoulli::new(p).unwrap();
            let n = 200_000;
            let hits = (0..n).filter(|_| d.sample(&mut rng)).count();
            let rate = hits as f64 / n as f64;
            // 5-sigma tolerance for a binomial proportion.
            let tol = 5.0 * (p * (1.0 - p) / n as f64).sqrt();
            assert!((rate - p).abs() < tol.max(1e-4), "p={p} rate={rate}");
        }
    }

    /// The per-bit loop [`randomize_bits`] replaces, kept as its oracle.
    fn oracle<R: RngCore>(
        blocks: &mut [u64],
        range: Range<usize>,
        keep: &Bernoulli,
        noise: &Bernoulli,
        rng: &mut R,
    ) {
        for i in range {
            let mask = 1u64 << (i % 64);
            let bern = if blocks[i / 64] & mask != 0 {
                keep
            } else {
                noise
            };
            if bern.sample(rng) {
                blocks[i / 64] |= mask;
            } else {
                blocks[i / 64] &= !mask;
            }
        }
    }

    fn arb_p() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64]
    }

    proptest! {
        /// Same output blocks and same generator position as the per-bit
        /// loop, for any sub-range (word-aligned or not), any input bits
        /// and any pair of samplers, including the zero-draw p = 1 one.
        #[test]
        fn randomize_bits_matches_per_bit_oracle(
            words in proptest::collection::vec(any::<u64>(), 1..20),
            a in 0usize..1280,
            b in 0usize..1280,
            p in arb_p(),
            q in arb_p(),
            seed in any::<u64>(),
        ) {
            let bits = words.len() * 64;
            let (start, end) = (a.min(b) % (bits + 1), a.max(b) % (bits + 1));
            let range = start.min(end)..start.max(end);
            let (keep, noise) = (Bernoulli::new(p).unwrap(), Bernoulli::new(q).unwrap());
            let (mut fast, mut slow) = (words.clone(), words.clone());
            let (mut rng_fast, mut rng_slow) = (derive_rng(seed, 0), derive_rng(seed, 0));
            randomize_bits(&mut fast, range.clone(), &keep, &noise, &mut rng_fast);
            oracle(&mut slow, range, &keep, &noise, &mut rng_slow);
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(rng_fast.next_u64(), rng_slow.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "outside 1 blocks")]
    fn randomize_bits_rejects_range_past_blocks() {
        let keep = Bernoulli::new(0.5).unwrap();
        randomize_bits(&mut [0], 0..65, &keep, &keep, &mut derive_rng(4, 4));
    }

    #[test]
    fn p_roundtrips() {
        for &p in &[0.0, 0.125, 0.5, 0.875, 1.0] {
            let d = Bernoulli::new(p).unwrap();
            assert!((d.p() - p).abs() < 1e-12);
        }
    }
}
