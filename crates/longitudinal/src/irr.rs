//! The instantaneous randomization (IRR) step over bit vectors.
//!
//! Given a memoized PRR vector `x'`, each report re-randomizes every bit
//! independently: a 1 stays with probability `p2`, a 0 rises with
//! probability `q2`. This is the step that makes consecutive reports of the
//! same memoized state differ, hiding *when* the underlying value changed.
//!
//! The implementation mirrors `UeClient`: for sparse `q2` the rising zeros
//! are enumerated by geometric skipping and the (few) ones re-drawn
//! individually; for dense `q2` every bit takes one draw, written a whole
//! 64-bit word at a time by the branch-free [`ldp_rand::randomize_bits`]
//! kernel — the same draws, in the same order, as a per-bit loop.

use ldp_primitives::params::PerturbParams;
use ldp_primitives::BitVec;
use ldp_rand::{randomize_bits, Bernoulli, SparseHits};
use rand::RngCore;

/// Below this `q2` the sparse path is used.
const SPARSE_Q_THRESHOLD: f64 = 0.12;

/// A reusable IRR perturbation kernel for `bits`-bit vectors.
#[derive(Debug, Clone)]
pub struct IrrKernel {
    bits: usize,
    params: PerturbParams,
    keep: Bernoulli,
    noise: Bernoulli,
}

impl IrrKernel {
    /// Creates a kernel applying `(p2, q2)` to `bits`-bit vectors.
    pub fn new(bits: usize, params: PerturbParams) -> Self {
        let keep = Bernoulli::new(params.p).expect("validated p");
        let noise = Bernoulli::new(params.q).expect("validated q");
        Self {
            bits,
            params,
            keep,
            noise,
        }
    }

    /// The `(p2, q2)` pair.
    pub fn params(&self) -> PerturbParams {
        self.params
    }

    /// Applies the IRR to the memoized blocks `input` (little-endian bit
    /// order, exactly `ceil(bits/64)` blocks), writing into `out`.
    pub fn perturb_blocks_into<R: RngCore + ?Sized>(
        &self,
        input: &[u64],
        rng: &mut R,
        out: &mut BitVec,
    ) {
        assert_eq!(out.len(), self.bits, "output length mismatch");
        assert_eq!(input.len(), self.bits.div_ceil(64), "input block mismatch");
        let q = self.params.q;
        if q > 0.0 && q < SPARSE_Q_THRESHOLD {
            out.clear();
            // Rising zeros via skipping (hits on one-positions are
            // overwritten below, which preserves independence).
            for i in SparseHits::new(q, self.bits as u64, rng).expect("q in (0,1)") {
                out.set(i as usize, true);
            }
            for i in iter_ones(input, self.bits) {
                out.set(i, self.keep.sample(rng));
            }
        } else {
            out.copy_from_blocks(input);
            out.update_blocks(|blocks| {
                randomize_bits(blocks, 0..self.bits, &self.keep, &self.noise, rng)
            });
        }
    }

    /// Allocating convenience wrapper around
    /// [`IrrKernel::perturb_blocks_into`].
    pub fn perturb_blocks<R: RngCore + ?Sized>(&self, input: &[u64], rng: &mut R) -> BitVec {
        let mut out = BitVec::zeros(self.bits);
        self.perturb_blocks_into(input, rng, &mut out);
        out
    }
}

/// Iterates set-bit indices of raw blocks limited to `bits`.
fn iter_ones(blocks: &[u64], bits: usize) -> impl Iterator<Item = usize> + '_ {
    blocks.iter().enumerate().flat_map(move |(bi, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let tz = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(bi * 64 + tz)
        })
        .take_while(move |&i| i < bits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rand::derive_rng;
    use proptest::prelude::*;

    fn params(p: f64, q: f64) -> PerturbParams {
        PerturbParams::new(p, q).unwrap()
    }

    #[test]
    fn preserves_rates_dense_path() {
        let kernel = IrrKernel::new(100, params(0.8, 0.3));
        let mut rng = derive_rng(400, 0);
        let mut input = vec![0u64; 2];
        for i in 0..50 {
            input[i / 64] |= 1 << (i % 64); // bits 0..50 set
        }
        let n = 30_000;
        let mut kept = 0usize;
        let mut risen = 0usize;
        for _ in 0..n {
            let out = kernel.perturb_blocks(&input, &mut rng);
            if out.get(10) {
                kept += 1;
            }
            if out.get(90) {
                risen += 1;
            }
        }
        let p_hat = kept as f64 / n as f64;
        let q_hat = risen as f64 / n as f64;
        assert!((p_hat - 0.8).abs() < 0.02, "p {p_hat}");
        assert!((q_hat - 0.3).abs() < 0.02, "q {q_hat}");
    }

    #[test]
    fn preserves_rates_sparse_path() {
        let kernel = IrrKernel::new(200, params(0.9, 0.05));
        let mut rng = derive_rng(401, 0);
        let mut input = vec![0u64; 4];
        input[0] |= 1; // only bit 0 set
        let n = 40_000;
        let mut kept = 0usize;
        let mut risen = 0usize;
        for _ in 0..n {
            let out = kernel.perturb_blocks(&input, &mut rng);
            if out.get(0) {
                kept += 1;
            }
            if out.get(150) {
                risen += 1;
            }
        }
        let p_hat = kept as f64 / n as f64;
        let q_hat = risen as f64 / n as f64;
        assert!((p_hat - 0.9).abs() < 0.01, "p {p_hat}");
        assert!((q_hat - 0.05).abs() < 0.01, "q {q_hat}");
    }

    #[test]
    fn all_zero_input_rises_at_rate_q() {
        let kernel = IrrKernel::new(64, params(0.7, 0.25));
        let mut rng = derive_rng(402, 0);
        let input = [0u64];
        let n = 20_000;
        let mut total = 0usize;
        for _ in 0..n {
            total += kernel.perturb_blocks(&input, &mut rng).count_ones();
        }
        let rate = total as f64 / (n as f64 * 64.0);
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn deterministic_degenerate_channel() {
        // p = 1, q = tiny: ones always survive.
        let kernel = IrrKernel::new(70, params(1.0, 1e-9));
        let mut rng = derive_rng(403, 0);
        let mut input = vec![0u64; 2];
        input[1] |= 1 << 3; // bit 67
        for _ in 0..50 {
            let out = kernel.perturb_blocks(&input, &mut rng);
            assert!(out.get(67));
        }
    }

    /// The per-bit dense loop the word-at-a-time kernel replaced, kept as
    /// its oracle.
    fn dense_oracle<R: RngCore>(kernel: &IrrKernel, input: &[u64], rng: &mut R) -> BitVec {
        let mut out = BitVec::zeros(kernel.bits);
        for i in 0..kernel.bits {
            let is_one = (input[i / 64] >> (i % 64)) & 1 == 1;
            let bern = if is_one { &kernel.keep } else { &kernel.noise };
            if bern.sample(rng) {
                out.set(i, true);
            }
        }
        out
    }

    proptest! {
        /// The dense path is stream-preserving: identical blocks (nothing
        /// past `bits`, even from stray input tail bits) and an identical
        /// next draw, so the same draw count.
        #[test]
        fn dense_perturb_matches_per_bit_oracle(
            bits in 2usize..1100,
            words in proptest::collection::vec(any::<u64>(), 18),
            p in prop_oneof![Just(1.0), 0.0..1.0f64],
            q in prop_oneof![Just(0.0), 0.12..1.0f64],
            seed in any::<u64>(),
        ) {
            prop_assume!(p != q);
            let kernel = IrrKernel::new(bits, params(p, q));
            let input = &words[..bits.div_ceil(64)];
            let mut fast = BitVec::zeros(bits);
            fast.set(bits - 1, true); // stale bits must be overwritten
            let (mut rng_fast, mut rng_slow) = (derive_rng(seed, 2), derive_rng(seed, 2));
            kernel.perturb_blocks_into(input, &mut rng_fast, &mut fast);
            let slow = dense_oracle(&kernel, input, &mut rng_slow);
            prop_assert_eq!(fast.blocks(), slow.blocks());
            if bits % 64 != 0 {
                prop_assert_eq!(fast.blocks().last().unwrap() >> (bits % 64), 0);
            }
            prop_assert_eq!(rng_fast.next_u64(), rng_slow.next_u64());
        }
    }

    #[test]
    fn iter_ones_respects_bit_limit() {
        let blocks = [u64::MAX, u64::MAX];
        let ones: Vec<usize> = iter_ones(&blocks, 70).collect();
        assert_eq!(ones.len(), 70);
        assert_eq!(*ones.last().unwrap(), 69);
    }
}
