//! dBitFlipPM (§2.4.4; Ding, Kulkarni & Yekhanin, 2017).
//!
//! The domain `[k]` is generalized into `b` equal-width buckets; each user
//! fixes `d` sampled bucket positions forever and, for every *new* bucket
//! value, memoizes one SUE-style randomization of the `d` sampled bits
//! (`p = e^{ε∞/2}/(e^{ε∞/2}+1)`). There is **no second round**: repeats of
//! the same bucket resend the identical vector — which is exactly what the
//! change-detection attack of Table 2 exploits.
//!
//! The effective memoized input classes are `min(d + 1, b)`: one per sampled
//! bucket that the user's value can land on, plus a single shared "none of
//! my sampled buckets" class (all-zero signal). This is why the paper's
//! Table 1 reports a `min(d+1, b)·ε∞` longitudinal budget.

use crate::accountant::BudgetAccountant;
use ldp_hash::BucketMapper;
use ldp_primitives::error::ParamError;
use ldp_primitives::estimator::frequency_estimates;
use ldp_primitives::params::sue_params;
use ldp_primitives::BitVec;
use ldp_rand::{randomize_bits, sample_distinct, Bernoulli};
use rand::RngCore;

/// One dBitFlipPM report: the memoized bits for the user's `d` sampled
/// bucket positions (the positions themselves are registered once).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DBitReport {
    /// Bit `l` is the perturbed value for sampled bucket `j_l`.
    pub bits: BitVec,
}

/// A dBitFlipPM client.
#[derive(Debug, Clone)]
pub struct DBitFlipClient {
    mapper: BucketMapper,
    sampled: Vec<u32>,
    keep: Bernoulli,
    noise: Bernoulli,
    /// Memoized d-bit vectors, one per input class (see module docs).
    memo: Vec<Option<BitVec>>,
    accountant: BudgetAccountant,
}

impl DBitFlipClient {
    /// Creates a client over domain `[0, k)` with `b` buckets, `d` sampled
    /// bits and longitudinal budget `eps_inf`. The `d` bucket positions are
    /// drawn (without replacement) from `rng` and fixed for the client's
    /// lifetime.
    pub fn new<R: RngCore + ?Sized>(
        k: u64,
        b: u32,
        d: u32,
        eps_inf: f64,
        rng: &mut R,
    ) -> Result<Self, ParamError> {
        ldp_primitives::error::check_epsilon(eps_inf)?;
        if d == 0 || d > b || b as u64 > k {
            return Err(ParamError::InvalidBuckets { b, d, k });
        }
        let mapper = BucketMapper::new(k, b).ok_or(ParamError::InvalidBuckets { b, d, k })?;
        let sampled: Vec<u32> = sample_distinct(rng, b as u64, d as usize)
            .into_iter()
            .map(|j| j as u32)
            .collect();
        let (p, q) = sue_params(eps_inf);
        let classes = (d + 1).min(b);
        Ok(Self {
            mapper,
            sampled,
            keep: Bernoulli::new(p).expect("valid p"),
            noise: Bernoulli::new(q).expect("valid q"),
            memo: vec![None; d as usize + 1],
            accountant: BudgetAccountant::new(eps_inf, classes),
        })
    }

    /// The sampled bucket positions `j_1 < … < j_d` (registered with the
    /// server once, mirroring the protocol's setup message).
    pub fn sampled(&self) -> &[u32] {
        &self.sampled
    }

    /// The bucket a domain value falls into (ground truth for the
    /// change-detection analysis).
    pub fn bucket_of(&self, value: u64) -> u32 {
        self.mapper.bucket(value)
    }

    /// The memoization input class of a bucket: the index of the matching
    /// sampled position, or `d` for "not sampled".
    fn class_of(&self, bucket: u32) -> u32 {
        match self.sampled.binary_search(&bucket) {
            Ok(l) => l as u32,
            Err(_) => self.sampled.len() as u32,
        }
    }

    /// Produces this step's report.
    ///
    /// # Panics
    /// Panics if `value` is outside the domain.
    pub fn report<R: RngCore + ?Sized>(&mut self, value: u64, rng: &mut R) -> DBitReport {
        let mut bits = BitVec::zeros(self.sampled.len());
        self.report_into(value, rng, &mut bits);
        DBitReport { bits }
    }

    /// Like [`Self::report`] but writes the `d` report bits into a
    /// caller-provided buffer, avoiding the per-report allocation on the
    /// hot path. The RNG draw sequence is identical to [`Self::report`].
    ///
    /// # Panics
    /// Panics if `value` is outside the domain or `out.len() != d`.
    pub fn report_into<R: RngCore + ?Sized>(&mut self, value: u64, rng: &mut R, out: &mut BitVec) {
        let bucket = self.mapper.bucket(value);
        let class = self.class_of(bucket);
        // The "none sampled" class only exists when d < b.
        let account_class = class.min(self.accountant_classes() - 1);
        self.accountant.observe(account_class);
        if self.memo[class as usize].is_none() {
            // A `keep` draw at the sampled position matching the bucket
            // (none for the "not sampled" class `d`), `noise` elsewhere.
            let d = self.sampled.len();
            let mut bits = BitVec::zeros(d);
            if (class as usize) < d {
                bits.set(class as usize, true);
            }
            bits.update_blocks(|blocks| randomize_bits(blocks, 0..d, &self.keep, &self.noise, rng));
            self.memo[class as usize] = Some(bits);
        }
        out.copy_from(self.memo[class as usize].as_ref().expect("just inserted"));
    }

    fn accountant_classes(&self) -> u32 {
        (self.sampled.len() as u32 + 1).min(self.mapper.b())
    }

    /// The user's accumulated longitudinal privacy loss ε̌ (Eq. (8)).
    pub fn privacy_spent(&self) -> f64 {
        self.accountant.spent()
    }

    /// Number of distinct memoized input classes so far.
    pub fn distinct_classes(&self) -> u32 {
        self.accountant.classes_seen()
    }

    /// The number of sampled bits `d` (the report width).
    pub fn d(&self) -> usize {
        self.sampled.len()
    }

    /// The bucket count `b`.
    pub fn b(&self) -> u32 {
        self.mapper.b()
    }

    /// Iterates the memoized `(class, d-bit vector)` pairs in class order
    /// (the persistence layer's traversal). Classes `0..d` are sampled
    /// positions; class `d` is the shared "none of my sampled buckets"
    /// vector.
    pub fn memo_entries(&self) -> impl Iterator<Item = (u32, &BitVec)> + '_ {
        self.memo
            .iter()
            .enumerate()
            .filter_map(|(c, m)| m.as_ref().map(|bits| (c as u32, bits)))
    }

    /// Restores a memoized report vector when rebuilding a client from a
    /// snapshot, charging the accountant exactly as the original
    /// memoization did.
    ///
    /// # Panics
    /// Panics if `class > d`, the class is already memoized with different
    /// bits, or the vector width differs from `d`.
    pub fn restore_memo(&mut self, class: u32, bits: &BitVec) {
        assert!((class as usize) < self.memo.len(), "class outside [0, d]");
        assert_eq!(bits.len(), self.sampled.len(), "report width mismatch");
        let slot = &mut self.memo[class as usize];
        assert!(
            slot.is_none() || slot.as_ref() == Some(bits),
            "memoization is write-once (class {class})"
        );
        *slot = Some(bits.clone());
        self.accountant
            .observe(class.min(self.accountant_classes() - 1));
    }
}

/// The dBitFlipPM aggregation server: estimates a `b`-bin bucket histogram
/// with Eq. (1), scaling `n` by `d/b` because each user only covers `d`
/// of the `b` bucket counters.
#[derive(Debug, Clone)]
pub struct DBitFlipServer {
    b: u32,
    d: u32,
    p: f64,
    q: f64,
    counts: Vec<u64>,
    n_step: u64,
}

impl DBitFlipServer {
    /// Creates a server for `b` buckets, `d` sampled bits, budget `eps_inf`.
    pub fn new(b: u32, d: u32, eps_inf: f64) -> Result<Self, ParamError> {
        ldp_primitives::error::check_epsilon(eps_inf)?;
        if d == 0 || d > b {
            return Err(ParamError::InvalidBuckets { b, d, k: b as u64 });
        }
        let (p, q) = sue_params(eps_inf);
        Ok(Self {
            b,
            d,
            p,
            q,
            counts: vec![0; b as usize],
            n_step: 0,
        })
    }

    /// Ingests one report given the user's registered sampled positions.
    ///
    /// # Panics
    /// Panics if the report width differs from the registration.
    pub fn ingest(&mut self, sampled: &[u32], report: &DBitReport) {
        assert_eq!(sampled.len(), self.d as usize, "sampled positions mismatch");
        assert_eq!(report.bits.len(), self.d as usize, "report width mismatch");
        for l in report.bits.iter_ones() {
            self.counts[sampled[l] as usize] += 1;
        }
        self.n_step += 1;
    }

    /// Merges pre-aggregated bucket counts (thread-local aggregation).
    pub fn ingest_counts(&mut self, counts: &[u64], n: u64) {
        assert_eq!(counts.len(), self.b as usize, "count length mismatch");
        for (acc, &c) in self.counts.iter_mut().zip(counts) {
            *acc += c;
        }
        self.n_step += n;
    }

    /// Number of reports ingested this step.
    pub fn n_step(&self) -> u64 {
        self.n_step
    }

    /// Estimates this step's `b`-bin bucket histogram and resets.
    pub fn estimate_and_reset(&mut self) -> Vec<f64> {
        let counts: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        // Each bucket counter only hears from the n·d/b users that sampled it.
        let n_eff = self.n_step as f64 * self.d as f64 / self.b as f64;
        let est = frequency_estimates(&counts, n_eff, self.p, self.q);
        self.counts.fill(0);
        self.n_step = 0;
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rand::derive_rng;
    use proptest::prelude::*;

    #[test]
    fn constructor_validates() {
        let mut rng = derive_rng(520, 0);
        assert!(DBitFlipClient::new(100, 10, 0, 1.0, &mut rng).is_err());
        assert!(DBitFlipClient::new(100, 10, 11, 1.0, &mut rng).is_err());
        assert!(DBitFlipClient::new(5, 10, 1, 1.0, &mut rng).is_err());
        assert!(DBitFlipClient::new(100, 10, 1, 0.0, &mut rng).is_err());
        assert!(DBitFlipServer::new(10, 11, 1.0).is_err());
    }

    #[test]
    fn sampled_positions_are_distinct_and_sorted() {
        let mut rng = derive_rng(521, 0);
        let c = DBitFlipClient::new(360, 90, 16, 1.0, &mut rng).unwrap();
        let s = c.sampled();
        assert_eq!(s.len(), 16);
        for w in s.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(s.iter().all(|&j| j < 90));
    }

    #[test]
    fn same_bucket_resends_identical_report() {
        let mut rng = derive_rng(522, 0);
        let mut c = DBitFlipClient::new(100, 10, 10, 1.0, &mut rng).unwrap();
        // values 0 and 5 share bucket 0 (width 10).
        let r1 = c.report(0, &mut rng);
        let r2 = c.report(5, &mut rng);
        let r3 = c.report(0, &mut rng);
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
        assert_eq!(c.distinct_classes(), 1);
    }

    #[test]
    fn unsampled_buckets_share_one_class() {
        let mut rng = derive_rng(523, 0);
        // d = 1: at most one sampled bucket; every other bucket shares the
        // "none" class, so budget caps at 2ε∞ no matter how much the value
        // churns.
        let mut c = DBitFlipClient::new(100, 100, 1, 1.5, &mut rng).unwrap();
        for v in 0..100u64 {
            let _ = c.report(v, &mut rng);
        }
        assert!(c.distinct_classes() <= 2);
        assert!(c.privacy_spent() <= 2.0 * 1.5 + 1e-12);
    }

    #[test]
    fn d_equals_b_reports_full_vector() {
        let mut rng = derive_rng(524, 0);
        let mut c = DBitFlipClient::new(40, 8, 8, 2.0, &mut rng).unwrap();
        let r = c.report(0, &mut rng);
        assert_eq!(r.bits.len(), 8);
        // With d = b every bucket is sampled: the "none" class is
        // unreachable and the cap is b·ε∞.
        for v in 0..40u64 {
            let _ = c.report(v, &mut rng);
        }
        assert_eq!(c.distinct_classes(), 8);
        assert!((c.privacy_spent() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn report_into_matches_report_draw_for_draw() {
        let mut rng_a = derive_rng(529, 0);
        let mut rng_b = derive_rng(529, 0);
        let mut a = DBitFlipClient::new(100, 10, 4, 1.5, &mut rng_a).unwrap();
        let mut b = DBitFlipClient::new(100, 10, 4, 1.5, &mut rng_b).unwrap();
        let mut buf = BitVec::zeros(a.d());
        for v in [3u64, 47, 3, 91, 12] {
            a.report_into(v, &mut rng_a, &mut buf);
            assert_eq!(buf, b.report(v, &mut rng_b).bits, "value {v}");
        }
    }

    /// The per-position memo-build loop the word-at-a-time kernel
    /// replaced, kept as its oracle.
    fn memo_oracle<R: RngCore>(c: &DBitFlipClient, bucket: u32, rng: &mut R) -> BitVec {
        let mut bits = BitVec::zeros(c.sampled.len());
        for (l, &j) in c.sampled.iter().enumerate() {
            let bern = if j == bucket { &c.keep } else { &c.noise };
            if bern.sample(rng) {
                bits.set(l, true);
            }
        }
        bits
    }

    proptest! {
        /// The memo build is stream-preserving: identical blocks (nothing
        /// past `d`) and an identical next draw, for the matching sampled
        /// position in the first, a middle or the last block, and for the
        /// "not sampled" class.
        #[test]
        fn memo_build_matches_per_position_oracle(
            d in 2u32..1100,
            extra in 0u32..3,
            pick in any::<u64>(),
            eps in 0.1..6.0f64,
            always_keep in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let b = d + extra;
            let mut c = DBitFlipClient::new(u64::from(b), b, d, eps, &mut derive_rng(seed, 3))
                .unwrap();
            if always_keep {
                c.keep = Bernoulli::new(1.0).unwrap();
            }
            let bucket = (pick % u64::from(b)) as u32;
            let mut fast = BitVec::zeros(d as usize);
            let (mut rng_fast, mut rng_slow) = (derive_rng(seed, 4), derive_rng(seed, 4));
            c.report_into(u64::from(bucket), &mut rng_fast, &mut fast);
            let slow = memo_oracle(&c, bucket, &mut rng_slow);
            prop_assert_eq!(fast.blocks(), slow.blocks());
            if d % 64 != 0 {
                prop_assert_eq!(fast.blocks().last().unwrap() >> (d % 64), 0);
            }
            prop_assert_eq!(rng_fast.next_u64(), rng_slow.next_u64());
        }
    }

    #[test]
    fn restore_memo_rebuilds_state_and_accounting() {
        let mut rng = derive_rng(530, 0);
        let mut original = DBitFlipClient::new(100, 10, 4, 1.5, &mut rng).unwrap();
        for v in [3u64, 47, 91] {
            let _ = original.report(v, &mut rng);
        }
        let mut restored = DBitFlipClient::new(100, 10, 4, 1.5, &mut derive_rng(530, 0)).unwrap();
        // Same construction seed ⇒ same sampled positions.
        assert_eq!(original.sampled(), restored.sampled());
        for (class, bits) in original.memo_entries() {
            restored.restore_memo(class, bits);
        }
        assert_eq!(original.distinct_classes(), restored.distinct_classes());
        assert_eq!(original.privacy_spent(), restored.privacy_spent());
        // Memoized classes replay identically without touching the RNG.
        let mut dummy = derive_rng(531, 0);
        for v in [3u64, 47, 91] {
            assert_eq!(
                original.report(v, &mut derive_rng(532, 0)),
                restored.report(v, &mut dummy)
            );
        }
    }

    #[test]
    fn end_to_end_bucket_histogram_accuracy() {
        // d = b (utility mode) on a uniform-ish distribution.
        let k = 100u64;
        let b = 20u32;
        let eps = 3.0;
        let n = 30_000;
        let mut server = DBitFlipServer::new(b, b, eps).unwrap();
        let mut rng = derive_rng(525, 0);
        for u in 0..n {
            let mut crng = derive_rng(526, u);
            let mut c = DBitFlipClient::new(k, b, b, eps, &mut crng).unwrap();
            let v = ldp_rand::uniform_u64(&mut rng, k);
            let r = c.report(v, &mut crng);
            let sampled = c.sampled().to_vec();
            server.ingest(&sampled, &r);
        }
        let est = server.estimate_and_reset();
        for (j, &e) in est.iter().enumerate() {
            assert!((e - 0.05).abs() < 0.03, "bucket {j}: {e}");
        }
    }

    #[test]
    fn subsampled_estimation_is_still_unbiased() {
        // d < b: the n·d/b scaling must keep estimates centred.
        let k = 60u64;
        let b = 12u32;
        let d = 3u32;
        let eps = 4.0;
        let n = 60_000;
        let mut server = DBitFlipServer::new(b, d, eps).unwrap();
        let _rng = derive_rng(527, 0);
        for u in 0..n {
            let mut crng = derive_rng(528, u);
            let mut c = DBitFlipClient::new(k, b, d, eps, &mut crng).unwrap();
            // Everyone holds value 0 → bucket 0 has frequency 1.
            let r = c.report(0, &mut crng);
            let sampled = c.sampled().to_vec();
            server.ingest(&sampled, &r);
        }
        let est = server.estimate_and_reset();
        assert!((est[0] - 1.0).abs() < 0.1, "bucket 0: {}", est[0]);
        for (j, &e) in est.iter().enumerate().skip(1) {
            assert!(e.abs() < 0.1, "bucket {j}: {e}");
        }
    }
}
