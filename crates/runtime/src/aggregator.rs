//! The sharded streaming aggregator — the workspace's single server-side
//! aggregation path.
//!
//! Reports (or pre-aggregated batches of reports) are pushed into *shards*:
//! independent partial support-count histograms that can be filled from
//! disjoint worker threads, network partitions, or arriving stream batches.
//! Because merging is an index-wise sum of `u64` counters, the merged
//! histogram — and therefore every downstream estimate — is bit-identical
//! regardless of how many shards the same reports were spread over.
//!
//! Two usage styles share one engine:
//!
//! * **One-shot / per-round** (the simulator, the CLI): fill the shards for
//!   a collection round, then [`ShardedAggregator::finish_round`] merges,
//!   estimates, and resets for the next round.
//! * **Incremental streaming** (dashboards): keep pushing with
//!   [`ShardedAggregator::push_report`] / [`ShardedAggregator::push_batch`]
//!   and take non-destructive [`ShardedAggregator::snapshot`]s at any point
//!   mid-round.

use crate::method::{Method, Protocol};
use ldp_hash::BucketMapper;
use ldp_longitudinal::chain::ue_chain_params;
use ldp_longitudinal::{DBitFlipServer, LgrrServer, LueServer};
use ldp_obs::{Counter, Gauge, Histogram, MetricsRegistry, Span};
use ldp_primitives::error::ParamError;
use loloha::LolohaServer;

/// Aggregator-side telemetry handles (`ldp.runtime.aggregator.*`). Only
/// operational quantities flow through these: stage durations, the merged
/// support-count *total*, and round counts — never per-index counts or
/// estimates.
#[derive(Debug, Clone)]
struct AggObs {
    merge_ns: Histogram,
    estimate_ns: Histogram,
    support_total: Gauge,
    rounds: Counter,
}

impl AggObs {
    fn new(obs: &MetricsRegistry) -> Self {
        Self {
            merge_ns: obs.histogram("ldp.runtime.aggregator.merge_ns"),
            estimate_ns: obs.histogram("ldp.runtime.aggregator.estimate_ns"),
            support_total: obs.gauge("ldp.runtime.aggregator.support_total"),
            rounds: obs.counter("ldp.runtime.aggregator.rounds"),
        }
    }
}

/// The per-method estimation backend behind a [`ShardedAggregator`].
#[derive(Debug, Clone)]
enum Estimator {
    Lue(LueServer),
    Lgrr(LgrrServer),
    Loloha(LolohaServer),
    DBit(DBitFlipServer),
}

impl Estimator {
    fn ingest_counts(&mut self, counts: &[u64], n: u64) {
        match self {
            Estimator::Lue(s) => s.ingest_counts(counts, n),
            Estimator::Lgrr(s) => s.ingest_counts(counts, n),
            Estimator::Loloha(s) => s.ingest_counts(counts, n),
            Estimator::DBit(s) => s.ingest_counts(counts, n),
        }
    }

    fn estimate_and_reset(&mut self) -> Vec<f64> {
        match self {
            Estimator::Lue(s) => s.estimate_and_reset(),
            Estimator::Lgrr(s) => s.estimate_and_reset(),
            Estimator::Loloha(s) => s.estimate_and_reset(),
            Estimator::DBit(s) => s.estimate_and_reset(),
        }
    }
}

/// One shard's accumulation state: a partial support-count histogram plus
/// the number of reports folded into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    counts: Vec<u64>,
    reports: u64,
}

impl Shard {
    /// Creates an empty shard of aggregation dimension `dim`, for callers
    /// (such as `ldp_ingest` workers) that accumulate shard state outside a
    /// [`ShardedAggregator`] and merge it back in via
    /// [`ShardedAggregator::push_batch`].
    pub fn with_dim(dim: usize) -> Self {
        Self {
            counts: vec![0; dim],
            reports: 0,
        }
    }

    /// Folds one report's support set in: every listed index gains a count.
    ///
    /// # Panics
    /// Panics if an index is outside the aggregation dimension.
    pub fn add_report<I>(&mut self, support: I)
    where
        I: IntoIterator<Item = usize>,
    {
        for i in support {
            self.counts[i] += 1;
        }
        self.reports += 1;
    }

    /// Folds a transport batch of whole reports in: `indices` is the
    /// concatenation of `reports` reports' support sets in the ingest
    /// transport width (`u32`), every index already validated against the
    /// aggregation dimension by the submitting side. One flat slice walk —
    /// no per-report envelope or iterator state — which is what lets the
    /// batched ingest path drain a channel message in a single pass.
    ///
    /// # Panics
    /// Panics if an index is outside the aggregation dimension.
    pub fn add_report_batch(&mut self, indices: &[u32], reports: u64) {
        for &i in indices {
            self.counts[i as usize] += 1;
        }
        self.reports += reports;
    }

    /// Folds a pre-aggregated batch of `reports` reports into this shard.
    ///
    /// # Panics
    /// Panics if `counts` length differs from the aggregation dimension.
    pub fn add_batch(&mut self, counts: &[u64], reports: u64) {
        assert_eq!(counts.len(), self.counts.len(), "batch length mismatch");
        for (acc, &c) in self.counts.iter_mut().zip(counts) {
            *acc += c;
        }
        self.reports += reports;
    }

    /// The shard-local partial support counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reports folded into this shard since the round began.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Clears the shard back to the empty state (all-zero counts, zero
    /// reports), retaining its dimension.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.reports = 0;
    }
}

/// A merged view of everything pushed during the current round.
#[derive(Debug, Clone)]
pub struct AggregateSnapshot {
    /// The merged support counts (index-wise sum over the shards).
    pub counts: Vec<u64>,
    /// Total number of reports across all shards.
    pub reports: u64,
    /// The protocol estimator applied to the merged counts. All-zero when
    /// no report has been pushed (there is nothing to normalize by).
    pub estimate: Vec<f64>,
}

/// Sharded streaming aggregation for one longitudinal protocol.
///
/// See the [module docs](self) for the ingestion model. Constructed from a
/// [`Method`], whose parameters come from [`Method::resolve`] — the same
/// resolution every client of the method builds from.
#[derive(Debug, Clone)]
pub struct ShardedAggregator {
    estimator: Estimator,
    shards: Vec<Shard>,
    dim: usize,
    k: u64,
    protocol: Protocol,
    obs: AggObs,
}

impl ShardedAggregator {
    /// Creates an aggregator for `method` over the domain `[0, k)` at
    /// longitudinal budget `eps_inf` with first-report budget `eps_first`,
    /// spreading ingestion over `shards` shards (clamped to ≥ 1).
    ///
    /// Telemetry lands in the process-wide [`MetricsRegistry::global`];
    /// use [`Self::for_method_obs`] to direct it elsewhere.
    pub fn for_method(
        method: Method,
        k: u64,
        eps_inf: f64,
        eps_first: f64,
        shards: usize,
    ) -> Result<Self, ParamError> {
        Self::for_method_obs(
            method,
            k,
            eps_inf,
            eps_first,
            shards,
            &MetricsRegistry::global(),
        )
    }

    /// [`Self::for_method`] with an explicit telemetry registry (the CLI
    /// and harness pass a fresh one per run for isolation; pass
    /// [`MetricsRegistry::disabled`] to make every instrument a no-op).
    pub fn for_method_obs(
        method: Method,
        k: u64,
        eps_inf: f64,
        eps_first: f64,
        shards: usize,
        obs: &MetricsRegistry,
    ) -> Result<Self, ParamError> {
        let protocol = method.resolve(k, eps_inf, eps_first)?;
        let estimator = match protocol {
            Protocol::Ue(chain) => Estimator::Lue(LueServer::new(
                k,
                ue_chain_params(chain, eps_inf, eps_first)?,
            )?),
            Protocol::Lgrr => Estimator::Lgrr(LgrrServer::new(k, eps_inf, eps_first)?),
            Protocol::Loloha(params) => Estimator::Loloha(LolohaServer::new(k, params)?),
            Protocol::DBit { b, d } => {
                BucketMapper::new(k, b).ok_or(ParamError::InvalidBuckets { b, d, k })?;
                Estimator::DBit(DBitFlipServer::new(b, d, eps_inf)?)
            }
        };
        let dim = protocol.dim(k);
        Ok(Self {
            estimator,
            shards: vec![Shard::with_dim(dim); shards.max(1)],
            dim,
            k,
            protocol,
            obs: AggObs::new(obs),
        })
    }

    /// The aggregation dimension: `k` for k-binned protocols, `b` for
    /// bucketized dBitFlipPM.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The input domain size the aggregator was built for.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Number of shards ingestion is spread over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The resolved reduced domain: `g` for LOLOHA, `b` for dBitFlipPM.
    pub fn reduced_domain(&self) -> Option<u32> {
        self.protocol.reduced_domain()
    }

    /// Whether estimates are k-binned (comparable to a k-bin ground truth).
    /// False only for dBitFlipPM with `b < k`.
    pub fn k_binned(&self) -> bool {
        self.dim as u64 == self.k
    }

    /// Clears every shard, starting a fresh collection round.
    pub fn begin_round(&mut self) {
        for s in &mut self.shards {
            s.reset();
        }
    }

    /// Mutable access to the shards, for worker threads that each own one
    /// (`std::thread::scope` can split this slice into disjoint borrows).
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Pushes a single report's support set into shard `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range or an index exceeds [`Self::dim`].
    pub fn push_report<I>(&mut self, shard: usize, support: I)
    where
        I: IntoIterator<Item = usize>,
    {
        self.shards[shard].add_report(support);
    }

    /// Pushes a pre-aggregated batch of `reports` reports into shard
    /// `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range or the batch length differs from
    /// [`Self::dim`].
    pub fn push_batch(&mut self, shard: usize, counts: &[u64], reports: u64) {
        self.shards[shard].add_batch(counts, reports);
    }

    /// Total reports pushed this round, across all shards.
    pub fn round_reports(&self) -> u64 {
        self.shards.iter().map(Shard::reports).sum()
    }

    /// Merges the shard partials into one histogram. An index-wise sum, so
    /// the result is independent of the shard count and push order.
    pub fn merged_counts(&self) -> Vec<u64> {
        merge_shards(&self.shards, self.dim, &self.obs)
    }

    /// Non-destructive streaming view: merges and estimates everything
    /// pushed so far this round, leaving the shards untouched so ingestion
    /// can continue. (The backing estimator is stateless between rounds —
    /// it resets after every estimate — so a clone serves the snapshot.)
    pub fn snapshot(&self) -> AggregateSnapshot {
        merge_and_estimate(
            &self.shards,
            self.dim,
            &self.obs,
            &mut self.estimator.clone(),
        )
    }

    /// Closes the round: merges, estimates, and resets every shard for the
    /// next round.
    pub fn finish_round(&mut self) -> AggregateSnapshot {
        let out = merge_and_estimate(&self.shards, self.dim, &self.obs, &mut self.estimator);
        self.obs.rounds.inc();
        self.begin_round();
        out
    }

    /// One-shot convenience: starts a fresh round, spreads `batches` over
    /// the shards round-robin, and closes the round in a single call.
    pub fn one_shot(&mut self, batches: &[(&[u64], u64)]) -> AggregateSnapshot {
        self.begin_round();
        let shards = self.shards.len();
        for (i, &(counts, reports)) in batches.iter().enumerate() {
            self.push_batch(i % shards, counts, reports);
        }
        self.finish_round()
    }
}

/// Index-wise sum of the shard partials (see
/// [`ShardedAggregator::merged_counts`]).
fn merge_shards(shards: &[Shard], dim: usize, obs: &AggObs) -> Vec<u64> {
    let _timed = Span::enter(&obs.merge_ns);
    let mut merged = vec![0u64; dim];
    for shard in shards {
        for (m, &c) in merged.iter_mut().zip(&shard.counts) {
            *m += c;
        }
    }
    merged
}

/// The one merge-and-estimate body behind [`ShardedAggregator::snapshot`]
/// and [`ShardedAggregator::finish_round`]. The field-wise arguments let
/// `finish_round` lend its own estimator (which resets after estimating)
/// while `snapshot` lends a clone.
fn merge_and_estimate(
    shards: &[Shard],
    dim: usize,
    obs: &AggObs,
    estimator: &mut Estimator,
) -> AggregateSnapshot {
    let counts = merge_shards(shards, dim, obs);
    let reports = shards.iter().map(Shard::reports).sum();
    obs.support_total.set(counts.iter().sum());
    let estimate = if reports == 0 {
        vec![0.0; dim]
    } else {
        let _timed = Span::enter(&obs.estimate_ns);
        estimator.ingest_counts(&counts, reports);
        estimator.estimate_and_reset()
    };
    AggregateSnapshot {
        counts,
        reports,
        estimate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batches(dim: usize, n: usize, seed: u64) -> Vec<(Vec<u64>, u64)> {
        // Deterministic small pseudo-random batches without an RNG dep.
        let mut out = Vec::new();
        let mut state = seed;
        for b in 0..n {
            let mut counts = vec![0u64; dim];
            for (i, c) in counts.iter_mut().enumerate() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = (state >> 33) % (7 + (b + i) as u64 % 5);
            }
            out.push((counts, 10 + b as u64));
        }
        out
    }

    #[test]
    fn add_report_batch_matches_per_report_folds() {
        let reports: Vec<Vec<usize>> = vec![vec![0, 3, 5], vec![1], vec![], vec![5, 5, 2]];
        let mut per_report = Shard::with_dim(6);
        for r in &reports {
            per_report.add_report(r.iter().copied());
        }
        let mut batched = Shard::with_dim(6);
        let flat: Vec<u32> = reports
            .iter()
            .flatten()
            .map(|&i| u32::try_from(i).unwrap())
            .collect();
        batched.add_report_batch(&flat, reports.len() as u64);
        assert_eq!(per_report, batched);
    }

    #[test]
    fn merged_counts_are_shard_count_invariant() {
        let data = batches(12, 9, 42);
        let refs: Vec<(&[u64], u64)> = data.iter().map(|(c, r)| (c.as_slice(), *r)).collect();
        let mut base = None;
        for shards in [1usize, 3, 8] {
            let mut agg =
                ShardedAggregator::for_method(Method::Rappor, 12, 1.0, 0.5, shards).unwrap();
            let snap = agg.one_shot(&refs);
            match &base {
                None => base = Some(snap),
                Some(b) => {
                    assert_eq!(b.counts, snap.counts, "{shards} shards");
                    assert_eq!(b.reports, snap.reports);
                    let same = b
                        .estimate
                        .iter()
                        .zip(&snap.estimate)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "estimate differs at {shards} shards");
                }
            }
        }
    }

    #[test]
    fn snapshot_does_not_disturb_the_round() {
        let mut agg = ShardedAggregator::for_method(Method::LGrr, 8, 2.0, 1.0, 2).unwrap();
        agg.push_report(0, [3usize]);
        agg.push_report(1, [5usize]);
        let snap = agg.snapshot();
        assert_eq!(snap.reports, 2);
        assert_eq!(snap.counts[3], 1);
        // Ingestion continues; finish sees the full round.
        agg.push_report(0, [3usize]);
        let fin = agg.finish_round();
        assert_eq!(fin.reports, 3);
        assert_eq!(fin.counts[3], 2);
        // The round is reset afterwards.
        assert_eq!(agg.round_reports(), 0);
        assert!(agg.merged_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn snapshot_matches_finish_round_estimate() {
        let mut agg = ShardedAggregator::for_method(Method::LOsue, 10, 1.5, 0.6, 3).unwrap();
        for i in 0..50usize {
            agg.push_report(i % 3, [i % 10, (i * 3) % 10]);
        }
        let snap = agg.snapshot();
        let fin = agg.finish_round();
        assert_eq!(snap.counts, fin.counts);
        assert_eq!(snap.reports, fin.reports);
        for (a, b) in snap.estimate.iter().zip(&fin.estimate) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_round_estimates_zero() {
        let mut agg = ShardedAggregator::for_method(Method::BiLoloha, 6, 1.0, 0.5, 2).unwrap();
        let out = agg.finish_round();
        assert_eq!(out.reports, 0);
        assert!(out.estimate.iter().all(|&e| e == 0.0));
        assert_eq!(out.estimate.len(), 6);
    }

    #[test]
    fn dbit_dimension_is_bucket_count() {
        // k = 1412 (DB_MT): b = 353 buckets, not k-binned.
        let agg = ShardedAggregator::for_method(Method::BBitFlip, 1412, 1.0, 0.5, 1).unwrap();
        assert_eq!(agg.dim(), 353);
        assert_eq!(agg.reduced_domain(), Some(353));
        assert!(!agg.k_binned());
        // Small domain: b = k, comparable.
        let agg = ShardedAggregator::for_method(Method::OneBitFlip, 24, 1.0, 0.5, 1).unwrap();
        assert_eq!(agg.dim(), 24);
        assert_eq!(agg.reduced_domain(), Some(24));
        assert!(agg.k_binned());
    }

    #[test]
    fn loloha_methods_expose_params() {
        let agg = ShardedAggregator::for_method(Method::OLoloha, 100, 4.0, 2.0, 4).unwrap();
        assert_eq!(agg.reduced_domain(), Some(loloha::optimal_g(4.0, 2.0)));
        assert_eq!((agg.dim(), agg.shard_count()), (100, 4));
        assert!(agg.k_binned());
    }

    #[test]
    fn shard_count_clamps_to_one() {
        let agg = ShardedAggregator::for_method(Method::Rappor, 8, 1.0, 0.5, 0).unwrap();
        assert_eq!(agg.shard_count(), 1);
    }

    #[test]
    fn push_batch_and_push_report_agree() {
        let mut by_report = ShardedAggregator::for_method(Method::LGrr, 5, 1.0, 0.4, 2).unwrap();
        by_report.push_report(0, [1usize]);
        by_report.push_report(1, [1usize]);
        by_report.push_report(1, [4usize]);
        let mut by_batch = ShardedAggregator::for_method(Method::LGrr, 5, 1.0, 0.4, 2).unwrap();
        by_batch.push_batch(0, &[0, 2, 0, 0, 1], 3);
        let a = by_report.finish_round();
        let b = by_batch.finish_round();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.reports, b.reports);
        for (x, y) in a.estimate.iter().zip(&b.estimate) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
