//! Batched-transport invariance at the collector level.
//!
//! The batched ingest transport (`ldp_ingest::BatchSubmitter`) must be a
//! pure wire-shape optimization: for every method, worker count, and
//! batch size — including 1 and sizes that do not divide the round — a
//! pooled sanitize round submitted in batches is **bit-identical** to the
//! per-report round, and a full-collector checkpoint/resume taken while
//! batches were in flight loses and duplicates nothing.

use ldp_client::{ClientConfig, ClientPool, ReportBuf, ReportSink};
use ldp_ingest::{BatchSubmitter, IngestError, IngestHandle, IngestPipeline};
use ldp_runtime::{AggregateSnapshot, Method};

const K: u64 = 16;
const EPS_INF: f64 = 2.0;
const EPS_FIRST: f64 = 1.0;
const SEED: u64 = 5;
const USERS: usize = 60;

fn pool(method: Method) -> ClientPool {
    let cfg = ClientConfig::for_method(method, K, EPS_INF, EPS_FIRST).unwrap();
    ClientPool::new(cfg, SEED, USERS).unwrap()
}

fn values() -> Vec<u64> {
    (0..USERS as u64).map(|i| (i * 7) % K).collect()
}

/// The per-report transport, one envelope per report: the oracle the
/// batched submitters are checked against.
struct PerReport(IngestHandle);

impl ReportSink for PerReport {
    type Error = IngestError;

    fn submit(&mut self, user: u64, support: &[usize]) -> Result<(), IngestError> {
        self.0.submit(user, support.iter().copied())
    }
}

/// `workers` per-report sinks over `handle`.
fn per_report(handle: &IngestHandle, workers: usize) -> Vec<PerReport> {
    (0..workers).map(|_| PerReport(handle.clone())).collect()
}

/// `workers` batching sinks of `batch` reports per envelope over `handle`.
fn batching(handle: &IngestHandle, workers: usize, batch: usize) -> Vec<BatchSubmitter> {
    (0..workers).map(|_| handle.batching(batch)).collect()
}

fn assert_bit_identical(a: &AggregateSnapshot, b: &AggregateSnapshot, ctx: &str) {
    assert_eq!(a.counts, b.counts, "{ctx}: merged counts");
    assert_eq!(a.reports, b.reports, "{ctx}: report totals");
    assert_eq!(a.estimate.len(), b.estimate.len(), "{ctx}: estimate length");
    for (i, (x, y)) in a.estimate.iter().zip(&b.estimate).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: estimate bin {i}");
    }
}

/// All 9 methods × workers {1, 2, 4} × batch sizes {1, 7, 64, full
/// round}: batched estimates byte-identical to per-report estimates.
#[test]
fn batched_round_equals_per_report_round_for_every_method() {
    for method in Method::all() {
        let vals = values();
        let mut reference = pool(method);
        let mut ref_pipe = IngestPipeline::for_method(method, K, EPS_INF, EPS_FIRST, 2).unwrap();
        let handle = ref_pipe.handle();
        reference
            .sanitize_round_sinks(&vals, &mut per_report(&handle, 2))
            .unwrap();
        drop(handle);
        let want = ref_pipe.finish_round().unwrap();

        for workers in [1usize, 2, 4] {
            // Batch sizes: degenerate (1), non-divisor (7), mid (64, also
            // a non-divisor of the 60-report round), and full-round.
            for batch in [1usize, 7, 64, USERS] {
                let mut p = pool(method);
                let mut pipe =
                    IngestPipeline::for_method(method, K, EPS_INF, EPS_FIRST, workers).unwrap();
                let handle = pipe.handle();
                p.sanitize_round_sinks(&vals, &mut batching(&handle, workers, batch))
                    .unwrap();
                drop(handle);
                let got = pipe.finish_round().unwrap();
                assert_bit_identical(
                    &want,
                    &got,
                    &format!("{method:?}, {workers} workers, batch {batch}"),
                );
            }
        }
    }
}

/// Sparse assignment rounds through the batched transport match the
/// per-report dense equivalent for non-divisor batch sizes.
#[test]
fn batched_assignments_equal_per_report_round() {
    let vals = values();
    let dense: Vec<(usize, u64)> = vals.iter().copied().enumerate().collect();
    let mut a = pool(Method::LOsue);
    let mut pipe_a = IngestPipeline::for_method(Method::LOsue, K, EPS_INF, EPS_FIRST, 2).unwrap();
    let ha = pipe_a.handle();
    a.sanitize_round_sinks(&vals, &mut per_report(&ha, 2))
        .unwrap();
    drop(ha);
    let want = pipe_a.finish_round().unwrap();

    for batch in [1usize, 7, 64] {
        let mut b = pool(Method::LOsue);
        let mut pipe_b =
            IngestPipeline::for_method(Method::LOsue, K, EPS_INF, EPS_FIRST, 3).unwrap();
        let hb = pipe_b.handle();
        b.sanitize_assignments(&dense, &mut batching(&hb, 4, batch))
            .unwrap();
        drop(hb);
        let got = pipe_b.finish_round().unwrap();
        assert_bit_identical(&want, &got, &format!("assignments, batch {batch}"));
    }
}

/// Full-collector mid-round resume with batches in flight: both halves
/// (client pool + shard state) checkpoint at a submitter flush boundary,
/// the "crash" discards the live collector, and the resumed collector
/// finishes the round byte-identical to an uninterrupted one — no
/// buffered report lost, none double-counted.
#[test]
fn mid_batch_collector_resume_is_lossless() {
    let method = Method::BiLoloha;
    let vals = values();

    let mut uninterrupted = pool(method);
    let mut upipe = IngestPipeline::for_method(method, K, EPS_INF, EPS_FIRST, 1).unwrap();
    let uh = upipe.handle();
    uninterrupted
        .sanitize_round_sinks(&vals, &mut batching(&uh, 1, 16))
        .unwrap();
    drop(uh);
    let want = upipe.finish_round().unwrap();

    // Interrupted collector: 40 of 60 users sanitized through a batch-16
    // submitter (two full batches flushed, 8 reports still buffered),
    // then both checkpoints taken after an explicit flush — the ordering
    // the quiescence contract requires.
    let mut live = pool(method);
    let pipe = IngestPipeline::for_method(method, K, EPS_INF, EPS_FIRST, 1).unwrap();
    let mut sub = pipe.handle().batching(16);
    let mut buf = ReportBuf::new();
    for (u, &v) in vals.iter().enumerate().take(40) {
        live.sanitize_one(u, v, &mut buf);
        sub.submit(u as u64, buf.support().iter().copied()).unwrap();
    }
    sub.flush().unwrap();
    let shard_cp = pipe.checkpoint().unwrap();
    let client_cp = live.checkpoint();
    assert_eq!(
        shard_cp.shards.iter().map(|s| s.reports).sum::<u64>(),
        40,
        "flush before the barrier makes every buffered report visible"
    );
    drop(sub);
    drop(pipe);
    drop(live);

    // Resume on a different worker count and finish the round.
    let mut resumed = pool(method);
    resumed.restore(&client_cp).unwrap();
    let mut pipe = IngestPipeline::for_method(method, K, EPS_INF, EPS_FIRST, 3).unwrap();
    pipe.restore(&shard_cp).unwrap();
    let mut sub = pipe.handle().batching(16);
    for (u, &v) in vals.iter().enumerate().skip(40) {
        resumed.sanitize_one(u, v, &mut buf);
        sub.submit(u as u64, buf.support().iter().copied()).unwrap();
    }
    sub.finish().unwrap();
    let got = pipe.finish_round().unwrap();
    assert_bit_identical(&want, &got, "mid-batch collector resume");
}
