//! Layer micro-timings on inputs captured from the workload itself
//! (support sets recorded in a round after the timed ones, that round's
//! estimate, the pool in its end state). Every timed body goes through
//! `black_box`, and each timing is checked to grow with its iteration
//! count, so none of the measured work can have been optimized away.

use crate::system::err;
use crate::trace::SpanLog;
use crate::workload::{Workload, EPS_INF};
use ldp_client::{ClientPool, ReportBuf, ReportSink};
use ldp_ingest::{IngestPipeline, ReportBatch, DEFAULT_BATCH_REPORTS};
use ldp_netd::{
    config_fingerprint, decode_frame, encode_frame, encode_net_checkpoint, Frame, NetCheckpoint,
    NetStore, DEFAULT_FRAME_REPORTS,
};
use ldp_obs::MetricsRegistry;
use ldp_runtime::{Shard, ShardedAggregator};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Support sets each sink keeps in a capture round.
const CAPTURE_PER_SINK: usize = 2048;

/// Iterations double until one timing takes at least this long.
const TARGET: Duration = Duration::from_millis(40);

/// A [`ReportSink`] that keeps the first support sets it forwards.
pub struct CaptureSink<S> {
    inner: S,
    kept: Vec<Vec<u32>>,
}

impl<S> CaptureSink<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            kept: Vec::new(),
        }
    }

    pub fn into_parts(self) -> (S, Vec<Vec<u32>>) {
        (self.inner, self.kept)
    }
}

impl<S: ReportSink> ReportSink for CaptureSink<S> {
    type Error = S::Error;

    fn submit(&mut self, user: u64, support: &[usize]) -> Result<(), S::Error> {
        if self.kept.len() < CAPTURE_PER_SINK {
            self.kept.push(support.iter().map(|&i| i as u32).collect());
        }
        self.inner.submit(user, support)
    }

    fn finish(&mut self) -> Result<(), S::Error> {
        self.inner.finish()
    }
}

/// What the captured round gives the micro-timings.
pub struct Captured<'a> {
    pub reports: &'a [Vec<u32>],
    pub estimate: &'a [f64],
    /// Submit frames per session in that round.
    pub frames_per_session: u64,
    /// The round's values, for `sanitize_one`.
    pub values: &'a [u64],
}

pub struct Micro {
    pub fold_ns_per_report: f64,
    pub snapshot_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub checkpoint_bytes: f64,
    pub checkpoint_save_ms: f64,
    pub sanitize_one_ns: f64,
    /// `BatchSubmitter` ns/report and `finish_round` ms, replayed frame by
    /// frame as the daemon applies them; measured only on the wire, where
    /// the daemon's own calls are out of the benchmark's reach.
    pub replay: Option<(f64, f64)>,
}

/// Wall time of `iters` calls of `f`.
fn time(iters: u64, f: &mut impl FnMut()) -> Duration {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed()
}

/// Timings of each pass; the check uses their minimum, which a burst of
/// other load cannot lower.
const PASSES: usize = 3;

/// Nanoseconds per call of `f`: the median of [`PASSES`] passes of twice
/// the iterations that first take [`TARGET`]. Fails when the fastest of
/// those passes is not slower than the fastest pass of half as many
/// iterations.
fn per_iter(name: &str, mut f: impl FnMut()) -> Result<f64, String> {
    f();
    let mut iters = 1u64;
    while time(iters, &mut f) < TARGET {
        iters *= 2;
    }
    let mut passes = |n: u64| -> Vec<f64> {
        (0..PASSES)
            .map(|_| time(n, &mut f).as_nanos() as f64)
            .collect()
    };
    let once = passes(iters);
    let twice = passes(2 * iters);
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    if fastest(&twice) <= fastest(&once) {
        return Err(format!(
            "micro-timing {name} does not grow with iterations ({once:?} ns for {iters}, {twice:?} ns for {})",
            2 * iters
        ));
    }
    Ok(crate::stats::median(&twice) / (2 * iters) as f64)
}

/// Runs every micro-timing; each `NetStore::save` call becomes a span of
/// `round` in `log`.
pub fn run(
    w: Workload,
    threads: usize,
    cap: &Captured,
    pool: &mut ClientPool,
    dir: &Path,
    log: &mut SpanLog,
    round: u64,
) -> Result<Micro, String> {
    let eps1 = w.eps_first();
    let obs = MetricsRegistry::new();
    let mut agg = ShardedAggregator::for_method_obs(w.method, w.k, EPS_INF, eps1, threads, &obs)
        .map_err(err)?;
    let dim = agg.dim();
    let fp = config_fingerprint(w.method, w.k, dim as u64, EPS_INF, eps1);
    let n_rep = cap.reports.len() as f64;

    // runtime: the shard fold over transport-sized batches, and the
    // merge + estimate at the workload's k and shard count.
    let batches: Vec<(Vec<u32>, u64)> = cap
        .reports
        .chunks(DEFAULT_BATCH_REPORTS)
        .map(|c| (c.concat(), c.len() as u64))
        .collect();
    let mut shard = Shard::with_dim(dim);
    let fold_ns_per_report = per_iter("runtime.fold", || {
        for (indices, reports) in &batches {
            shard.add_report_batch(black_box(indices), *reports);
        }
        black_box(shard.reports());
    })? / n_rep;
    for (i, r) in cap.reports.iter().enumerate() {
        agg.push_report(i % threads, r.iter().map(|&x| x as usize));
    }
    let snapshot_us = per_iter("runtime.snapshot", || {
        black_box(agg.snapshot());
    })? / 1e3;

    // netd: one Submit frame of the workload's shape.
    let mut batch = ReportBatch::new();
    for r in cap.reports.iter().take(DEFAULT_FRAME_REPORTS) {
        batch.push_report(r.iter().copied());
    }
    let frame = Frame::Submit {
        seq: 1,
        key_base: 0,
        batch,
    };
    let body = encode_frame(&frame, fp);
    if decode_frame(&body).map_err(err)? != (fp, frame.clone()) {
        return Err("a Submit frame does not survive encode + decode".into());
    }
    let encode_us = per_iter("netd.frame.encode", || {
        black_box(encode_frame(black_box(&frame), fp));
    })? / 1e3;
    let decode_us = per_iter("netd.frame.decode", || {
        black_box(decode_frame(black_box(&body)).is_ok());
    })? / 1e3;

    // ingest + checkpoint: the captured reports applied frame by frame,
    // exactly as the daemon applies Submit frames.
    let mut pipeline =
        IngestPipeline::for_method_obs(w.method, w.k, EPS_INF, eps1, threads, &obs).map_err(err)?;
    let handle = pipeline.handle();
    let mut sub = handle.batching(DEFAULT_BATCH_REPORTS);
    let replay = |sub: &mut ldp_ingest::BatchSubmitter| {
        for (f, frame) in cap.reports.chunks(DEFAULT_FRAME_REPORTS).enumerate() {
            let base = (f * DEFAULT_FRAME_REPORTS) as u64;
            for (i, r) in frame.iter().enumerate() {
                sub.submit(base + i as u64, r.iter().map(|&x| x as usize))
                    .expect("captured supports are in range");
            }
            sub.flush().expect("pipeline workers are alive");
        }
    };
    replay(&mut sub);
    let cp = NetCheckpoint {
        round: 1,
        last_result: Some((w.n as u64, cap.estimate.to_vec())),
        sessions: (0..threads as u32)
            .map(|s| (s, cap.frames_per_session))
            .collect(),
        shards: pipeline.checkpoint().map_err(err)?,
    };
    let checkpoint_bytes = encode_net_checkpoint(&cp, fp).len() as f64;
    let store = NetStore::new(dir.join("micro.ckpt"), fp);
    let checkpoint_save_ms = per_iter("netd.checkpoint.save", || {
        let start = log.now();
        store
            .save(black_box(&cp))
            .expect("checkpoint directory is writable");
        log.push("netd.checkpoint.save", round, 0, start);
    })? / 1e6;
    let replay = if w.is_wire() {
        let submit = per_iter("ingest.submit", || replay(&mut sub))? / n_rep;
        let finish = per_iter("ingest.finish_round", || {
            black_box(pipeline.finish_round().expect("pipeline workers are alive"));
        })? / 1e6;
        Some((submit, finish))
    } else {
        None
    };
    drop(sub);

    // client: the direct path's per-call sanitize at the full population.
    let n = pool.len();
    let mut buf = ReportBuf::new();
    let mut user = 0usize;
    let sanitize_one_ns = per_iter("client.sanitize_one", || {
        pool.sanitize_one(user, cap.values[user], &mut buf);
        black_box(buf.support().len());
        user = (user + 1) % n;
    })?;

    Ok(Micro {
        fold_ns_per_report,
        snapshot_us,
        encode_us,
        decode_us,
        checkpoint_bytes,
        checkpoint_save_ms,
        sanitize_one_ns,
        replay,
    })
}
