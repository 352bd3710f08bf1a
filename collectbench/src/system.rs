//! The system under test, driven through public APIs only: a
//! `ClientPool` sanitizing each round into either `NetSink`s against an
//! in-process `Collectd` on loopback (the sequence `run_loadgen` uses) or
//! `BatchSubmitter`s into an `IngestPipeline` (the calls `sanitize_round`
//! makes).

use crate::micro::CaptureSink;
use crate::trace::SpanLog;
use crate::workload::{Transport, Workload, EPS_INF};
use ldp_client::{ClientConfig, ClientPool, ReportSink};
use ldp_ingest::{IngestHandle, IngestPipeline, DEFAULT_BATCH_REPORTS};
use ldp_netd::{Collectd, DaemonConfig, Deadline, NetSink, DEFAULT_FRAME_REPORTS};
use ldp_obs::MetricsRegistry;
use ldp_runtime::ShardedAggregator;
use std::fmt::Display;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Errors cross the benchmark as their message.
pub fn err(e: impl Display) -> String {
    e.to_string()
}

/// What a round records besides its timing.
pub enum Tap<'a> {
    Plain,
    /// Spans around every call into a layer.
    Trace(&'a mut SpanLog),
    /// Keeps the first support sets each worker submits.
    Capture(&'a mut Vec<Vec<u32>>),
}

/// One finished round.
pub struct RoundOut {
    /// Reports folded into the round's estimate.
    pub reports: u64,
    pub estimate: Vec<f64>,
    /// Values handed to the pool until the estimate is in hand.
    pub wall: Duration,
    /// Reports the daemon acknowledged (wire) or the pipeline folded.
    pub acked: u64,
    /// Submit frames acknowledged (0 in-process).
    pub frames: u64,
}

/// How to reach the daemon.
struct Link {
    addr: SocketAddr,
    w: Workload,
    dim: u64,
    fingerprint: u64,
}

impl Link {
    /// Dials one session per sanitize thread, as `run_loadgen` does per
    /// round.
    fn connect(&self, threads: usize, obs: &MetricsRegistry) -> Result<Vec<NetSink>, String> {
        (0..threads)
            .map(|i| {
                NetSink::connect(
                    self.addr,
                    i as u32,
                    self.w.method,
                    self.w.k,
                    self.dim,
                    self.fingerprint,
                    DEFAULT_FRAME_REPORTS,
                    obs,
                    Deadline::after(Duration::from_secs(30)),
                )
                .map_err(err)
            })
            .collect()
    }
}

// One value per run: the size difference between variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum End {
    Wire {
        daemon: Collectd,
        link: Link,
        /// Sessions dialled during set-up, used by the first round.
        pending: Option<Vec<NetSink>>,
    },
    InProcess {
        pipeline: IngestPipeline,
        handle: IngestHandle,
    },
}

/// A started system: the client pool plus its collection end.
pub struct Rig {
    pub pool: ClientPool,
    /// Registry of the pool and the client-side sockets.
    pub client_obs: MetricsRegistry,
    /// Registry of the ingest pipeline (and the daemon, on the wire).
    pub server_obs: MetricsRegistry,
    threads: usize,
    end: End,
}

impl Rig {
    /// Set-up: builds the pool, starts the daemon or pipeline, and on the
    /// wire dials the first round's sessions. `dir` holds a durable
    /// daemon's checkpoints and must be fresh.
    pub fn start(w: Workload, pool_seed: u64, threads: usize, dir: &Path) -> Result<Rig, String> {
        let client_obs = MetricsRegistry::new();
        let server_obs = MetricsRegistry::new();
        let pool = new_pool(w, pool_seed, w.n, &client_obs)?;
        let end = match w.transport {
            Transport::Wire {
                durable,
                checkpoint_every,
            } => {
                let mut dc = DaemonConfig::new(w.method, w.k, EPS_INF, w.eps_first());
                dc.workers = threads;
                dc.checkpoint_every = checkpoint_every;
                dc.dir = durable.then(|| dir.to_path_buf());
                let daemon = Collectd::start(dc, &server_obs).map_err(err)?;
                let dim = ShardedAggregator::for_method_obs(
                    w.method,
                    w.k,
                    EPS_INF,
                    w.eps_first(),
                    1,
                    &MetricsRegistry::disabled(),
                )
                .map_err(err)?
                .dim() as u64;
                let link = Link {
                    addr: daemon.local_addr(),
                    w,
                    dim,
                    fingerprint: daemon.fingerprint(),
                };
                let pending = Some(link.connect(threads, &client_obs)?);
                End::Wire {
                    daemon,
                    link,
                    pending,
                }
            }
            Transport::InProcess => {
                let pipeline = IngestPipeline::for_method_obs(
                    w.method,
                    w.k,
                    EPS_INF,
                    w.eps_first(),
                    threads,
                    &server_obs,
                )
                .map_err(err)?;
                let handle = pipeline.handle();
                End::InProcess { pipeline, handle }
            }
        };
        Ok(Rig {
            pool,
            client_obs,
            server_obs,
            threads,
            end,
        })
    }

    /// Starts a new epoch: a fresh pool from the same seed, so the next
    /// rounds replay the first epoch exactly.
    pub fn new_epoch(&mut self, w: Workload, pool_seed: u64) -> Result<(), String> {
        // Empty the old pool first so two full pools never coexist.
        self.pool = new_pool(w, pool_seed, 0, &self.client_obs)?;
        self.pool = new_pool(w, pool_seed, w.n, &self.client_obs)?;
        Ok(())
    }

    /// Runs one closed-loop collection round over `values`.
    pub fn round(&mut self, values: &[u64], round: u64, tap: &mut Tap) -> Result<RoundOut, String> {
        let t0 = Instant::now();
        let root = match tap {
            Tap::Trace(log) => log.open(round),
            _ => 0,
        };
        let out = match &mut self.end {
            End::Wire { link, pending, .. } => {
                let c0 = span_start(tap);
                let sinks = match pending.take() {
                    Some(sinks) => sinks,
                    None => link.connect(self.threads, &self.client_obs)?,
                };
                span_end(tap, "netd.connect", round, root, c0);
                let mut sinks =
                    sanitize(&mut self.pool, values, sinks, tap, round, root, "netd.sink")?;
                let e0 = span_start(tap);
                let outcome = sinks[0].end_round(round).map_err(err)?;
                let wall = t0.elapsed();
                span_end(tap, "netd.end_round", round, root, e0);
                RoundOut {
                    reports: outcome.reports,
                    estimate: outcome.estimate,
                    wall,
                    acked: sinks.iter().map(NetSink::reports_acked).sum(),
                    frames: sinks.iter().map(NetSink::frames_acked).sum(),
                }
            }
            End::InProcess { pipeline, handle } => {
                let sinks = (0..self.threads)
                    .map(|_| handle.batching(DEFAULT_BATCH_REPORTS))
                    .collect();
                drop(sanitize(
                    &mut self.pool,
                    values,
                    sinks,
                    tap,
                    round,
                    root,
                    "ingest.submit",
                )?);
                let f0 = span_start(tap);
                let snap = pipeline.finish_round().map_err(err)?;
                let wall = t0.elapsed();
                span_end(tap, "ingest.finish_round", round, root, f0);
                RoundOut {
                    reports: snap.reports,
                    estimate: snap.estimate,
                    wall,
                    acked: snap.reports,
                    frames: 0,
                }
            }
        };
        if let Tap::Trace(log) = tap {
            log.close(root);
        }
        Ok(out)
    }

    /// Drains and joins the daemon (wire) or drops the pipeline.
    pub fn shutdown(self) -> Result<(), String> {
        match self.end {
            End::Wire {
                daemon, pending, ..
            } => {
                drop(pending);
                daemon.trigger_drain();
                daemon.join().map(drop).map_err(err)
            }
            End::InProcess { .. } => Ok(()),
        }
    }
}

/// `n` users of the workload's protocol.
pub fn new_pool(
    w: Workload,
    pool_seed: u64,
    n: usize,
    obs: &MetricsRegistry,
) -> Result<ClientPool, String> {
    let cfg = ClientConfig::for_method(w.method, w.k, EPS_INF, w.eps_first()).map_err(err)?;
    ClientPool::with_obs(cfg, pool_seed, n, obs).map_err(err)
}

fn span_start(tap: &Tap) -> u64 {
    match tap {
        Tap::Trace(log) => log.now(),
        _ => 0,
    }
}

fn span_end(tap: &mut Tap, name: &'static str, round: u64, root: u32, start: u64) {
    if let Tap::Trace(log) = tap {
        log.push(name, round, root, start);
    }
}

/// `ClientPool::sanitize_round_sinks` over `sinks`, wrapped as the tap
/// asks; returns the sinks for the round's closing call.
fn sanitize<S>(
    pool: &mut ClientPool,
    values: &[u64],
    mut sinks: Vec<S>,
    tap: &mut Tap,
    round: u64,
    root: u32,
    call: &'static str,
) -> Result<Vec<S>, String>
where
    S: ReportSink + Send,
    S::Error: Display,
{
    match tap {
        Tap::Plain => {
            pool.sanitize_round_sinks(values, &mut sinks).map_err(err)?;
            Ok(sinks)
        }
        Tap::Trace(log) => {
            let mut timed = log.wrap(sinks);
            pool.sanitize_round_sinks(values, &mut timed).map_err(err)?;
            Ok(timed
                .into_iter()
                .map(|t| log.absorb(t, round, root, call))
                .collect())
        }
        Tap::Capture(kept) => {
            let mut taps: Vec<_> = sinks.into_iter().map(CaptureSink::new).collect();
            pool.sanitize_round_sinks(values, &mut taps).map_err(err)?;
            Ok(taps
                .into_iter()
                .map(|t| {
                    let (inner, got) = t.into_parts();
                    kept.extend(got);
                    inner
                })
                .collect())
        }
    }
}
