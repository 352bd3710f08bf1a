//! `collectbench`: the round-level benchmark of the LOLOHA collection
//! system (client pool → batched ingest → shards → collectd wire path).
//!
//! ```text
//! cargo run --release --manifest-path collectbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the system up several times (reporting the median), then
//! runs closed-loop collection rounds in epochs (a fresh pool from the same
//! seed, two untimed warm-up rounds) until the timed rounds add up to
//! `--seconds` of wall time, and checks every round's estimate bit for bit
//! against an in-process reference. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates traced and untraced rounds, adds the layer
//! micro-timings, and prints the per-layer metrics. The last line of
//! standard output is one JSON object. See `NOTES.md`.

mod micro;
mod stats;
mod system;
mod trace;
mod workload;

use ldp_datasets::EvolvingData;
use ldp_obs::{MetricsRegistry, ObsSnapshot};
use ldp_runtime::ShardedAggregator;
use micro::Captured;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use system::{Rig, Tap};
use trace::SpanLog;
use workload::{pool_seed, Workload, ALPHA, EPOCH_ROUNDS, EPS_INF, WARMUP_ROUNDS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Where a run keeps its scratch files and the traced run its spans,
/// relative to the directory it is started from.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::find(&args.workload) else {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!("{}-{}", w.name, std::process::id()));
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))
        .and_then(|()| run(&args, w, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        for m in &self.metrics {
            println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".into()
                };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// One collected round.
struct Collected {
    reports: u64,
    acked: u64,
    estimate: Vec<f64>,
}

impl Collected {
    fn same(&self, other: &Collected) -> bool {
        self.reports == other.reports
            && self.acked == other.acked
            && bits_equal(&self.estimate, &other.estimate)
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every epoch replays the first, so the rounds at one epoch position
/// should all be equal. Each position keeps its distinct rounds with a
/// count, and the reference then judges each distinct round once.
#[derive(Default)]
struct Positions {
    variants: Vec<Vec<(Collected, u64)>>,
    rounds: u64,
}

impl Positions {
    fn add(&mut self, pos: usize, got: Collected) {
        self.rounds += 1;
        if pos == self.variants.len() {
            self.variants.push(Vec::new());
        }
        let seen = &mut self.variants[pos];
        match seen.iter_mut().find(|(c, _)| c.same(&got)) {
            Some((_, copies)) => *copies += 1,
            None => seen.push((got, 1)),
        }
    }
}

/// The rounds' inputs, epoch by epoch.
struct Feed {
    w: Workload,
    seed: u64,
    data: Box<dyn EvolvingData>,
    /// Rounds run in the current epoch.
    pos: usize,
}

impl Feed {
    fn new(w: Workload, seed: u64) -> Self {
        Self {
            w,
            seed,
            data: w.dataset(seed),
            pos: 0,
        }
    }

    /// The next round's epoch position and values. Once an epoch is done,
    /// restarts the values and gives `rig` a fresh pool from the same seed.
    fn next(&mut self, rig: &mut Rig) -> Result<(usize, &[u64]), String> {
        if self.pos == EPOCH_ROUNDS {
            rig.new_epoch(self.w, pool_seed(self.seed))?;
            self.data = self.w.dataset(self.seed);
            self.pos = 0;
        }
        self.pos += 1;
        Ok((self.pos - 1, self.data.step()))
    }
}

/// One timed round's end-to-end numbers.
struct Timed {
    wall: Duration,
    /// Host steal during the round, summed over the vCPUs, in seconds.
    steal: f64,
    acked: u64,
    traced: bool,
}

/// Every round run since the first timed one, later warm-ups included:
/// the base of the per-round counter figures.
#[derive(Default)]
struct Window {
    rounds: u64,
    frames: u64,
    acked: u64,
}

fn run(args: &Args, w: Workload, scratch: &Path) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} | {} k={} n={} {:?} | eps_inf={EPS_INF} alpha={ALPHA} | \
         {threads} sanitize threads, {threads} connections / shard workers | \
         epochs of {EPOCH_ROUNDS} rounds, {WARMUP_ROUNDS} untimed | seed {} | {} s | trace {}",
        w.name,
        w.method.name(),
        w.k,
        w.n,
        w.transport,
        args.seed,
        args.seconds,
        args.trace
    );

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let r = Rig::start(
            w,
            pool_seed(args.seed),
            threads,
            &scratch.join(format!("daemon{rep}")),
        )?;
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            rig = Some(r);
        } else {
            r.shutdown()?;
        }
    }
    let mut rig = rig.expect("SETUP_REPS is at least 1");

    let mut feed = Feed::new(w, args.seed);
    let mut log = SpanLog::new();
    let mut seen = Positions::default();
    let mut timed: Vec<Timed> = Vec::new();
    let mut window = Window::default();
    let mut counters: Option<(ObsSnapshot, ObsSnapshot)> = None;
    let mut error = None;
    let budget = Duration::from_secs(args.seconds);
    let mut spent = Duration::ZERO;
    let (steal0, loop_start) = (steal_s(), Instant::now());
    let mut round = 0u64;
    while spent < budget {
        let (pos, values) = feed.next(&mut rig)?;
        let warm = pos < WARMUP_ROUNDS;
        if !warm && counters.is_none() {
            counters = Some((rig.client_obs.snapshot(), rig.server_obs.snapshot()));
        }
        let traced = args.trace && !warm && round % 2 == 1;
        let mut tap = if traced {
            Tap::Trace(&mut log)
        } else {
            Tap::Plain
        };
        let steal_before = steal_s().unwrap_or(0.0);
        match rig.round(values, round, &mut tap) {
            Ok(out) => {
                let steal = steal_s().unwrap_or(0.0) - steal_before;
                if counters.is_some() {
                    window.rounds += 1;
                    window.frames += out.frames;
                    window.acked += out.acked;
                }
                if !warm {
                    spent += out.wall;
                    timed.push(Timed {
                        wall: out.wall,
                        steal,
                        acked: out.acked,
                        traced,
                    });
                }
                seen.add(
                    pos,
                    Collected {
                        reports: out.reports,
                        acked: out.acked,
                        estimate: out.estimate,
                    },
                );
            }
            Err(e) => {
                error = Some(format!("round {round}: {e}"));
                break;
            }
        }
        round += 1;
    }
    let peak_rss_mb = peak_rss_mb()?;
    if let (Some(a), Some(b)) = (steal0, steal_s()) {
        let share = (b - a) / (loop_start.elapsed().as_secs_f64() * threads as f64);
        println!(
            "host steal during the timed rounds: {:.1}% of the vCPUs' time (other tenants' load, not a metric)",
            share * 100.0
        );
    }
    let (c0, s0) = counters.ok_or("no timed round ran")?;
    let (c1, s1) = (rig.client_obs.snapshot(), rig.server_obs.snapshot());

    // The traced run captures one more round's inputs for the layer
    // micro-timings; that round is checked like every other.
    let mut micro = None;
    if args.trace && error.is_none() {
        let (pos, values) = feed.next(&mut rig)?;
        let values = values.to_vec();
        let mut kept = Vec::new();
        match rig.round(&values, round, &mut Tap::Capture(&mut kept)) {
            Ok(out) => {
                let cap = Captured {
                    reports: &kept,
                    estimate: &out.estimate,
                    frames_per_session: out.frames / threads as u64,
                    values: &values,
                };
                micro = Some(micro::run(
                    w,
                    threads,
                    &cap,
                    &mut rig.pool,
                    scratch,
                    &mut log,
                    round,
                )?);
                seen.add(
                    pos,
                    Collected {
                        reports: out.reports,
                        acked: out.acked,
                        estimate: out.estimate,
                    },
                );
            }
            Err(e) => error = Some(format!("round {round}: {e}")),
        }
    }
    rig.shutdown()?;

    // The traced run's reference uses one shard on one thread, which
    // doubles as the `client.sanitize` pass.
    let ref_shards = if args.trace { 1 } else { threads };
    let (wrong, ref_ns) = reference(w, args.seed, ref_shards, &seen.variants)?;
    let attempted = seen.rounds + u64::from(error.is_some());
    let failed = wrong + u64::from(error.is_some());
    if let Some(e) = &error {
        eprintln!("error: {e}");
    }
    if wrong > 0 {
        eprintln!("error: {wrong} round(s) differ from the in-process reference");
    }

    let metrics = match micro {
        _ if !args.trace => end_to_end(&setups, &timed, peak_rss_mb),
        Some(micro) => {
            let counters = Counters { c0, c1, s0, s1 };
            let failed_ratio = failed as f64 / attempted as f64;
            let traced = Traced {
                log: &log,
                micro: &micro,
                counters: &counters,
                timed: &timed,
                window: &window,
            };
            let spans = PathBuf::from(OUT_DIR).join(format!("{}.spans.tsv", w.name));
            std::fs::write(&spans, log.to_tsv())
                .map_err(|e| format!("writing {}: {e}", spans.display()))?;
            per_layer(w, &traced, &ref_ns, failed_ratio)
        }
        None => Vec::new(),
    };
    let finite = !metrics.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    Ok(Report {
        correct: failed == 0 && finite,
        attempted,
        failed,
        metrics,
    })
}

/// Acknowledged reports per second of round wall time.
fn rate<'a>(rounds: impl Iterator<Item = &'a Timed>) -> f64 {
    let (acked, wall) = rounds.fold((0u64, 0f64), |(a, s), t| {
        (a + t.acked, s + t.wall.as_secs_f64())
    });
    acked as f64 / wall
}

/// The untraced run's metrics. Round times are corrected for host steal:
/// each round's wall time less `b` × the CPU time the hypervisor took from
/// this VM during the round, where `b` is the least-squares slope of round
/// wall time on round steal over this run's rounds, clamped to [0, 1].
/// Set-up time is not corrected.
fn end_to_end(setups: &[f64], timed: &[Timed], peak_rss_mb: f64) -> Vec<Metric> {
    let wall: Vec<f64> = timed.iter().map(|t| t.wall.as_secs_f64()).collect();
    let steal: Vec<f64> = timed.iter().map(|t| t.steal).collect();
    let b = stats::slope(&steal, &wall).clamp(0.0, 1.0);
    let ms: Vec<f64> = wall
        .iter()
        .zip(&steal)
        .map(|(w, s)| (w - b * s) * 1e3)
        .collect();
    let acked: u64 = timed.iter().map(|t| t.acked).sum();
    let raw_ms: Vec<f64> = wall.iter().map(|w| w * 1e3).collect();
    let (p, tail, beyond) = stats::tail(&ms);
    println!(
        "timed rounds {} | round_ms.tail is p{p} ({beyond} rounds beyond it) | set-ups {setups:?} s",
        ms.len()
    );
    println!(
        "round times less {b:.3} x host steal; uncorrected: reports_per_s {:.1}, round_ms.p50 {:.3}, round_ms.tail {:.3}",
        rate(timed.iter()),
        stats::median(&raw_ms),
        stats::tail(&raw_ms).1
    );
    vec![
        metric("setup_s", stats::median(setups), "s"),
        metric(
            "reports_per_s",
            acked as f64 * 1e3 / ms.iter().sum::<f64>(),
            "1/s",
        ),
        metric("round_ms.p50", stats::median(&ms), "ms"),
        metric("round_ms.tail", tail, "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Client-side (`c`) and ingest/daemon-side (`s`) registry snapshots at
/// the start and end of the timed rounds.
struct Counters {
    c0: ObsSnapshot,
    c1: ObsSnapshot,
    s0: ObsSnapshot,
    s1: ObsSnapshot,
}

impl Counters {
    fn server(&self, name: &str) -> f64 {
        (self.s1.counter_total(name) - self.s0.counter_total(name)) as f64
    }

    /// (sum, count) of a histogram over the timed rounds.
    fn hist(a: &ObsSnapshot, b: &ObsSnapshot, name: &str) -> (f64, f64) {
        (
            (b.hist_sum(name) - a.hist_sum(name)) as f64,
            (b.hist_count(name) - a.hist_count(name)) as f64,
        )
    }
}

/// What the traced run observed.
struct Traced<'a> {
    log: &'a SpanLog,
    micro: &'a micro::Micro,
    counters: &'a Counters,
    timed: &'a [Timed],
    window: &'a Window,
}

/// The traced run's metrics. Layers the workload bypasses read 0.
fn per_layer(w: Workload, t: &Traced, ref_ns: &[f64], failed_ratio: f64) -> Vec<Metric> {
    let (log, micro, c) = (t.log, t.micro, t.counters);
    let wire = w.is_wire();
    let bd = log.breakdown(if wire { "netd.sink" } else { "ingest.submit" });
    let reports = log.reports as f64;
    let rounds = t.window.rounds as f64;
    let (fill_sum, fill_n) = Counters::hist(&c.s0, &c.s1, "ldp.ingest.pipeline.batch_fill");
    let (blocked_ns, _) = Counters::hist(&c.s0, &c.s1, "ldp.ingest.pipeline.send_blocked_ns");
    let (ack_ns, ack_n) = Counters::hist(&c.c0, &c.c1, "ldp.netd.loadgen.ack_wait_ns");
    let tx_bytes = (c.c1.counter_labeled_total("ldp.netd.bytes", "tx")
        - c.c0.counter_labeled_total("ldp.netd.bytes", "tx")) as f64;
    let (submit_ns, finish_ms) = micro.replay.unwrap_or((
        bd.sink_ns as f64 / reports,
        log.median_ms("ingest.finish_round"),
    ));
    let on_wire = |v: f64| if wire { v } else { 0.0 };
    let sanitize: Vec<f64> = ref_ns
        .iter()
        .skip(WARMUP_ROUNDS)
        .map(|ns| ns / w.n as f64)
        .collect();
    let untraced = rate(t.timed.iter().filter(|r| !r.traced));
    let traced = rate(t.timed.iter().filter(|r| r.traced));
    vec![
        metric(
            "client.sanitize.ns_per_report",
            stats::median(&sanitize),
            "ns",
        ),
        metric(
            "client.self.ns_per_report",
            bd.client_self_ns as f64 / reports,
            "ns",
        ),
        metric(
            "client.support.indices_per_report",
            log.indices as f64 / reports,
            "count",
        ),
        metric(
            "client.sanitize_one.ns_per_call",
            micro.sanitize_one_ns,
            "ns",
        ),
        metric("ingest.submit.ns_per_report", submit_ns, "ns"),
        metric("ingest.batch_fill.mean", ratio(fill_sum, fill_n), "count"),
        metric(
            "ingest.send_blocked",
            c.server("ldp.ingest.pipeline.send_blocked") / rounds,
            "1/round",
        ),
        metric(
            "ingest.send_blocked.ms_per_round",
            blocked_ns / 1e6 / rounds,
            "ms",
        ),
        metric("ingest.finish_round.ms", finish_ms, "ms"),
        metric("runtime.fold.ns_per_report", micro.fold_ns_per_report, "ns"),
        metric("runtime.snapshot.us", micro.snapshot_us, "us"),
        metric(
            "netd.sink.ns_per_report",
            on_wire(bd.sink_ns as f64 / reports),
            "ns",
        ),
        metric("netd.frame.encode_us", micro.encode_us, "us"),
        metric("netd.frame.decode_us", micro.decode_us, "us"),
        metric(
            "netd.bytes_per_report",
            ratio(tx_bytes, t.window.acked as f64),
            "B",
        ),
        metric(
            "netd.frames_per_round",
            t.window.frames as f64 / rounds,
            "1/round",
        ),
        metric(
            "netd.ack_wait.us_per_frame",
            ratio(ack_ns / 1e3, ack_n),
            "us",
        ),
        metric(
            "netd.connect.ms",
            on_wire(log.median_ms("netd.connect")),
            "ms",
        ),
        metric(
            "netd.end_round.ms",
            on_wire(log.median_ms("netd.end_round")),
            "ms",
        ),
        metric(
            "netd.checkpoints_per_round",
            c.server("ldp.netd.checkpoints") / rounds,
            "1/round",
        ),
        metric("netd.checkpoint.bytes", micro.checkpoint_bytes, "B"),
        metric("netd.checkpoint.save_ms", micro.checkpoint_save_ms, "ms"),
        metric("trace.overhead_pct", (1.0 - traced / untraced) * 100.0, "%"),
        metric("trace.unaccounted_share", bd.unaccounted_share, "ratio"),
        metric("failed_ratio", failed_ratio, "ratio"),
    ]
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `a / b`, or 0 when nothing was counted (a layer the workload bypasses).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Replays one epoch through `sanitize_round_into_shards` from a pool
/// with the same seed. Counts the collected rounds whose report count is
/// not `n` or whose estimate differs in any bit, and returns each
/// position's sanitize time in ns.
fn reference(
    w: Workload,
    seed: u64,
    shards: usize,
    variants: &[Vec<(Collected, u64)>],
) -> Result<(u64, Vec<f64>), String> {
    let off = MetricsRegistry::disabled();
    let mut pool = system::new_pool(w, pool_seed(seed), w.n, &off)?;
    let mut agg =
        ShardedAggregator::for_method_obs(w.method, w.k, EPS_INF, w.eps_first(), shards, &off)
            .map_err(system::err)?;
    let mut data = w.dataset(seed);
    let n = w.n as u64;
    let mut wrong = 0;
    let mut ns = Vec::with_capacity(variants.len());
    for seen in variants {
        let values = data.step();
        let t = Instant::now();
        pool.sanitize_round_into_shards(values, agg.shards_mut());
        ns.push(t.elapsed().as_nanos() as f64);
        let want = agg.finish_round();
        for (got, copies) in seen {
            let right = bits_equal(&want.estimate, &got.estimate)
                && want.reports == n
                && got.reports == n
                && got.acked == n;
            if !right {
                wrong += copies;
            }
        }
    }
    Ok((wrong, ns))
}

/// CPU time the hypervisor gave to other guests ("steal"), summed over
/// the machine's CPUs, in seconds (`/proc/stat` counts it in 1/100 s).
fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// The process's peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(system::err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
