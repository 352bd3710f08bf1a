//! The resumable experiment runner.
//!
//! [`ExperimentRunner::run`] executes a [`RunnerConfig`]'s accuracy
//! sweep (checkpointed per cell through the `LDHS` store), measures the
//! three hot paths for every configured method, and writes the
//! `BENCH_<host>_<pr>.json` trajectory file described normatively in
//! `docs/BENCH_FORMAT.md`.
//!
//! Resume semantics (asserted by `tests/resume.rs`):
//!
//! * a killed sweep resumes at the next incomplete cell and produces
//!   results **byte-identical** to an uninterrupted run (cells are
//!   deterministic in the config, never in the interruption pattern);
//! * re-invoking a finished run is a no-op: every cell restores from
//!   the checkpoint, and an existing valid trajectory file is left
//!   untouched (its wall-clock throughput numbers stay from the run
//!   that produced it);
//! * a checkpoint written under a different sweep configuration is a
//!   typed `Mismatch`, never silently recomputed or misread.

use crate::bench::{measure_method, measure_net_ingest, MethodThroughput, NetIngest, PathStats};
use crate::checkpoint::{load_progress, save_progress, CellMetrics, SweepProgress};
use crate::config::RunnerConfig;
use crate::grid::{run_cell, CellResult};
use crate::HarnessError;
use ldp_obs::json::{parse, Json};
use ldp_sim::{Method, Summary};
use std::path::PathBuf;

/// Current trajectory-file schema version (`"schema"` field).
pub const BENCH_SCHEMA: u32 = 1;

/// Outcome of the sweep stage.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Every grid cell, in grid order.
    pub cells: Vec<CellResult>,
    /// Cells computed by this invocation.
    pub executed: usize,
    /// Cells restored from the checkpoint.
    pub restored: usize,
}

/// Outcome of a full run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The sweep result.
    pub sweep: SweepOutcome,
    /// Where the trajectory file lives.
    pub bench_path: PathBuf,
    /// Whether this invocation (re)wrote the trajectory file. `false`
    /// means the run was a complete no-op: sweep restored, file valid.
    pub wrote_bench: bool,
}

/// Drives one [`RunnerConfig`] end to end.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    cfg: RunnerConfig,
}

impl ExperimentRunner {
    /// Validates the config and builds a runner for it.
    pub fn new(cfg: RunnerConfig) -> Result<Self, HarnessError> {
        Ok(Self {
            cfg: cfg.validated()?,
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.cfg
    }

    /// Runs (or resumes) the accuracy sweep to completion.
    pub fn run_sweep(&self) -> Result<SweepOutcome, HarnessError> {
        self.sweep_up_to(usize::MAX)
    }

    /// Runs (or resumes) the sweep, computing at most `limit` new cells
    /// this invocation. The kill-and-resume drill in `tests/resume.rs`
    /// and operational splitting of long sweeps both use this; the
    /// checkpoint is saved after every cell either way.
    pub fn sweep_up_to(&self, limit: usize) -> Result<SweepOutcome, HarnessError> {
        let datasets = self.cfg.datasets()?;
        let fingerprint = self.cfg.fingerprint();
        let ckpt_path = self.cfg.checkpoint_path();

        // Grid identity, in the fixed sweep order.
        let mut identity: Vec<(usize, Method, f64, f64)> = Vec::new();
        for (di, _) in datasets.iter().enumerate() {
            for &method in &self.cfg.methods {
                for &eps_inf in &self.cfg.eps_grid {
                    for &alpha in &self.cfg.alphas {
                        identity.push((di, method, eps_inf, alpha));
                    }
                }
            }
        }
        let total = u32::try_from(identity.len())
            .map_err(|_| HarnessError::Config("grid exceeds u32 cells".to_string()))?;

        let mut progress = match load_progress(&ckpt_path, fingerprint)? {
            Some(p) => {
                if p.total != total {
                    // The fingerprint pins the grid, so this is
                    // unreachable without a hand-edited file; keep it a
                    // typed error rather than an assert.
                    return Err(HarnessError::Config(format!(
                        "checkpoint grid size {} does not match configured grid {total}",
                        p.total
                    )));
                }
                p
            }
            None => SweepProgress {
                total,
                cells: Vec::new(),
            },
        };

        let restored = progress.cells.len();
        let mut executed = 0usize;
        while progress.cells.len() < identity.len() && executed < limit {
            let (di, method, eps_inf, alpha) = identity[progress.cells.len()];
            let cell = run_cell(
                datasets[di].as_ref(),
                method,
                eps_inf,
                alpha,
                self.cfg.runs,
                self.cfg.threads,
                self.cfg.seed,
                self.cfg.pair_methods,
            );
            progress.cells.push(CellMetrics::of(&cell));
            save_progress(&ckpt_path, fingerprint, &progress)?;
            executed += 1;
        }

        // Reattach identity to the (restored + fresh) metric prefix.
        let cells = identity
            .iter()
            .zip(&progress.cells)
            .map(|(&(di, method, eps_inf, alpha), m)| CellResult {
                dataset: datasets[di].name().to_string(),
                method,
                eps_inf,
                alpha,
                mse: m.mse,
                eps_avg: m.eps_avg,
                detection: m.detection,
                reduced_domain: m.reduced_domain,
            })
            .collect();
        Ok(SweepOutcome {
            cells,
            executed,
            restored,
        })
    }

    /// Full run: sweep (resumable), throughput, trajectory file. A rerun
    /// over a finished sweep with a valid trajectory file on disk is a
    /// no-op.
    pub fn run(&self) -> Result<RunOutcome, HarnessError> {
        let sweep = self.run_sweep()?;
        let bench_path = self.cfg.bench_path();

        if sweep.executed == 0 {
            if let Ok(text) = std::fs::read_to_string(&bench_path) {
                if parse(&text).as_ref().map(validate_bench) == Ok(Ok(())) {
                    return Ok(RunOutcome {
                        sweep,
                        bench_path,
                        wrote_bench: false,
                    });
                }
            }
        }

        let mut throughput = Vec::with_capacity(self.cfg.methods.len());
        for &method in &self.cfg.methods {
            throughput.push(measure_method(
                method,
                self.cfg.bench_users,
                self.cfg.bench_samples,
                self.cfg.threads.max(1),
                self.cfg.seed,
            )?);
        }

        // The wire path is opt-in (`net_ingest = true`): it binds a real
        // loopback listener per method. One full round per timing sample
        // keeps its wall-clock comparable to the in-process paths.
        let net = if self.cfg.net_ingest {
            let mut rows = Vec::with_capacity(self.cfg.methods.len());
            for &method in &self.cfg.methods {
                rows.push(measure_net_ingest(
                    method,
                    self.cfg.bench_users,
                    self.cfg.bench_samples as u64,
                    self.cfg.threads.max(1),
                    self.cfg.seed,
                )?);
            }
            Some(rows)
        } else {
            None
        };

        let doc = self.bench_json(&sweep.cells, &throughput, net.as_deref());
        validate_bench(&doc).map_err(HarnessError::Json)?;
        let text = doc.to_pretty();
        ldp_primitives::codec::write_atomic(&bench_path, text.as_bytes())
            .map_err(|e| HarnessError::Io(format!("{}: {e}", bench_path.display())))?;
        Ok(RunOutcome {
            sweep,
            bench_path,
            wrote_bench: true,
        })
    }

    /// Builds the trajectory document (`docs/BENCH_FORMAT.md`).
    fn bench_json(
        &self,
        cells: &[CellResult],
        throughput: &[MethodThroughput],
        net: Option<&[NetIngest]>,
    ) -> Json {
        let cfg = &self.cfg;
        let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        let config = Json::Obj(vec![
            ("name".into(), Json::Str(cfg.name.clone())),
            (
                "dataset".into(),
                cfg.dataset.clone().map_or(Json::Null, Json::Str),
            ),
            (
                "methods".into(),
                Json::Arr(
                    cfg.methods
                        .iter()
                        .map(|m| Json::Str(m.name().to_string()))
                        .collect(),
                ),
            ),
            (
                "eps_grid".into(),
                Json::Arr(cfg.eps_grid.iter().map(|&e| Json::Num(e)).collect()),
            ),
            (
                "alphas".into(),
                Json::Arr(cfg.alphas.iter().map(|&a| Json::Num(a)).collect()),
            ),
            ("runs".into(), Json::U64(cfg.runs as u64)),
            ("n_frac".into(), Json::Num(cfg.n_frac)),
            ("tau_frac".into(), Json::Num(cfg.tau_frac)),
            // u64 seeds can exceed f64's integer range; a decimal string
            // is lossless.
            ("seed".into(), Json::Str(cfg.seed.to_string())),
            ("pair_methods".into(), Json::Bool(cfg.pair_methods)),
            ("bench_users".into(), Json::U64(cfg.bench_users as u64)),
            ("bench_samples".into(), Json::U64(cfg.bench_samples as u64)),
            ("net_ingest".into(), Json::Bool(cfg.net_ingest)),
        ]);
        let throughput = Json::Arr(
            throughput
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let mut row = vec![
                        ("method".into(), Json::Str(t.method.name().to_string())),
                        ("sanitize".into(), path_json(&t.sanitize)),
                        ("ingest".into(), path_json(&t.ingest)),
                        ("ingest_noobs".into(), path_json(&t.ingest_noobs)),
                        (
                            "obs".into(),
                            Json::Obj(vec![
                                ("reports_routed".into(), Json::U64(t.obs.reports_routed)),
                                ("send_blocked".into(), Json::U64(t.obs.send_blocked)),
                                ("send_blocked_ns".into(), Json::U64(t.obs.send_blocked_ns)),
                                ("batches_flushed".into(), Json::U64(t.obs.batches_flushed)),
                                ("batched_reports".into(), Json::U64(t.obs.batched_reports)),
                                ("bufpool_hits".into(), Json::U64(t.obs.bufpool_hits)),
                                ("bufpool_misses".into(), Json::U64(t.obs.bufpool_misses)),
                                ("overhead_pct".into(), Json::Num(t.obs_overhead_pct())),
                            ]),
                        ),
                        ("estimate".into(), path_json(&t.estimate)),
                    ];
                    if let Some(n) = net.and_then(|rows| rows.get(i)) {
                        row.push(("net_ingest".into(), net_json(n)));
                    }
                    Json::Obj(row)
                })
                .collect(),
        );
        let accuracy = Json::Arr(cells.iter().map(cell_json).collect());
        Json::Obj(vec![
            ("schema".into(), Json::U64(u64::from(BENCH_SCHEMA))),
            ("suite".into(), Json::Str("loloha".into())),
            ("host".into(), Json::Str(cfg.host.clone())),
            ("pr".into(), Json::U64(u64::from(cfg.pr))),
            ("hardware_threads".into(), Json::U64(hardware_threads)),
            ("config".into(), config),
            ("throughput".into(), throughput),
            ("accuracy".into(), accuracy),
        ])
    }
}

fn net_json(n: &NetIngest) -> Json {
    Json::Obj(vec![
        ("users".into(), Json::U64(n.users as u64)),
        ("rounds".into(), Json::U64(n.rounds)),
        ("frames".into(), Json::U64(n.frames)),
        ("reports".into(), Json::U64(n.reports)),
        ("retries".into(), Json::U64(n.retries)),
        ("elapsed_ns".into(), Json::Num(n.elapsed.as_nanos() as f64)),
        ("reports_per_sec".into(), Json::Num(n.reports_per_sec)),
    ])
}

fn path_json(p: &PathStats) -> Json {
    let ns = |d: std::time::Duration| Json::Num(d.as_nanos() as f64);
    Json::Obj(vec![
        (
            "reports_per_iter".into(),
            Json::U64(p.reports_per_iter as u64),
        ),
        ("iters".into(), Json::U64(p.stats.iters as u64)),
        ("warmup_iters".into(), Json::U64(p.warmup_iters as u64)),
        ("min_ns".into(), ns(p.stats.min)),
        ("median_ns".into(), ns(p.stats.median)),
        ("mean_ns".into(), ns(p.stats.mean)),
        ("p90_ns".into(), ns(p.stats.p90)),
        ("reports_per_sec".into(), Json::Num(p.reports_per_sec())),
    ])
}

fn summary_json(s: &Summary) -> (Json, Json) {
    // NaN means "not comparable" (dBitFlipPM with b < k); Json::Num
    // emits non-finite values as null, which is exactly the schema's
    // convention — no special-casing needed here.
    (Json::Num(s.mean), Json::Num(s.std))
}

fn cell_json(c: &CellResult) -> Json {
    let (mse_mean, mse_std) = summary_json(&c.mse);
    let (eps_mean, eps_std) = summary_json(&c.eps_avg);
    let (det_mean, det_std) = match &c.detection {
        None => (Json::Null, Json::Null),
        Some(d) => summary_json(d),
    };
    Json::Obj(vec![
        ("dataset".into(), Json::Str(c.dataset.clone())),
        ("method".into(), Json::Str(c.method.name().to_string())),
        ("eps_inf".into(), Json::Num(c.eps_inf)),
        ("alpha".into(), Json::Num(c.alpha)),
        ("runs".into(), Json::U64(c.mse.runs as u64)),
        ("mse_mean".into(), mse_mean),
        ("mse_std".into(), mse_std),
        ("eps_avg_mean".into(), eps_mean),
        ("eps_avg_std".into(), eps_std),
        ("detection_mean".into(), det_mean),
        ("detection_std".into(), det_std),
        (
            "reduced_domain".into(),
            c.reduced_domain
                .map_or(Json::Null, |rd| Json::U64(u64::from(rd))),
        ),
    ])
}

/// Validates a parsed trajectory document against the normative schema
/// (`docs/BENCH_FORMAT.md`). Returns the first violation found.
pub fn validate_bench(doc: &Json) -> Result<(), String> {
    let need = |obj: &Json, key: &str| -> Result<Json, String> {
        obj.get(key)
            .cloned()
            .ok_or_else(|| format!("missing key `{key}`"))
    };
    let need_num = |obj: &Json, key: &str| -> Result<f64, String> {
        need(obj, key)?
            .as_f64()
            .ok_or_else(|| format!("`{key}` must be a number"))
    };
    let need_str = |obj: &Json, key: &str| -> Result<(), String> {
        need(obj, key)?
            .as_str()
            .map(|_| ())
            .ok_or_else(|| format!("`{key}` must be a string"))
    };
    let num_or_null = |obj: &Json, key: &str| -> Result<(), String> {
        match need(obj, key)? {
            Json::U64(_) | Json::Num(_) | Json::Null => Ok(()),
            _ => Err(format!("`{key}` must be a number or null")),
        }
    };

    if need_num(doc, "schema")? != f64::from(BENCH_SCHEMA) {
        return Err(format!("schema must be {BENCH_SCHEMA}"));
    }
    if need(doc, "suite")?.as_str() != Some("loloha") {
        return Err("suite must be \"loloha\"".to_string());
    }
    need_str(doc, "host")?;
    need_num(doc, "pr")?;
    need_num(doc, "hardware_threads")?;

    let config = need(doc, "config")?;
    need_str(&config, "name")?;
    need_str(&config, "seed")?;
    for key in ["runs", "n_frac", "tau_frac", "bench_users", "bench_samples"] {
        need_num(&config, key)?;
    }
    for key in ["methods", "eps_grid", "alphas"] {
        if need(&config, key)?.as_arr().is_none_or(<[Json]>::is_empty) {
            return Err(format!("config.{key} must be a non-empty array"));
        }
    }

    let throughput = need(doc, "throughput")?;
    let rows = throughput.as_arr().ok_or("`throughput` must be an array")?;
    if rows.is_empty() {
        return Err("`throughput` must be non-empty".to_string());
    }
    for row in rows {
        need_str(row, "method")?;
        for path in ["sanitize", "ingest", "estimate"] {
            let p = need(row, path)?;
            for key in [
                "reports_per_iter",
                "iters",
                "min_ns",
                "median_ns",
                "mean_ns",
                "p90_ns",
                "reports_per_sec",
            ] {
                need_num(&p, key).map_err(|e| format!("throughput.{path}: {e}"))?;
            }
            // Optional (files predating the warmup prefix stay valid),
            // but numeric when present.
            if let Some(w) = p.get("warmup_iters") {
                w.as_f64()
                    .ok_or_else(|| format!("throughput.{path}: `warmup_iters` must be a number"))?;
            }
        }
        // Telemetry comparison keys are optional (files predating them
        // stay valid) but must be well-formed when present.
        if let Some(p) = row.get("ingest_noobs") {
            for key in ["reports_per_iter", "iters", "mean_ns", "reports_per_sec"] {
                need_num(p, key).map_err(|e| format!("throughput.ingest_noobs: {e}"))?;
            }
        }
        // The network-ingest section is optional (only runs opted into
        // `net_ingest = true` record it) but fully checked when present.
        if let Some(n) = row.get("net_ingest") {
            for key in [
                "users",
                "rounds",
                "frames",
                "reports",
                "retries",
                "elapsed_ns",
                "reports_per_sec",
            ] {
                need_num(n, key).map_err(|e| format!("throughput.net_ingest: {e}"))?;
            }
        }
        if let Some(o) = row.get("obs") {
            for key in [
                "reports_routed",
                "send_blocked",
                "send_blocked_ns",
                "overhead_pct",
            ] {
                need_num(o, key).map_err(|e| format!("throughput.obs: {e}"))?;
            }
            // Batched-transport keys are optional (older files predate
            // the batching transport) but numeric when present.
            for key in [
                "batches_flushed",
                "batched_reports",
                "bufpool_hits",
                "bufpool_misses",
            ] {
                if let Some(v) = o.get(key) {
                    v.as_f64()
                        .ok_or_else(|| format!("throughput.obs: `{key}` must be a number"))?;
                }
            }
        }
    }

    let accuracy = need(doc, "accuracy")?;
    let cells = accuracy.as_arr().ok_or("`accuracy` must be an array")?;
    if cells.is_empty() {
        return Err("`accuracy` must be non-empty".to_string());
    }
    for cell in cells {
        need_str(cell, "dataset")?;
        need_str(cell, "method")?;
        for key in ["eps_inf", "alpha", "runs", "eps_avg_mean", "eps_avg_std"] {
            need_num(cell, key)?;
        }
        for key in [
            "mse_mean",
            "mse_std",
            "detection_mean",
            "detection_std",
            "reduced_domain",
        ] {
            num_or_null(cell, key)?;
        }
    }
    Ok(())
}

/// Parses and validates trajectory-file text in one step (what the
/// tier-1 schema test and the CI smoke run).
pub fn validate_bench_str(text: &str) -> Result<(), String> {
    validate_bench(&parse(text)?)
}
