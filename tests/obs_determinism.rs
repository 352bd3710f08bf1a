//! Tier-1 determinism pin for the telemetry exporter: two identical
//! collection rounds, run through the full production topology
//! (`ClientPool` → `IngestPipeline` → sharded aggregator) against two
//! independent registries, must export **byte-identical** snapshot JSON.
//!
//! This is what makes `collect --metrics` output diffable across runs
//! and hosts: the snapshot body carries no wall-clock, no hostnames, no
//! iteration-order dependence — durations live only in bucketed
//! histograms, and the exporter is pinned to sorted `(name, label,
//! index)` order. Because wall-clock *durations* differ between the two
//! runs, the test zeroes nothing: it relies on the deterministic parts
//! (counters, gauges, sample counts) dominating the schema, and strips
//! the scheduling-dependent entries — timing histograms and the batch
//! buffer-pool hit/miss split (whether a take finds a recycled buffer
//! depends on how far the shard workers have drained) — the same way an
//! operator diffing two runs would.

use loloha_suite::prelude::*;

/// One full piped round; returns the registry's exported snapshot.
fn run_round(reg: &MetricsRegistry) -> String {
    let k = 32u64;
    let cfg = ClientConfig::for_method(Method::BiLoloha, k, 2.0, 1.0).expect("valid budgets");
    let mut pool = ClientPool::with_obs(cfg, 99, 500, reg).expect("pool");
    let mut pipe =
        IngestPipeline::for_method_obs(Method::BiLoloha, k, 2.0, 1.0, 3, reg).expect("pipeline");
    let values: Vec<u64> = (0..500).map(|u| u % k).collect();
    let handle = pipe.handle();
    pool.sanitize_round(&values, 3, &handle).expect("workers");
    drop(handle);
    let round = pipe.finish_round().expect("workers");
    assert_eq!(round.reports, 500);
    reg.snapshot()
        .to_json_string(&[("source", "obs_determinism")])
}

/// Drops every metric whose value depends on thread scheduling rather
/// than the workload: histograms of wall-clock durations (name ending
/// `_ns`) and the buffer-pool hit/miss split (total takes are
/// deterministic, the hit-vs-miss outcome of each take is a race with
/// the draining shard workers). Everything kept — counters, gauges,
/// report/batch accounting — must not vary at all.
fn strip_timings(json: &str) -> String {
    let mut kept: Vec<&str> = Vec::new();
    let mut skipping = false;
    for line in json.lines() {
        if line.trim_start().starts_with("\"name\"") {
            skipping = line.contains("_ns\"") || line.contains(".bufpool\"");
        }
        // Object boundaries reset the skip at the next sample.
        if line.trim_start().starts_with('{') {
            skipping = false;
            kept.push(line);
            continue;
        }
        if !skipping {
            kept.push(line);
        }
    }
    kept.join("\n")
}

#[test]
fn two_identical_runs_export_byte_identical_snapshots() {
    let a = run_round(&MetricsRegistry::new());
    let b = run_round(&MetricsRegistry::new());
    validate_snapshot_str(&a).expect("run A validates");
    validate_snapshot_str(&b).expect("run B validates");
    assert_eq!(
        strip_timings(&a),
        strip_timings(&b),
        "non-timing telemetry must be byte-identical across identical runs"
    );
}

#[test]
fn exporting_the_same_registry_twice_is_byte_identical() {
    // The stronger form: one registry, two exports — bit-for-bit equal,
    // including every timing histogram. This is the property the
    // per-round atomic rewrite in `collect --metrics` leans on.
    let reg = MetricsRegistry::new();
    let first = run_round(&reg);
    let again = reg
        .snapshot()
        .to_json_string(&[("source", "obs_determinism")]);
    assert_eq!(first, again);
    validate_snapshot_str(&first).expect("validates");
}
