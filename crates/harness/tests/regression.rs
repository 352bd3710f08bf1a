//! Tier-1 perf-regression gate over the checked-in trajectory.
//!
//! For every host with at least two `results/BENCH_<host>_<pr>.json`
//! files, the two highest PR numbers are compared method by method: the
//! newer file's ingest `reports_per_sec` must not fall below 70% of the
//! older one's. Wall-clock numbers are machine-dependent, but files
//! sharing a host label were produced on comparable hardware — a >30%
//! drop is an actual regression (or a mislabeled host), not noise.

use ldp_obs::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Largest tolerated ingest throughput drop between consecutive
/// trajectory files, as a fraction of the older measurement.
const MAX_REGRESSION: f64 = 0.30;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// `(host, pr, parsed document)` for every checked-in trajectory file.
fn trajectories() -> Vec<(String, u32, Json)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(results_dir()).expect("results/ exists at the repo root") {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(results_dir().join(&name)).unwrap();
        let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let host = doc
            .get("host")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{name}: missing host"))
            .to_string();
        let pr = doc
            .get("pr")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name}: missing pr")) as u32;
        out.push((host, pr, doc));
    }
    out
}

/// Method → ingest `reports_per_sec` for one trajectory document.
fn ingest_rates(doc: &Json) -> BTreeMap<String, f64> {
    doc.get("throughput")
        .and_then(Json::as_arr)
        .expect("throughput array")
        .iter()
        .map(|row| {
            let method = row
                .get("method")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            let rate = row
                .get("ingest")
                .and_then(|p| p.get("reports_per_sec"))
                .and_then(Json::as_f64)
                .expect("ingest.reports_per_sec");
            (method, rate)
        })
        .collect()
}

#[test]
fn ingest_throughput_does_not_regress_between_consecutive_prs() {
    let mut by_host: BTreeMap<String, Vec<(u32, Json)>> = BTreeMap::new();
    for (host, pr, doc) in trajectories() {
        by_host.entry(host).or_default().push((pr, doc));
    }

    let mut compared = 0usize;
    for (host, mut files) in by_host {
        if files.len() < 2 {
            continue;
        }
        files.sort_by_key(|(pr, _)| *pr);
        let (old_pr, old_doc) = &files[files.len() - 2];
        let (new_pr, new_doc) = &files[files.len() - 1];
        let old_rates = ingest_rates(old_doc);
        let new_rates = ingest_rates(new_doc);
        // Only methods measured in both files are comparable; a method
        // added or dropped between PRs is a config change, not a perf
        // signal.
        for (method, &old_rate) in &old_rates {
            let Some(&new_rate) = new_rates.get(method) else {
                continue;
            };
            let floor = old_rate * (1.0 - MAX_REGRESSION);
            assert!(
                new_rate >= floor,
                "{host}: {method} ingest throughput regressed >{}% \
                 between PR {old_pr} ({old_rate:.0} reports/s) and \
                 PR {new_pr} ({new_rate:.0} reports/s; floor {floor:.0})",
                (MAX_REGRESSION * 100.0) as u32,
            );
            compared += 1;
        }
    }
    assert!(
        compared > 0,
        "no host has two comparable trajectory files — the gate must \
         have at least one consecutive-PR pair to check"
    );
}
