//! Tier-1 gate on the checked-in perf trajectory: every
//! `results/BENCH_<host>_<pr>.json` in the repository must parse and
//! validate against the normative schema (`docs/BENCH_FORMAT.md`) and
//! re-emit byte-for-byte through the shared JSON emitter, and at least
//! one must exist — the trajectory is only reviewable if each PR
//! actually lands its measurement.

use ldp_harness::validate_bench_str;
use ldp_obs::json::parse;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn checked_in_trajectory_files_validate_against_the_schema() {
    let mut seen = 0;
    let mut names: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ directory exists at the repo root")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        let path = results_dir().join(&name);
        let text = std::fs::read_to_string(&path).unwrap();
        validate_bench_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            parse(&text).unwrap().to_pretty(),
            text,
            "{name} does not re-emit byte-for-byte"
        );
        seen += 1;
    }
    assert!(seen >= 1, "at least one BENCH_*.json must be checked in");
}
