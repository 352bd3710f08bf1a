//! Sharded streaming aggregation runtime.
//!
//! This crate is the architectural seam between the protocol crates
//! (`loloha`, `ldp_longitudinal`) and every front end that collects reports
//! at scale: the simulator (`ldp_sim`), the CLI, the bench harness, and the
//! repository examples all aggregate through one engine.
//!
//! * [`Method`] — the registry of longitudinal protocols served by the
//!   runtime (the paper's §5 evaluation set plus the chaining extensions),
//!   and [`Protocol`], the parameters [`Method::resolve`] turns one into.
//! * [`ShardedAggregator`] — batch/streaming ingestion into per-shard
//!   partial support counts with a deterministic merge: the same reports
//!   produce bit-identical estimates for any shard count, so worker
//!   threads, stream partitions, and single-threaded replays agree exactly.
//!
//! The one-shot path (`begin_round` → fill shards → `finish_round`) backs
//! the paper experiments; the incremental path (`push_report` /
//! `push_batch` + `snapshot`) backs streaming dashboards that need
//! mid-round estimates without closing the collection round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod method;

pub use aggregator::{AggregateSnapshot, Shard, ShardedAggregator};
pub use method::{dbit_buckets, Method, Protocol};
