//! The traced run's span log. Spans are recorded by the benchmark around
//! its own calls into each layer (no crate carries a span), kept in
//! memory, and written out once at exit.
//!
//! Per round the tree is: `round` → `netd.connect` | `client.worker` (one
//! per sanitize thread) | `netd.end_round` / `ingest.finish_round`, and
//! under each worker the calls into its sink (`netd.sink` /
//! `ingest.submit`). A sink call slower than [`SLOW_CALL_NS`] (a frame or
//! batch flush) is kept as its own span; faster ones (a push into a
//! buffer) are summed into one aggregate row per worker, which keeps the
//! log at a few hundred rows per round instead of one per report. The
//! checkpoint micro-timing adds one root `netd.checkpoint.save` span per
//! `NetStore::save` call.

use ldp_client::ReportSink;
use std::fmt::Write as _;
use std::time::Instant;

/// Sink calls at least this long are kept as individual spans.
const SLOW_CALL_NS: u64 = 2_000;

pub struct Span {
    pub id: u32,
    /// The enclosing span's id, 0 for a root.
    pub parent: u32,
    pub round: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Fast sink calls of one worker in one round, summed.
pub struct Agg {
    pub parent: u32,
    pub round: u64,
    pub name: &'static str,
    pub calls: u64,
    pub ns: u64,
}

/// All spans of a run, in recording order.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    aggs: Vec<Agg>,
    /// Reports and support indices that crossed a timed sink.
    pub reports: u64,
    pub indices: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            aggs: Vec::new(),
            reports: 0,
            indices: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(&mut self, name: &'static str, round: u64, parent: u32, start_ns: u64) -> u32 {
        let end_ns = self.now();
        self.push_at(name, round, parent, start_ns, end_ns)
    }

    fn push_at(
        &mut self,
        name: &'static str,
        round: u64,
        parent: u32,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            round,
            name,
            start_ns: start,
            end_ns: end,
        });
        id
    }

    /// Opens a round's root span; close it with [`SpanLog::close`].
    pub fn open(&mut self, round: u64) -> u32 {
        let start = self.now();
        self.push_at("round", round, 0, start, start)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Wraps one round's sinks; every worker span starts now.
    pub fn wrap<S>(&self, sinks: Vec<S>) -> Vec<TimedSink<S>> {
        let start = self.now();
        sinks
            .into_iter()
            .map(|inner| TimedSink {
                inner,
                epoch: self.epoch,
                start_ns: start,
                end_ns: start,
                slow: Vec::new(),
                fast_calls: 0,
                fast_ns: 0,
                reports: 0,
                indices: 0,
            })
            .collect()
    }

    /// Turns a finished wrapper into a worker span with its sink calls
    /// under it, and hands the inner sink back.
    pub fn absorb<S>(&mut self, t: TimedSink<S>, round: u64, root: u32, call: &'static str) -> S {
        let worker = self.push_at("client.worker", round, root, t.start_ns, t.end_ns);
        for (s, e) in t.slow {
            self.push_at(call, round, worker, s, e);
        }
        self.aggs.push(Agg {
            parent: worker,
            round,
            name: call,
            calls: t.fast_calls,
            ns: t.fast_ns,
        });
        self.reports += t.reports;
        self.indices += t.indices;
        t.inner
    }

    /// Median duration in ms of the spans called `name`, one per round.
    pub fn median_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        crate::stats::median(&ms)
    }

    /// Derives per-layer self times from the span tree.
    pub fn breakdown(&self, call: &str) -> Breakdown {
        let dur = |s: &Span| s.end_ns - s.start_ns;
        let worker_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == "client.worker")
            .map(dur)
            .sum();
        let sink_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == call)
            .map(dur)
            .sum::<u64>()
            + self
                .aggs
                .iter()
                .filter(|a| a.name == call)
                .map(|a| a.ns)
                .sum::<u64>();
        // Round wall not covered by any child of the round's root.
        let mut round_ns = 0u64;
        let mut uncovered_ns = 0u64;
        for root in self.spans.iter().filter(|s| s.name == "round") {
            let mut kids: Vec<(u64, u64)> = self
                .spans
                .iter()
                .filter(|s| s.parent == root.id)
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = root.start_ns;
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            round_ns += dur(root);
            uncovered_ns += dur(root).saturating_sub(covered);
        }
        Breakdown {
            sink_ns,
            client_self_ns: worker_ns.saturating_sub(sink_ns),
            unaccounted_share: uncovered_ns as f64 / round_ns.max(1) as f64,
        }
    }

    /// The log as tab-separated rows: `span id parent round name start_ns
    /// end_ns` and `agg parent round name calls ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("# span\tid\tparent\tround\tname\tstart_ns\tend_ns\n");
        out.push_str("# agg\tparent\tround\tname\tcalls\tns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "span\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.round, s.name, s.start_ns, s.end_ns
            );
        }
        for a in &self.aggs {
            let _ = writeln!(
                out,
                "agg\t{}\t{}\t{}\t{}\t{}",
                a.parent, a.round, a.name, a.calls, a.ns
            );
        }
        out
    }
}

/// Self times summed over every traced round.
pub struct Breakdown {
    /// Time inside the wrapped sink (all workers).
    pub sink_ns: u64,
    /// Worker wall minus time inside the sink (all workers).
    pub client_self_ns: u64,
    /// Share of round wall covered by no child span.
    pub unaccounted_share: f64,
}

/// A [`ReportSink`] that times every call into the sink it wraps.
pub struct TimedSink<S> {
    inner: S,
    epoch: Instant,
    start_ns: u64,
    end_ns: u64,
    slow: Vec<(u64, u64)>,
    fast_calls: u64,
    fast_ns: u64,
    reports: u64,
    indices: u64,
}

impl<S> TimedSink<S> {
    fn note(&mut self, t0: Instant, t1: Instant) {
        let s = t0.duration_since(self.epoch).as_nanos() as u64;
        let e = t1.duration_since(self.epoch).as_nanos() as u64;
        if e - s >= SLOW_CALL_NS {
            self.slow.push((s, e));
        } else {
            self.fast_calls += 1;
            self.fast_ns += e - s;
        }
        self.end_ns = e;
    }
}

impl<S: ReportSink> ReportSink for TimedSink<S> {
    type Error = S::Error;

    fn submit(&mut self, user: u64, support: &[usize]) -> Result<(), S::Error> {
        let t0 = Instant::now();
        let r = self.inner.submit(user, support);
        self.note(t0, Instant::now());
        self.reports += 1;
        self.indices += support.len() as u64;
        r
    }

    fn finish(&mut self) -> Result<(), S::Error> {
        let t0 = Instant::now();
        let r = self.inner.finish();
        self.note(t0, Instant::now());
        r
    }
}
