//! Snapshot export: the deterministic JSON document and the text table.
//!
//! The JSON shape is normative in `docs/OBS_FORMAT.md`. Everything here is
//! a pure function of the sampled instrument values plus caller-injected
//! metadata — no wall clock, no host state — so two identical runs export
//! byte-identical documents.

use crate::json::{parse, Json};

/// Snapshot document schema version (`docs/OBS_FORMAT.md`).
pub const OBS_SCHEMA: u64 = 1;

/// The `suite` tag every snapshot carries.
pub const OBS_SUITE: &str = "loloha";

/// The sampled value of one instrument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonic counter.
    Counter(u64),
    /// A last-value-wins gauge.
    Gauge(u64),
    /// A power-of-two histogram: total count, value sum, and the
    /// non-empty `(bucket, hits)` pairs in ascending bucket order
    /// (bucket = bit length of the observed value).
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Non-empty buckets as `(bit_length, hits)`.
        buckets: Vec<(u32, u64)>,
    },
}

impl MetricValue {
    /// The `kind` tag this value serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        }
    }
}

/// One sampled instrument: its key and its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Dotted metric name (`ldp.<crate>.<subsystem>.<name>`).
    pub name: String,
    /// Static label for family members (e.g. a method or envelope kind).
    pub label: Option<String>,
    /// Small-integer index for family members (e.g. a shard number).
    pub index: Option<u32>,
    /// The sampled value.
    pub value: MetricValue,
}

/// A point-in-time copy of a registry, sorted by `(name, label, index)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsSnapshot {
    pub(crate) samples: Vec<MetricSample>,
}

impl ObsSnapshot {
    /// All samples, in export order.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Sum of every counter sample named `name` across all labels and
    /// indexes (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match s.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// Sum of the counter samples named `name` carrying exactly `label`
    /// (0 when absent) — the single-member read for labeled families,
    /// where [`Self::counter_total`] sums the whole family.
    pub fn counter_labeled_total(&self, name: &str, label: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name && s.label.as_deref() == Some(label))
            .filter_map(|s| match s.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// The value of the (unlabeled) gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.label.is_none() && s.index.is_none())
            .and_then(|s| match s.value {
                MetricValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// Total observation count across every histogram sample named `name`.
    pub fn hist_count(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                MetricValue::Histogram { count, .. } => Some(*count),
                _ => None,
            })
            .sum()
    }

    /// Total observed sum across every histogram sample named `name`.
    pub fn hist_sum(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                MetricValue::Histogram { sum, .. } => Some(*sum),
                _ => None,
            })
            .sum()
    }

    /// Serializes the snapshot document (see `docs/OBS_FORMAT.md`).
    ///
    /// `meta` is caller-injected run metadata (source, round, an optional
    /// timestamp string, …) emitted in the given order; the snapshot
    /// itself never reads a clock, so determinism is entirely in the
    /// caller's hands.
    pub fn to_json_string(&self, meta: &[(&str, &str)]) -> String {
        let meta_fields = meta
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v.to_string())))
            .collect();
        let metrics = self.samples.iter().map(sample_json).collect();
        Json::Obj(vec![
            ("schema".into(), Json::U64(OBS_SCHEMA)),
            ("suite".into(), Json::Str(OBS_SUITE.into())),
            ("meta".into(), Json::Obj(meta_fields)),
            ("metrics".into(), Json::Arr(metrics)),
        ])
        .to_pretty()
    }

    /// Renders a human-readable table (the dashboard view): one line per
    /// sample, histograms summarized as `count/sum/avg`.
    pub fn render_text(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for s in &self.samples {
            let mut key = s.name.clone();
            if let Some(label) = &s.label {
                key.push_str(&format!("{{{label}}}"));
            }
            if let Some(index) = s.index {
                key.push_str(&format!("[{index}]"));
            }
            let rendered = match &s.value {
                MetricValue::Counter(v) => format!("{v}"),
                MetricValue::Gauge(v) => format!("{v} (gauge)"),
                MetricValue::Histogram { count, sum, .. } => {
                    let avg = if *count > 0 { sum / count } else { 0 };
                    format!("count={count} sum={sum} avg={avg}")
                }
            };
            rows.push((key, rendered));
        }
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (key, rendered) in rows {
            out.push_str(&format!("{key:<width$}  {rendered}\n"));
        }
        out
    }

    /// Parses a snapshot document back into `(meta, snapshot)`. Strict:
    /// anything `validate_snapshot_str` would reject fails here too.
    pub fn parse_json_str(text: &str) -> Result<(Vec<(String, String)>, Self), String> {
        let doc = parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("missing integer `schema`")?;
        if schema != OBS_SCHEMA {
            return Err(format!("schema {schema}, expected {OBS_SCHEMA}"));
        }
        let suite = doc
            .get("suite")
            .and_then(Json::as_str)
            .ok_or("missing string `suite`")?;
        if suite != OBS_SUITE {
            return Err(format!("suite `{suite}`, expected `{OBS_SUITE}`"));
        }
        let mut meta = Vec::new();
        for (key, value) in doc
            .get("meta")
            .and_then(Json::as_obj)
            .ok_or("missing object `meta`")?
        {
            let value = value
                .as_str()
                .ok_or_else(|| format!("meta `{key}`: values must be strings"))?;
            meta.push((key.clone(), value.to_string()));
        }
        let mut samples = Vec::new();
        for (i, entry) in doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("missing array `metrics`")?
            .iter()
            .enumerate()
        {
            samples.push(parse_sample(entry).map_err(|e| format!("metrics[{i}]: {e}"))?);
        }
        let snapshot = Self { samples };
        snapshot.check_sorted()?;
        Ok((meta, snapshot))
    }

    fn check_sorted(&self) -> Result<(), String> {
        let key = |s: &MetricSample| (s.name.clone(), s.label.clone(), s.index);
        for pair in self.samples.windows(2) {
            if key(&pair[0]) >= key(&pair[1]) {
                return Err(format!(
                    "samples `{}` and `{}` out of (name, label, index) order",
                    pair[0].name, pair[1].name
                ));
            }
        }
        Ok(())
    }
}

fn sample_json(s: &MetricSample) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(s.name.clone())),
        ("kind".to_string(), Json::Str(s.value.kind().into())),
    ];
    if let Some(label) = &s.label {
        fields.push(("label".into(), Json::Str(label.clone())));
    }
    if let Some(index) = s.index {
        fields.push(("index".into(), Json::U64(u64::from(index))));
    }
    match &s.value {
        MetricValue::Counter(v) | MetricValue::Gauge(v) => {
            fields.push(("value".into(), Json::U64(*v)));
        }
        MetricValue::Histogram {
            count,
            sum,
            buckets,
        } => {
            fields.push(("count".into(), Json::U64(*count)));
            fields.push(("sum".into(), Json::U64(*sum)));
            let pairs = buckets
                .iter()
                .map(|&(b, hits)| Json::Arr(vec![Json::U64(u64::from(b)), Json::U64(hits)]))
                .collect();
            fields.push(("buckets".into(), Json::Arr(pairs)));
        }
    }
    Json::Obj(fields)
}

fn parse_sample(entry: &Json) -> Result<MetricSample, String> {
    let name = entry
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing string `name`")?
        .to_string();
    if !name.starts_with("ldp.") {
        return Err(format!("name `{name}` outside the `ldp.` namespace"));
    }
    let kind = entry
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing string `kind`")?;
    let label = match entry.get("label") {
        None => None,
        Some(v) => Some(v.as_str().ok_or("`label` must be a string")?.to_string()),
    };
    let index = match entry.get("index") {
        None => None,
        Some(v) => {
            let raw = v.as_u64().ok_or("`index` must be an integer")?;
            Some(u32::try_from(raw).map_err(|_| "`index` exceeds u32")?)
        }
    };
    let value = match kind {
        "counter" => MetricValue::Counter(
            entry
                .get("value")
                .and_then(Json::as_u64)
                .ok_or("counter: missing integer `value`")?,
        ),
        "gauge" => MetricValue::Gauge(
            entry
                .get("value")
                .and_then(Json::as_u64)
                .ok_or("gauge: missing integer `value`")?,
        ),
        "histogram" => {
            let count = entry
                .get("count")
                .and_then(Json::as_u64)
                .ok_or("histogram: missing integer `count`")?;
            let sum = entry
                .get("sum")
                .and_then(Json::as_u64)
                .ok_or("histogram: missing integer `sum`")?;
            let mut buckets = Vec::new();
            let mut hits_total = 0u64;
            for pair in entry
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or("histogram: missing array `buckets`")?
            {
                let pair = pair.as_arr().ok_or("bucket entries are [bucket, hits]")?;
                let [b, hits] = pair else {
                    return Err("bucket entries are [bucket, hits]".into());
                };
                let b = b.as_u64().ok_or("bucket must be an integer")?;
                if b >= crate::HIST_BUCKETS as u64 {
                    return Err(format!("bucket {b} out of range"));
                }
                let b = u32::try_from(b).map_err(|_| "bucket exceeds u32")?;
                if buckets.last().is_some_and(|&(prev, _)| prev >= b) {
                    return Err("buckets out of ascending order".into());
                }
                let hits = hits.as_u64().ok_or("hits must be an integer")?;
                if hits == 0 {
                    return Err("empty buckets must be omitted".into());
                }
                hits_total += hits;
                buckets.push((b, hits));
            }
            if hits_total != count {
                return Err(format!(
                    "bucket hits sum to {hits_total} but `count` is {count}"
                ));
            }
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            }
        }
        other => return Err(format!("unknown kind `{other}`")),
    };
    Ok(MetricSample {
        name,
        label,
        index,
        value,
    })
}

/// Validates a snapshot document against the `docs/OBS_FORMAT.md` schema;
/// `Err` names the first violation.
pub fn validate_snapshot_str(text: &str) -> Result<(), String> {
    ObsSnapshot::parse_json_str(text).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRegistry, Span};

    /// Drives a registry through a fixed, deterministic update sequence.
    fn exercise(reg: &MetricsRegistry) {
        reg.counter("ldp.test.export.reports").inc_by(40);
        for shard in 0..3u32 {
            reg.counter_indexed("ldp.test.export.routed", shard)
                .inc_by(u64::from(shard) + 1);
        }
        reg.counter_labeled("ldp.test.export.env", "report").inc();
        reg.gauge("ldp.test.export.depth").set(9);
        let h = reg.histogram_labeled("ldp.test.export.lat_ns", "BiLOLOHA");
        for v in [0, 1, 7, 1024, 1024] {
            h.record(v);
        }
    }

    #[test]
    fn export_is_byte_identical_across_identical_runs() {
        let meta = [("source", "unit"), ("round", "3")];
        let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
        exercise(&a);
        exercise(&b);
        let (a, b) = (
            a.snapshot().to_json_string(&meta),
            b.snapshot().to_json_string(&meta),
        );
        assert_eq!(a, b);
        validate_snapshot_str(&a).expect("exporter emits valid documents");
    }

    #[test]
    fn export_roundtrips_through_the_parser() {
        let reg = MetricsRegistry::new();
        exercise(&reg);
        let snap = reg.snapshot();
        let text = snap.to_json_string(&[("source", "unit")]);
        let (meta, back) = ObsSnapshot::parse_json_str(&text).unwrap();
        assert_eq!(meta, vec![("source".to_string(), "unit".to_string())]);
        assert_eq!(back, snap);
        assert_eq!(back.counter_total("ldp.test.export.routed"), 6);
        assert_eq!(back.gauge("ldp.test.export.depth"), Some(9));
        assert_eq!(back.hist_count("ldp.test.export.lat_ns"), 5);
        assert_eq!(back.hist_sum("ldp.test.export.lat_ns"), 2056);
    }

    #[test]
    fn snapshot_body_carries_no_wall_clock() {
        // The only timing source in the crate is `Span`, which records
        // *durations*; the document text contains no timestamp unless the
        // caller injects one into `meta`.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ldp.test.export.span_ns");
        drop(Span::enter(&h));
        let text = reg.snapshot().to_json_string(&[]);
        assert!(!text.contains("timestamp"));
        let with_meta = reg
            .snapshot()
            .to_json_string(&[("timestamp", "2026-08-08T00:00:00Z")]);
        assert!(with_meta.contains("\"timestamp\": \"2026-08-08T00:00:00Z\""));
    }

    #[test]
    fn render_text_lists_every_sample() {
        let reg = MetricsRegistry::new();
        exercise(&reg);
        let text = reg.snapshot().render_text();
        assert_eq!(text.lines().count(), reg.snapshot().samples().len());
        assert!(text.contains("ldp.test.export.routed[1]"));
        assert!(text.contains("ldp.test.export.lat_ns{BiLOLOHA}"));
        assert!(text.contains("count=5"));
    }

    #[test]
    fn validator_rejects_schema_violations() {
        let good = {
            let reg = MetricsRegistry::new();
            exercise(&reg);
            reg.snapshot().to_json_string(&[])
        };
        validate_snapshot_str(&good).unwrap();
        for (bad, why) in [
            (good.replace("\"schema\": 1", "\"schema\": 2"), "schema"),
            (good.replace("loloha", "other"), "suite"),
            (good.replace("ldp.test", "raw.test"), "namespace"),
            (
                good.replace("\"kind\": \"gauge\"", "\"kind\": \"dial\""),
                "kind",
            ),
            (good.replace("\"count\": 5", "\"count\": 6"), "bucket sum"),
            // Snapshots are integer-only: the parser reads these as
            // numbers or booleans, and the validator rejects them.
            (good.replace("\"count\": 5", "\"count\": -5"), "negative"),
            (good.replace("\"count\": 5", "\"count\": 5.5"), "fraction"),
            (good.replace("\"count\": 5", "\"count\": 5e0"), "exponent"),
            (good.replace("\"count\": 5", "\"count\": true"), "boolean"),
            (
                good.replace("\"schema\": 1", "\"schema\": 1.0"),
                "float schema",
            ),
        ] {
            assert!(validate_snapshot_str(&bad).is_err(), "{why} should fail");
        }
        // Out-of-order samples are rejected even when each is well-formed.
        let (_, snap) = ObsSnapshot::parse_json_str(&good).unwrap();
        let mut reversed = snap.clone();
        reversed.samples.reverse();
        let text = reversed.to_json_string(&[]);
        assert!(ObsSnapshot::parse_json_str(&text).is_err());
    }
}
