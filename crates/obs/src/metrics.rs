//! Metrics registry: counters, log-bucketed histograms, and a JSON
//! exporter.
//!
//! No external serialization crates are available in this build
//! environment, so the exporter emits JSON by hand from a tiny value
//! tree. All hot-path instruments ([`LogHistogram`], counters) are
//! allocation-free atomics; building the registry/report is the cold
//! path.

use std::sync::atomic::{AtomicU64, Ordering};

use dcas::StrategyStats;
use dcas_workstealing::SchedStats;

/// Number of power-of-two buckets in a [`LogHistogram`] (covers the full
/// `u64` range).
pub const HIST_BUCKETS: usize = 65;

/// A lock-free histogram with power-of-two buckets: bucket `0` counts
/// zeros, bucket `i >= 1` counts values whose highest set bit is `i-1`
/// (i.e. `2^(i-1) <= v < 2^i`). Suited to latency distributions spanning
/// many orders of magnitude.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0u64; HIST_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot (relaxed reads; approximate while
    /// writers run).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of a [`LogHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`LogHistogram`] for the bucket rule).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count != 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`), `None` when empty. Log-bucketed, so correct to within
    /// a factor of two.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 });
            }
        }
        Some(self.max)
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }
}

/// A JSON value tree for the exporter.
#[derive(Debug, Clone)]
pub enum Json {
    /// An unsigned integer.
    U64(u64),
    /// A float (emitted with enough precision to round-trip ratios).
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered object.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    fn write(&self, out: &mut String, indent: usize) {
        use std::fmt::Write as _;
        match self {
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.6}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    for _ in 0..indent + 2 {
                        out.push(' ');
                    }
                    let _ = write!(out, "\"{k}\": ");
                    v.write(out, indent + 2);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                for _ in 0..indent {
                    out.push(' ');
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out, indent);
                }
                out.push(']');
            }
        }
    }

    /// Renders the tree as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }
}

/// An ordered collection of named metric sections, exportable as JSON.
///
/// Sections are plain `Json` objects; convenience methods ingest the
/// workspace's stats types ([`StrategyStats`], [`SchedStats`],
/// histogram snapshots) through their stable `fields()` iteration
/// surfaces.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    sections: Vec<(String, Json)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a section of plain counters.
    pub fn counters(&mut self, section: &str, fields: &[(&str, u64)]) -> &mut Self {
        self.sections.push((
            section.to_string(),
            Json::Obj(fields.iter().map(|&(k, v)| (k.to_string(), Json::U64(v))).collect()),
        ));
        self
    }

    /// Adds a DCAS strategy's counters (plus derived rates) as a section.
    pub fn strategy_stats(&mut self, section: &str, s: &StrategyStats) -> &mut Self {
        let mut fields: Vec<(String, Json)> =
            s.fields().iter().map(|&(k, v)| (k.to_string(), Json::U64(v))).collect();
        for (name, rate) in [
            ("dcas_failure_rate", s.failure_rate()),
            ("descriptor_reuse_rate", s.reuse_rate()),
            ("elim_hit_rate", s.elim_hit_rate()),
        ] {
            if let Some(r) = rate {
                fields.push((name.to_string(), Json::F64(r)));
            }
        }
        self.sections.push((section.to_string(), Json::Obj(fields)));
        self
    }

    /// Adds a work-stealing scheduler run's counters as a section.
    pub fn sched_stats(&mut self, section: &str, s: &SchedStats) -> &mut Self {
        self.counters(section, &s.fields())
    }

    /// Adds a histogram snapshot as a section: count/sum/mean/max,
    /// a quantile-bound table, and the non-empty log buckets.
    pub fn histogram(&mut self, section: &str, h: &HistogramSnapshot) -> &mut Self {
        let mut fields = vec![
            ("count".to_string(), Json::U64(h.count)),
            ("sum".to_string(), Json::U64(h.sum)),
            ("max".to_string(), Json::U64(h.max)),
        ];
        if let Some(m) = h.mean() {
            fields.push(("mean".to_string(), Json::F64(m)));
        }
        for (label, q) in [("p50_le", 0.5), ("p90_le", 0.9), ("p99_le", 0.99)] {
            if let Some(b) = h.quantile_bound(q) {
                fields.push((label.to_string(), Json::U64(b)));
            }
        }
        fields.push((
            "log2_buckets".to_string(),
            Json::Arr(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(lo, c)| Json::Arr(vec![Json::U64(lo), Json::U64(c)]))
                    .collect(),
            ),
        ));
        self.sections.push((section.to_string(), Json::Obj(fields)));
        self
    }

    /// Adds an arbitrary pre-built section.
    pub fn section(&mut self, name: &str, value: Json) -> &mut Self {
        self.sections.push((name.to_string(), value));
        self
    }

    /// The whole registry as one JSON object.
    pub fn to_json(&self) -> String {
        Json::Obj(self.sections.clone()).to_json()
    }

    /// A compact human-readable rendering (for terminal reports).
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.sections {
            let _ = writeln!(out, "[{name}]");
            if let Json::Obj(fields) = v {
                for (k, fv) in fields {
                    match fv {
                        Json::U64(n) => {
                            let _ = writeln!(out, "  {k:<24} {n}");
                        }
                        Json::F64(f) => {
                            let _ = writeln!(out, "  {k:<24} {f:.4}");
                        }
                        Json::Str(s) => {
                            let _ = writeln!(out, "  {k:<24} {s}");
                        }
                        other => {
                            let _ = writeln!(out, "  {k:<24} {}", other.to_json());
                        }
                    }
                }
            } else {
                let _ = writeln!(out, "  {}", v.to_json());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let h = LogHistogram::new();
        for v in [0u64, 1, 1, 3, 8, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1013);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 2); // the two ones
        assert_eq!(s.buckets[2], 1); // 3
        assert_eq!(s.buckets[4], 1); // 8
        assert_eq!(s.buckets[10], 1); // 1000 (512..1024)
        assert!(s.mean().unwrap() > 168.0);
        // p50 of [0,1,1,3,8,1000] is in the ones bucket (bound 1).
        assert_eq!(s.quantile_bound(0.5), Some(1));
        assert_eq!(s.quantile_bound(1.0), Some(1023));
    }

    #[test]
    fn histogram_full_range() {
        let h = LogHistogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn json_escaping_and_shape() {
        let j = Json::Obj(vec![
            ("a".into(), Json::U64(3)),
            ("b".into(), Json::Str("x\"y\\z\n".into())),
            ("c".into(), Json::Arr(vec![Json::U64(1), Json::F64(0.5)])),
        ]);
        let s = j.to_json();
        assert!(s.contains("\"a\": 3"));
        assert!(s.contains("\\\"y\\\\z\\n"));
        assert!(s.contains("[1, 0.500000]"));
    }

    #[test]
    fn registry_sections_roundtrip() {
        let mut reg = MetricsRegistry::new();
        reg.counters("ops", &[("push_right", 10), ("pop_left", 9)]);
        reg.strategy_stats("dcas", &StrategyStats::default());
        reg.sched_stats("sched", &SchedStats::default());
        let h = LogHistogram::new();
        h.record(100);
        reg.histogram("latency_ns", &h.snapshot());
        let json = reg.to_json();
        for key in ["\"ops\"", "\"dcas\"", "\"sched\"", "\"latency_ns\"", "\"dcas_ops\"", "\"steals\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let pretty = reg.pretty();
        assert!(pretty.contains("[ops]"));
        assert!(pretty.contains("push_right"));
    }
}
