//! The metrics registry: named counters, gauges, and histograms with
//! coherent snapshots.
//!
//! A [`Registry`] is a flat list of `(name, labels) → atomic cell`
//! registrations. Registration takes a lock and allocates; it happens
//! once at build time (store/service construction). The handles it
//! returns ([`Counter`], [`Gauge`], [`Hist`]) are `Arc`s over the
//! atomics, so the hot path touches no lock, no map, and no allocator
//! — an increment is exactly one atomic RMW.
//!
//! # Snapshot coherence
//!
//! [`Registry::snapshot`] samples every metric **in registration
//! order** with `Acquire` loads, and [`Counter::add`] publishes with
//! `Release`. That one rule is enough to export pairwise invariants to
//! readers: if the writer maintains `B ≤ A` by bumping `A` before `B`
//! (each call site first does the thing `A` counts, then the thing `B`
//! counts), then registering **`B` before `A`** guarantees every
//! snapshot satisfies `B ≤ A`. The snapshot reads `B = b` first; the
//! Release/Acquire pairing makes the `A`-bumps that preceded those `b`
//! `B`-bumps visible, so the later read of `A` returns at least `b`.
//! The old field-by-field `ServeStats` plumbing had no such ordering
//! and could report `wal_syncs > wal_records`; the registry makes the
//! fix structural rather than per-call-site.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use isi_core::stats::LatencyHist;
use isi_core::sync::MutexExt;

use crate::hist::AtomicHist;

/// Handle to a monotonically increasing `u64` metric.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. `Release` so snapshots can order this against other
    /// metrics (see the module docs).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// Handle to a point-in-time `i64` metric (queue depths, backlog).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Release);
    }

    /// Adjust by a signed delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Release);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Acquire)
    }
}

/// Handle to a log₂-bucketed histogram metric.
#[derive(Clone)]
pub struct Hist(Arc<AtomicHist>);

impl Hist {
    /// Record one sample (nanoseconds).
    #[inline]
    pub fn record(&self, sample: u64) {
        self.0.record(sample);
    }

    /// Reassemble the current distribution.
    pub fn snapshot(&self) -> LatencyHist {
        self.0.snapshot()
    }
}

enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Hist(Arc<AtomicHist>),
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    cell: Cell,
}

/// A build-time list of metrics; see the module docs.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], cell: Cell) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut entries = self.entries.plock("obs registry");
        assert!(
            !entries.iter().any(|e| e.name == name && e.labels == labels),
            "duplicate metric registration: {name} {labels:?}"
        );
        entries.push(Entry {
            name: name.to_string(),
            labels,
            cell,
        });
    }

    /// Register a counter. Panics on a duplicate `(name, labels)` pair
    /// — two call sites silently sharing a metric is a bug, not a
    /// feature. **Registration order is the snapshot read order**; for
    /// a `B ≤ A` invariant register `B` first (module docs).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let cell = Arc::new(AtomicU64::new(0));
        self.register(name, labels, Cell::Counter(Arc::clone(&cell)));
        Counter(cell)
    }

    /// Register a gauge (same duplicate rules as [`Registry::counter`]).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let cell = Arc::new(AtomicI64::new(0));
        self.register(name, labels, Cell::Gauge(Arc::clone(&cell)));
        Gauge(cell)
    }

    /// Register a histogram (same duplicate rules as
    /// [`Registry::counter`]).
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Hist {
        let cell = Arc::new(AtomicHist::new());
        self.register(name, labels, Cell::Hist(Arc::clone(&cell)));
        Hist(cell)
    }

    /// Sample every metric, in registration order, with `Acquire`
    /// loads. See the module docs for the coherence this buys.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.plock("obs registry");
        let samples = entries
            .iter()
            .map(|e| Sample {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: match &e.cell {
                    Cell::Counter(c) => Value::Counter(c.load(Ordering::Acquire)),
                    Cell::Gauge(g) => Value::Gauge(g.load(Ordering::Acquire)),
                    Cell::Hist(h) => Value::Hist(Box::new(h.snapshot())),
                },
            })
            .collect();
        Snapshot { samples }
    }
}

/// One sampled metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: Value,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A sampled metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Counter(u64),
    Gauge(i64),
    // Boxed: a LatencyHist is ~0.5 KiB of buckets, which would bloat
    // every counter/gauge sample in a snapshot to that size.
    Hist(Box<LatencyHist>),
}

/// A point-in-time sample of a whole registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    samples: Vec<Sample>,
}

impl Snapshot {
    /// All samples, in registration order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The sample for an exact `(name, labels)` pair.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Value> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|s| &s.value)
    }

    /// Sum of every counter named `name`, across label sets (e.g. one
    /// `requests` total over all shards).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                Value::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// O(1)-merged union of every histogram named `name` whose labels
    /// all pass `keep`.
    pub fn hist_merged(&self, name: &str, keep: impl Fn(&Sample) -> bool) -> LatencyHist {
        let mut out = LatencyHist::new();
        for s in self.samples.iter().filter(|s| s.name == name) {
            if let Value::Hist(h) = &s.value {
                if keep(s) {
                    out.merge(h);
                }
            }
        }
        out
    }

    /// This snapshot followed by `other`'s samples — for rendering two
    /// subsystems' registries (e.g. a store's and a service's, with
    /// distinct name prefixes) as one exposition. Duplicate
    /// `(name, labels)` pairs are kept verbatim; prefix discipline is
    /// the caller's job.
    pub fn concat(&self, other: &Snapshot) -> Snapshot {
        let mut samples = self.samples.clone();
        samples.extend(other.samples.iter().cloned());
        Snapshot { samples }
    }

    /// Render in the Prometheus text exposition format. Histograms
    /// emit cumulative `_bucket{le=...}` series (only the log₂ bounds
    /// that hold mass), `_sum`, and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !typed.contains(&s.name.as_str()) {
                typed.push(&s.name);
                let kind = match s.value {
                    Value::Counter(_) => "counter",
                    Value::Gauge(_) => "gauge",
                    Value::Hist(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {} {kind}\n", s.name));
            }
            match &s.value {
                Value::Counter(v) => {
                    prom_line(&mut out, &s.name, &s.labels, &[], &v.to_string());
                }
                Value::Gauge(v) => {
                    prom_line(&mut out, &s.name, &s.labels, &[], &v.to_string());
                }
                Value::Hist(h) => {
                    let mut cum = 0u64;
                    for (i, &c) in h.counts().iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        // Bucket i holds samples < 2^i (bucket 0 is the
                        // exact value 0), so the inclusive Prometheus
                        // bound is 2^i - 1.
                        let le = if i == 0 { 0u128 } else { (1u128 << i) - 1 };
                        let name = format!("{}_bucket", s.name);
                        prom_line(
                            &mut out,
                            &name,
                            &s.labels,
                            &[("le", &le.to_string())],
                            &cum.to_string(),
                        );
                    }
                    let name = format!("{}_bucket", s.name);
                    prom_line(
                        &mut out,
                        &name,
                        &s.labels,
                        &[("le", "+Inf")],
                        &cum.to_string(),
                    );
                    let name = format!("{}_sum", s.name);
                    prom_line(&mut out, &name, &s.labels, &[], &h.sum().to_string());
                    let name = format!("{}_count", s.name);
                    prom_line(&mut out, &name, &s.labels, &[], &h.count().to_string());
                }
            }
        }
        out
    }

    /// Render as a JSON document:
    /// `{"metrics": [{"name", "labels": {...}, "type", ...value}]}`.
    /// Histograms carry `count`/`sum`/`min`/`max` and p50/p95/p99.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, &s.name);
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(&mut out, k);
                out.push(':');
                json_string(&mut out, v);
            }
            out.push('}');
            match &s.value {
                Value::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}"));
                }
                Value::Gauge(v) => {
                    out.push_str(&format!(",\"type\":\"gauge\",\"value\":{v}"));
                }
                Value::Hist(h) => {
                    out.push_str(&format!(
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                    ));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn prom_line(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            // Prometheus label escaping: backslash, quote, newline.
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Append `s` as a JSON string literal (quotes included).
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("reqs", &[("shard", "0")]);
        let g = reg.gauge("backlog", &[]);
        c.add(5);
        c.inc();
        g.set(3);
        g.add(-1);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("reqs", &[("shard", "0")]),
            Some(&Value::Counter(6))
        );
        assert_eq!(snap.get("backlog", &[]), Some(&Value::Gauge(2)));
        assert_eq!(snap.counter_sum("reqs"), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate metric registration")]
    fn duplicate_registration_panics() {
        let reg = Registry::new();
        let _a = reg.counter("reqs", &[("shard", "0")]);
        let _b = reg.counter("reqs", &[("shard", "0")]);
    }

    #[test]
    fn same_name_different_labels_is_fine() {
        let reg = Registry::new();
        let a = reg.counter("reqs", &[("shard", "0")]);
        let b = reg.counter("reqs", &[("shard", "1")]);
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter_sum("reqs"), 3);
    }

    #[test]
    fn hist_merged_filters_on_labels() {
        let reg = Registry::new();
        let h0 = reg.hist("lat", &[("shard", "0")]);
        let h1 = reg.hist("lat", &[("shard", "1")]);
        h0.record(10);
        h0.record(20);
        h1.record(1_000_000);
        let snap = reg.snapshot();
        assert_eq!(snap.hist_merged("lat", |_| true).count(), 3);
        let only0 = snap.hist_merged("lat", |s| s.label("shard") == Some("0"));
        assert_eq!(only0.count(), 2);
        assert_eq!(only0.max(), 20);
    }

    #[test]
    fn prometheus_render_has_types_labels_and_hist_series() {
        let reg = Registry::new();
        let c = reg.counter("isi_reqs", &[("shard", "0")]);
        let h = reg.hist("isi_lat_ns", &[]);
        c.add(3);
        h.record(0);
        h.record(100);
        h.record(130);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE isi_reqs counter\n"));
        assert!(text.contains("isi_reqs{shard=\"0\"} 3\n"));
        assert!(text.contains("# TYPE isi_lat_ns histogram\n"));
        // value 0 lands in bucket 0 (le="0"); 100 and 130 share the
        // [128, 256) bucket? No: 100 is in [64,128) → le=127, 130 in
        // [128,256) → le=255. Cumulative: 1, 2, 3.
        assert!(text.contains("isi_lat_ns_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("isi_lat_ns_bucket{le=\"127\"} 2\n"));
        assert!(text.contains("isi_lat_ns_bucket{le=\"255\"} 3\n"));
        assert!(text.contains("isi_lat_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("isi_lat_ns_sum 230\n"));
        assert!(text.contains("isi_lat_ns_count 3\n"));
    }

    #[test]
    fn json_render_is_parseable_shape() {
        let reg = Registry::new();
        reg.counter("a\"b", &[("k", "v\\w")]).inc();
        reg.hist("lat", &[]).record(50);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.contains("\"a\\\"b\""));
        assert!(json.contains("\"v\\\\w\""));
        assert!(json.contains("\"type\":\"histogram\""));
        assert!(json.ends_with("]}"));
    }
}
