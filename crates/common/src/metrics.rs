//! Counters, gauges, and log2-bucket histograms behind a named registry.
//!
//! The polystore exposes one [`MetricsRegistry`] per federation
//! (`BigDawg::metrics()`). Sample names follow the Prometheus convention —
//! `bigdawg_<subsystem>_<quantity>_<unit|total>` with labels baked into the
//! name via [`labeled`], e.g.
//! `bigdawg_engine_ops_total{engine="postgres",op="read"}` — and
//! [`MetricsRegistry::render_prometheus`] produces a text-format dump.
//!
//! [`Histogram`] is the one latency distribution of the code base — the
//! registry's samples and the monitor's cost model both hold it: 40 log2
//! buckets over microseconds, clamped so every observation lands in exactly
//! one bucket (bucket totals always equal the observation count).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Number of log2 latency buckets, covering ~1µs to ~2^39µs (≈6 days).
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A latency histogram with [`HISTOGRAM_BUCKETS`] log2 buckets over
/// microseconds.
///
/// An observation of `d` lands in bucket `floor(log2(max(µs, 1)))`, clamped
/// to the last bucket. The sum is kept in nanoseconds: the monitor's cost
/// model ranks engines by mean latency, and sub-microsecond shim calls
/// must not all read as zero.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.observe(nanos / 1_000, nanos);
    }

    /// Record one observation given directly in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.observe(micros, micros.saturating_mul(1_000));
    }

    fn observe(&self, micros: u64, nanos: u64) {
        let idx = (micros.max(1).ilog2() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed))
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed) / n)
    }

    /// Approximate quantile (`0.0..=1.0`): the upper bound of the bucket
    /// holding the q-th sample, so `quantile(0.99)` is a p99 estimate
    /// within the 2× bucket width. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let rank = ((q.clamp(0.0, 1.0) * self.count() as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, n) in self.bucket_counts().iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Duration::from_micros(1 << (i + 1)));
            }
        }
        None
    }

    /// Per-bucket counts (bucket `i` covers `[2^i, 2^(i+1))` µs; the last
    /// bucket absorbs everything above).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Bake labels into a sample name:
/// `labeled("x_total", &[("engine", "pg")])` → `x_total{engine="pg"}`.
///
/// Label values are escaped per the Prometheus text exposition format
/// (`\` → `\\`, `"` → `\"`, newline → `\n`) **here**, at name-construction
/// time, so a hostile engine or object name can never corrupt
/// [`MetricsRegistry::render_prometheus`] output — and so every lookup
/// site that rebuilds the same name via `labeled` still finds the sample.
pub fn labeled(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut out = String::with_capacity(family.len() + 16 * labels.len());
    out.push_str(family);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// A named registry of counters, gauges, and histograms.
///
/// Handles are `Arc`-shared: [`MetricsRegistry::counter`] returns the same
/// counter for the same name on every call, creating it on first use.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter registered under `name` (labels included).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The value of the counter registered under `name`, or 0 if it was
    /// never touched.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .read()
            .unwrap()
            .get(name)
            .map(|c| c.value())
            .unwrap_or(0)
    }

    /// Sum of every counter in a family — all samples whose name is exactly
    /// `family` or starts with `family{`.
    pub fn counter_family_total(&self, family: &str) -> u64 {
        self.counters
            .read()
            .unwrap()
            .iter()
            .filter(|(name, _)| {
                name.as_str() == family
                    || (name.starts_with(family) && name[family.len()..].starts_with('{'))
            })
            .map(|(_, c)| c.value())
            .sum()
    }

    /// Render every registered sample in the Prometheus text exposition
    /// format, sorted by name — and with them the one process-wide sample,
    /// `bigdawg_batch_row_views_total` ([`crate::batch::row_views_total`]).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let counters = self.counters.read().unwrap();
        let mut counters: BTreeMap<&str, u64> = (counters.iter())
            .map(|(name, c)| (name.as_str(), c.value()))
            .collect();
        // process-wide, so it lives beside `Batch`, not in any one registry
        counters.insert(
            "bigdawg_batch_row_views_total",
            crate::batch::row_views_total(),
        );
        for (name, value) in counters {
            type_line(&mut out, name, "counter", &mut last_family);
            let _ = writeln!(out, "{name} {value}");
        }
        last_family.clear();
        for (name, g) in self.gauges.read().unwrap().iter() {
            type_line(&mut out, name, "gauge", &mut last_family);
            let _ = writeln!(out, "{name} {}", g.value());
        }
        last_family.clear();
        for (name, h) in self.histograms.read().unwrap().iter() {
            type_line(&mut out, name, "histogram", &mut last_family);
            let mut cumulative = 0u64;
            for (i, bucket) in h.bucket_counts().iter().enumerate() {
                if *bucket == 0 {
                    continue;
                }
                cumulative += bucket;
                let le = 1u128 << (i + 1);
                let _ = writeln!(out, "{} {cumulative}", with_le(name, &le.to_string()));
            }
            let _ = writeln!(out, "{} {}", with_le(name, "+Inf"), h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum().as_micros());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

/// Emit a `# TYPE` comment the first time a family appears.
fn type_line(out: &mut String, name: &str, kind: &str, last_family: &mut String) {
    let family = name.split('{').next().unwrap_or(name);
    if family != last_family {
        let _ = writeln!(out, "# TYPE {family} {kind}");
        last_family.clear();
        last_family.push_str(family);
    }
}

/// Append `le="..."` to a (possibly already labelled) histogram sample name,
/// with the family suffixed `_bucket` as Prometheus expects.
fn with_le(name: &str, le: &str) -> String {
    match name.split_once('{') {
        Some((family, rest)) => format!(
            "{family}_bucket{{{}{}le=\"{le}\"}}",
            &rest[..rest.len() - 1],
            ","
        ),
        None => format!("{name}_bucket{{le=\"{le}\"}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("bigdawg_queries_total");
        c.inc();
        c.add(2);
        assert_eq!(reg.counter_value("bigdawg_queries_total"), 3);
        assert_eq!(reg.counter_value("never_touched"), 0);
        let g = reg.gauge("bigdawg_engines");
        g.set(5);
        g.add(-2);
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn same_name_returns_the_same_counter() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total").inc();
        reg.counter("x_total").inc();
        assert_eq!(reg.counter_value("x_total"), 2);
    }

    #[test]
    fn histogram_buckets_always_sum_to_the_count() {
        let h = Histogram::new();
        for micros in [0u64, 1, 2, 3, 1000, 1_000_000, u64::MAX] {
            h.record_micros(micros);
        }
        h.record(Duration::from_millis(7));
        let total: u64 = h.bucket_counts().iter().sum();
        assert_eq!(total, h.count());
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn histogram_bucketing_matches_the_monitor_shape() {
        let h = Histogram::new();
        h.record_micros(1); // bucket 0
        h.record_micros(1024); // bucket 10
        h.record_micros(u64::MAX); // clamped into the last bucket
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[10], 1);
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn labeled_bakes_labels_into_the_name() {
        assert_eq!(labeled("x_total", &[]), "x_total");
        assert_eq!(
            labeled("x_total", &[("engine", "pg"), ("op", "read")]),
            "x_total{engine=\"pg\",op=\"read\"}"
        );
    }

    #[test]
    fn labeled_escapes_hostile_label_values() {
        // backslash, quote, and newline per the Prometheus text format
        assert_eq!(
            labeled("x_total", &[("engine", "pg\"1\\2\n3")]),
            "x_total{engine=\"pg\\\"1\\\\2\\n3\"}"
        );
        // escaping happens at name-construction time, so a render round-trip
        // stays line-oriented: one sample line, no embedded raw newline
        let reg = MetricsRegistry::new();
        reg.counter(&labeled("ops_total", &[("engine", "evil\"\\\nname")]))
            .add(1);
        let prom = reg.render_prometheus();
        for line in prom.lines().filter(|l| l.contains("ops_total{")) {
            assert!(line.ends_with(" 1"), "corrupted sample line: {line:?}");
            assert!(line.contains("evil\\\"\\\\\\nname"), "bad escape: {line:?}");
        }
        // and the same `labeled` call still finds the sample
        assert_eq!(
            reg.counter_value(&labeled("ops_total", &[("engine", "evil\"\\\nname")])),
            1
        );
    }

    #[test]
    fn family_totals_sum_across_labels() {
        let reg = MetricsRegistry::new();
        reg.counter(&labeled("ops_total", &[("engine", "a")]))
            .add(2);
        reg.counter(&labeled("ops_total", &[("engine", "b")]))
            .add(3);
        reg.counter("ops_total_other").add(100); // different family
        assert_eq!(reg.counter_family_total("ops_total"), 5);
    }

    #[test]
    fn prometheus_dump_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter(&labeled("bigdawg_ops_total", &[("engine", "pg")]))
            .add(4);
        reg.gauge("bigdawg_up").set(1);
        reg.histogram("bigdawg_query_duration_microseconds")
            .record(Duration::from_micros(100));
        let dump = reg.render_prometheus();
        assert!(dump.contains("# TYPE bigdawg_ops_total counter"));
        assert!(dump.contains("bigdawg_ops_total{engine=\"pg\"} 4"));
        assert!(dump.contains("# TYPE bigdawg_up gauge"));
        assert!(dump.contains("bigdawg_up 1"));
        assert!(dump.contains("# TYPE bigdawg_query_duration_microseconds histogram"));
        assert!(dump.contains("bigdawg_query_duration_microseconds_bucket{le=\"128\"} 1"));
        assert!(dump.contains("bigdawg_query_duration_microseconds_bucket{le=\"+Inf\"} 1"));
        assert!(dump.contains("bigdawg_query_duration_microseconds_sum 100"));
        assert!(dump.contains("bigdawg_query_duration_microseconds_count 1"));
    }

    #[test]
    fn labelled_histograms_merge_le_into_the_braces() {
        let reg = MetricsRegistry::new();
        reg.histogram("lat{engine=\"pg\"}")
            .record(Duration::from_micros(3));
        let dump = reg.render_prometheus();
        assert!(
            dump.contains("lat_bucket{engine=\"pg\",le=\"4\"} 1"),
            "got:\n{dump}"
        );
    }
}
