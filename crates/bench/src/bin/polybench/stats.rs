//! Numbers the harness needs and the standard library does not give:
//! a seeded generator, a zipfian sampler, percentiles and quartile spread,
//! process CPU time and peak memory, and an order-sensitive batch checksum.

use bigdawg_common::{Batch, ColumnData, Value};

/// SplitMix64: the harness's only source of randomness, so a seed fixes
/// every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipfian ranks `0..n` with weight `1 / (rank + 1)^s`, by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The `p`-th percentile (`0 < p ≤ 100`) by nearest rank of an ascending
/// slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Distance between the first and third quartile as a share of the median,
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them —
/// the spread the benchmark's bounds are stated against. `None` with fewer
/// than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let mid = median(&v)?;
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

/// Kernel clock ticks per second, for `/proc/self/stat`. Asked of `getconf`
/// once; 100 (every mainstream Linux build) when that is unavailable.
fn clock_ticks() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        std::process::Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|t| *t > 0.0)
            .unwrap_or(100.0)
    })
}

/// User + system CPU seconds out of the text of `/proc/<pid>/stat`. The
/// process name (field 2) may hold spaces, so fields count from the last
/// `)`: utime and stime are the 12th and 13th after it.
fn cpu_seconds_from_stat(stat: &str, ticks: f64) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / ticks)
}

/// CPU seconds this process has used so far, over all its threads, exited
/// ones included.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    cpu_seconds_from_stat(&stat, clock_ticks())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

fn mix_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(mix(h, bytes.len() as u64), |h, b| mix(h, u64::from(*b)))
}

fn mix_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => mix(h, 0),
        Value::Bool(b) => mix(mix(h, 1), u64::from(*b)),
        Value::Int(i) => mix(mix(h, 2), *i as u64),
        Value::Float(f) => mix(mix(h, 3), f.to_bits()),
        Value::Text(s) => mix_bytes(mix(h, 4), s.as_bytes()),
        Value::Timestamp(t) => mix(mix(h, 5), *t as u64),
    }
}

/// One cell of a typed column: a NULL must not read as whatever placeholder
/// its slot stores.
fn cell(h: u64, null: bool, value: impl FnOnce(u64) -> u64) -> u64 {
    if null {
        mix(!h, 0)
    } else {
        value(h)
    }
}

/// FNV-style checksum of a batch, sensitive to row order and to which of
/// the columns `skip` leaves in. Read off the typed columns, so checking a
/// large answer never materializes its rows.
pub fn checksum(batch: &Batch, skip: Option<usize>) -> u64 {
    let mut h = mix(0xCBF2_9CE4_8422_2325, batch.len() as u64);
    for (c, col) in batch.columns().iter().enumerate() {
        if skip == Some(c) {
            continue;
        }
        h = mix(h, c as u64);
        let nulls = col.nulls();
        let has_nulls = nulls.any();
        let null = |i: usize| has_nulls && nulls.is_null(i);
        match col.data() {
            ColumnData::Bool(v) => {
                for (i, b) in v.iter().enumerate() {
                    h = cell(h, null(i), |h| mix(h, u64::from(*b)));
                }
            }
            ColumnData::Int(v) | ColumnData::Timestamp(v) => {
                for (i, x) in v.iter().enumerate() {
                    h = cell(h, null(i), |h| mix(h, *x as u64));
                }
            }
            ColumnData::Float(v) => {
                for (i, x) in v.iter().enumerate() {
                    h = cell(h, null(i), |h| mix(h, x.to_bits()));
                }
            }
            ColumnData::Text(v) => {
                for (i, s) in v.iter().enumerate() {
                    h = cell(h, null(i), |h| mix_bytes(h, s.as_bytes()));
                }
            }
            ColumnData::Mixed(v) => {
                for x in v {
                    h = mix_value(h, x);
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdawg_common::{DataType, Schema};

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let spread = quartile_spread(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert!((spread - 3.5 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn zipf_is_deterministic_under_a_seed_and_skewed() {
        let zipf = Zipf::new(64, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(7);
        assert!(ranks.iter().all(|r| *r < 64));
        let top = ranks.iter().filter(|r| **r == 0).count();
        let tail = ranks.iter().filter(|r| **r == 63).count();
        assert!(top > 300 && tail < 40, "top {top}, tail {tail}");
    }

    #[test]
    fn cpu_time_reader_parses_stat_and_moves_forward() {
        let stat =
            "4242 (poly bench) worker) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(cpu_seconds_from_stat(stat, 100.0), Some(3.0));
        assert_eq!(cpu_seconds_from_stat("garbage", 100.0), None);
        let before = process_cpu_seconds().expect("/proc/self/stat is readable");
        let mut x = 0u64;
        while process_cpu_seconds().unwrap() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn checksum_sees_order_values_and_skipped_columns() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Text)]);
        let row = |a: i64, b: &str| vec![Value::Int(a), Value::Text(b.into())];
        let one = Batch::new(schema.clone(), vec![row(1, "x"), row(2, "y")]).unwrap();
        let swapped = Batch::new(schema.clone(), vec![row(2, "y"), row(1, "x")]).unwrap();
        let other = Batch::new(schema, vec![row(1, "x"), row(3, "y")]).unwrap();
        assert_eq!(checksum(&one, None), checksum(&one.clone(), None));
        assert_ne!(checksum(&one, None), checksum(&swapped, None));
        assert_ne!(checksum(&one, None), checksum(&other, None));
        assert_eq!(checksum(&one, Some(0)), checksum(&other, Some(0)));
        // a NULL is not the placeholder its slot stores
        let single = |v: Value| {
            Batch::new(Schema::from_pairs(&[("a", DataType::Int)]), vec![vec![v]]).unwrap()
        };
        assert_ne!(
            checksum(&single(Value::Null), None),
            checksum(&single(Value::Int(0)), None)
        );
    }
}
