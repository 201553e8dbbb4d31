//! Experiment implementations — one module per paper artifact/claim.
//!
//! | module | id | reproduces |
//! |---|---|---|
//! | [`fig`] | F1, F2 | Figure 1 (architecture), Figure 2 (SeeDB reversal) |
//! | [`onesize`] | E1 | §4: polystore vs "one size fits all", 1–2 OOM |
//! | [`tupleware_exp`] | E2 | §2.5: compiled ≈100× the Hadoop codeline |
//! | [`streaming`] | E3 | §1.2: tens-of-ms alerts vs ≥1 s micro-batches |
//! | [`cast_exp`] | E4 | §2.1: binary parallel CAST vs file import/export |
//! | [`seedb_exp`] | E5 | §2.2: SeeDB sampling+pruning vs exhaustive |
//! | [`searchlight_exp`] | E6 | §2.2: synopsis speculate+validate vs scan |
//! | [`scalar_exp`] | E7 | §1.1: ScalaR prefetching for interactivity |
//! | [`migration`] | E8 | §2.1: monitor-driven object migration |
//! | [`anomaly_exp`] | E9 | §2.3: real-time arrhythmia alerting |
//! | [`coupling`] | E10 | §2.4: tight vs loose linear-algebra coupling |
//! | [`federation`] | E11 | §2.2: parallel scatter-gather vs serial executor |
//! | [`migration_convergence`] | E12 | §2.1: auto-migration converges a hot workload to near in-process latency |
//! | [`interchange`] | E13 | §2.1: zero-copy columnar interchange vs the file (CSV) baseline |
//! | [`availability`] | E14 | §2.1: availability under a 10% read-fault storm — failover vs fail-fast |
//! | [`tracing_overhead`] | E15 | observability: span pipeline cost on the E11 federation query |
//! | [`result_cache`] | E16 | epoch-validated result cache on a zipfian repeated-query workload |
//! | [`overload`] | E17 | deadline + admission control under a 4× saturating storm: bounded served p99, structured shedding |
//! | [`pushdown`] | E18 | typed-IR rewrite passes: predicate pushdown + projection pruning cut shipped bytes behind the wire |

pub mod anomaly_exp;
pub mod availability;
pub mod cast_exp;
pub mod coupling;
pub mod federation;
pub mod fig;
pub mod interchange;
pub mod migration;
pub mod migration_convergence;
pub mod onesize;
pub mod overload;
pub mod pushdown;
pub mod result_cache;
pub mod scalar_exp;
pub mod searchlight_exp;
pub mod seedb_exp;
pub mod streaming;
pub mod tracing_overhead;
pub mod tupleware_exp;

use std::fmt;
use std::time::Duration;

/// A printable result table (what the paper's demo screens would show).
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, "{h:<w$}  ")?;
        }
        writeln!(f)?;
        for w in &widths {
            write!(f, "{}  ", "-".repeat(*w))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (c, w) in row.iter().zip(&widths) {
                write!(f, "{c:<w$}  ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Format a duration for table cells.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    }
}

/// Speedup ratio cell.
pub fn fmt_ratio(baseline: Duration, fast: Duration) -> String {
    let r = baseline.as_secs_f64() / fast.as_secs_f64().max(1e-12);
    format!("{r:.1}×")
}

/// Byte-count cell with a binary-prefix unit.
pub fn fmt_bytes(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{:.2} MiB", n as f64 / (1u64 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KiB", n as f64 / 1024.0)
    } else {
        format!("{n} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-header"));
    }

    #[test]
    fn duration_formats() {
        assert!(fmt_dur(Duration::from_micros(5)).contains("µs"));
        assert!(fmt_dur(Duration::from_millis(5)).contains("ms"));
        assert!(fmt_dur(Duration::from_secs(5)).contains("s"));
        assert_eq!(
            fmt_ratio(Duration::from_millis(100), Duration::from_millis(10)),
            "10.0×"
        );
    }

    #[test]
    fn byte_formats() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(4096), "4.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
    }
}
