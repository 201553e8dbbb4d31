//! E1 — §4's headline claim: "we expect our architecture to outperform a
//! 'one size fits all' system by one-to-two orders of magnitude."
//!
//! Four demo workload classes run twice: once on the engine the polystore
//! picks (specialized), once forced onto a single generic relational engine
//! (the one-size-fits-all deployment). Same data, same answers.

use crate::experiments::{fmt_dur, fmt_ratio, Table};
use bigdawg_common::{DataType, Result, Schema, Value};
use bigdawg_kv::TextIndex;
use bigdawg_mimic::WaveformGen;
use bigdawg_relational::Database;
use bigdawg_stream::{Engine, WindowSpec};
use std::time::{Duration, Instant};

/// Result of one workload comparison.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub specialized_engine: &'static str,
    pub specialized: Duration,
    pub one_size: Duration,
}

impl WorkloadResult {
    pub fn speedup(&self) -> f64 {
        self.one_size.as_secs_f64() / self.specialized.as_secs_f64().max(1e-12)
    }
}

/// Run all four workload classes at the given scale.
pub fn run(samples: usize, notes: usize) -> Result<Vec<WorkloadResult>> {
    Ok(vec![
        streaming_workload(samples)?,
        array_workload(samples)?,
        text_workload(notes)?,
        sql_workload()?,
    ])
}

/// W1 — streaming ingest + sliding-window alerting.
/// Specialized: S-Store (incremental windows). One-size: INSERT + windowed
/// re-aggregation query per tuple on the relational engine.
fn streaming_workload(samples: usize) -> Result<WorkloadResult> {
    let wave = WaveformGen::new(7, 1, 125.0, vec![]);
    let data: Vec<f64> = (0..samples).map(|i| wave.sample(i as u64)).collect();

    // specialized
    let mut engine = Engine::new(false);
    engine.create_stream(
        "vitals",
        Schema::from_pairs(&[("ts", DataType::Timestamp), ("hr", DataType::Float)]),
        "ts",
        256,
    )?;
    engine.create_window("vitals", "w", "hr", WindowSpec::sliding(125, 25))?;
    let started = Instant::now();
    for (i, &v) in data.iter().enumerate() {
        engine.ingest("vitals", vec![Value::Timestamp(i as i64), Value::Float(v)])?;
    }
    let specialized = started.elapsed();

    // one size fits all: relational engine doing the same job
    let mut db = Database::new();
    db.execute("CREATE TABLE vitals (ts TIMESTAMP, hr FLOAT)")?;
    db.execute("CREATE INDEX ix_ts ON vitals (ts)")?;
    let started = Instant::now();
    for (i, &v) in data.iter().enumerate() {
        db.execute(&format!("INSERT INTO vitals VALUES ({i}, {v})"))?;
        if i >= 125 && i % 25 == 0 {
            // the windowed aggregate the stream engine maintains for free
            db.query(&format!(
                "SELECT AVG(hr), MIN(hr), MAX(hr) FROM vitals WHERE ts > {}",
                i as i64 - 125
            ))?;
        }
    }
    let one_size = started.elapsed();
    Ok(WorkloadResult {
        name: "streaming ingest + window alerts",
        specialized_engine: "sstore",
        specialized,
        one_size,
    })
}

/// W2 — waveform linear algebra (dot products over windows).
/// Specialized: array engine on dense chunks. One-size: SQL over rows.
fn array_workload(samples: usize) -> Result<WorkloadResult> {
    let wave = WaveformGen::new(7, 2, 125.0, vec![]);
    let data: Vec<f64> = (0..samples).map(|i| wave.sample(i as u64)).collect();

    // specialized: array engine
    let arr = bigdawg_array::Array::from_vector("w", "v", &data, 4096);
    let started = Instant::now();
    let energy =
        bigdawg_array::ops::aggregate_map(&arr, bigdawg_array::AggKind::Sum, |_, v| v[0] * v[0]);
    let smoothed = bigdawg_array::ops::regrid(&arr, &[25], bigdawg_array::AggKind::Avg)?;
    let specialized = started.elapsed();

    // one size: same math in SQL
    let mut db = Database::new();
    db.execute("CREATE TABLE w (i INT, v FLOAT)")?;
    let mut stmt = String::from("INSERT INTO w VALUES ");
    for (i, &v) in data.iter().enumerate() {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, {v})"));
    }
    db.execute(&stmt)?;
    let started = Instant::now();
    let sql_energy = db.query("SELECT SUM(v * v) FROM w")?;
    let _smoothed_sql = db.query("SELECT i - (i % 25), AVG(v) FROM w GROUP BY i - (i % 25)")?;
    let one_size = started.elapsed();

    // same answers
    let a = energy.expect("non-empty");
    let b = sql_energy.rows()[0][0].as_f64()?;
    assert!((a - b).abs() < 1e-6 * a.abs().max(1.0), "engines disagree");
    assert!(smoothed.cell_count() > 0);
    Ok(WorkloadResult {
        name: "waveform linear algebra",
        specialized_engine: "scidb",
        specialized,
        one_size,
    })
}

/// W3 — keyword/phrase text search.
/// Specialized: inverted index. One-size: SQL LIKE scans.
fn text_workload(notes: usize) -> Result<WorkloadResult> {
    let phrases = [
        "patient very sick today started heparin",
        "recovering well tolerating diet",
        "very sick overnight pressors titrated",
        "stable afebrile plan step down",
        "family meeting held condition guarded",
    ];
    let mut ix = TextIndex::new();
    let mut db = Database::new();
    db.execute("CREATE TABLE notes (id INT, body TEXT)")?;
    let mut stmt = String::from("INSERT INTO notes VALUES ");
    for i in 0..notes {
        let body = phrases[i % phrases.len()];
        ix.index_document(i as u64, &format!("p{}", i % 50), 0, body);
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("({i}, '{body}')"));
    }
    db.execute(&stmt)?;

    let queries = 50;
    let started = Instant::now();
    let mut ix_hits = 0usize;
    for _ in 0..queries {
        ix_hits += ix.query("\"very sick\" AND heparin")?.len();
    }
    let specialized = started.elapsed();

    let started = Instant::now();
    let mut sql_hits = 0usize;
    for _ in 0..queries {
        sql_hits += db
            .query("SELECT id FROM notes WHERE body LIKE '%very sick%' AND body LIKE '%heparin%'")?
            .len();
    }
    let one_size = started.elapsed();
    assert_eq!(ix_hits, sql_hits, "both must find the same documents");
    Ok(WorkloadResult {
        name: "text phrase search",
        specialized_engine: "accumulo",
        specialized,
        one_size,
    })
}

/// W4 — plain SQL analytics: the relational engine *is* the right engine,
/// so the polystore routes it there and the ratio is ≈ 1 (a control).
fn sql_workload() -> Result<WorkloadResult> {
    let mut db = Database::new();
    db.execute("CREATE TABLE adm (race TEXT, stay FLOAT)")?;
    let races = ["white", "black", "asian", "hispanic"];
    let mut stmt = String::from("INSERT INTO adm VALUES ");
    for i in 0..5000 {
        if i > 0 {
            stmt.push(',');
        }
        stmt.push_str(&format!("('{}', {})", races[i % 4], (i % 13) as f64));
    }
    db.execute(&stmt)?;
    let started = Instant::now();
    for _ in 0..20 {
        db.query("SELECT race, COUNT(*), AVG(stay) FROM adm GROUP BY race")?;
    }
    let t = started.elapsed();
    Ok(WorkloadResult {
        name: "SQL group-by analytics (control)",
        specialized_engine: "postgres",
        specialized: t,
        one_size: t,
    })
}

/// Render the results.
pub fn table(results: &[WorkloadResult]) -> Table {
    let mut t = Table::new(
        "E1 — specialized engines vs one-size-fits-all (§4)",
        &["workload", "engine", "specialized", "one-size", "speedup"],
    );
    for r in results {
        t.row(&[
            r.name.to_string(),
            r.specialized_engine.to_string(),
            fmt_dur(r.specialized),
            fmt_dur(r.one_size),
            fmt_ratio(r.one_size, r.specialized),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deterministic half of E1: every workload class runs on the
    /// engine the polystore picks and on the one-size engine (the array
    /// and text workloads check the two answers agree), and the control is
    /// the same measurement twice. The ≥ 5× wins are wall-clock ratios —
    /// `experiments --quick e1` asserts them.
    #[test]
    fn specialized_engines_win_decisively() {
        let results = run(4_000, 2_000).unwrap();
        let engines: Vec<&str> = results.iter().map(|r| r.specialized_engine).collect();
        assert_eq!(engines, ["sstore", "scidb", "accumulo", "postgres"]);
        assert!(results.iter().all(|r| !r.specialized.is_zero()));
        let control = results.last().unwrap();
        assert_eq!(control.specialized, control.one_size);
    }
}
