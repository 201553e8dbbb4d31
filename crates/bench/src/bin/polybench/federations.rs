//! The federations the workloads run on. They started as copies of
//! `bigdawg_bench::setup::{demo_polystore, hot_object_federation}` and
//! `experiments::pushdown::federation`; the harness owns them so that a
//! later edit to an experiment cannot shift a workload.
//!
//! Data is fixed (the data seed is a constant): `--seed` drives the query
//! text and the operation sequence only, so two seeds measure the same
//! federation.
//!
//! Engine names matter: with several relational engines the RELATIONAL
//! island gathers on the alphabetically first one until the monitor has
//! history, so the gather engine is always named `pg_local` and every other
//! relational engine sorts after it.

use bigdawg_array::Array;
use bigdawg_common::{Batch, Column, DataType, Result, Schema};
use bigdawg_core::shims::{ArrayShim, KvShim, LatencyShim, RelationalShim, TileShim, TupleShim};
use bigdawg_core::{BigDawg, Shim};
use bigdawg_mimic::{generate, MimicConfig, WaveformGen};
use bigdawg_tiledb::{TileDb, TileSchema};
use std::time::Duration;

/// Seed of the synthetic MIMIC data behind `fanout_wire`.
const DATA_SEED: u64 = 42;

/// Rows of the small relational table every federation carries for the
/// write operations: `dim(k INT, w INT)`, `k` in `0..DIM_ROWS`.
pub const DIM_ROWS: i64 = 64;

/// Rows of the `sensors` dimension table of `join_ship`.
pub const SENSORS: i64 = 64;

/// Historical waveforms on the array engine of `fanout_wire`.
pub const WAVEFORMS: u64 = 4;

/// Sizes and wire settings of the federations.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Emulated per-request latency of every remote engine.
    pub wire: Duration,
    /// `fanout_wire`: synthetic patients (rows of `age_stay`, owners of notes).
    pub patients: usize,
    /// `fanout_wire`: samples per historical waveform.
    pub waveform_samples: usize,
    /// `pushdown_scan`: rows of the remote `readings` table.
    pub scan_rows: usize,
    /// `join_ship`: rows of the remote `readings` table.
    pub join_rows: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Self {
        Scale {
            wire: Duration::from_millis(2),
            patients: 2000,
            waveform_samples: 100_000,
            scan_rows: 50_000,
            join_rows: 20_000,
        }
    }

    /// `polybench check` and the unit tests: same shapes, small enough
    /// for a debug build to finish every workload in about a second.
    pub fn tiny() -> Self {
        Scale {
            wire: Duration::from_micros(200),
            patients: 60,
            waveform_samples: 2_000,
            scan_rows: 2_000,
            join_rows: 1_000,
        }
    }
}

fn remote(shim: Box<dyn Shim>, wire: Duration) -> Box<dyn Shim> {
    Box::new(LatencyShim::new(shim, wire))
}

/// A relational engine holding the `dim` table.
fn relational_with_dim(name: &str) -> Result<RelationalShim> {
    let mut pg = RelationalShim::new(name);
    let k: Vec<i64> = (0..DIM_ROWS).collect();
    let w: Vec<i64> = k.iter().map(|k| k % 7).collect();
    pg.load_table(
        "dim",
        Batch::from_columns(
            Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
            vec![Column::from_ints(k), Column::from_ints(w)],
        )?,
    )?;
    Ok(pg)
}

/// `fanout_wire`: the five engines of the E11 query — SciDB, TileDB,
/// Tupleware and Accumulo answer one pushed-down sub-query each, Postgres
/// gathers — every one behind the wire.
pub fn fanout(scale: &Scale) -> Result<BigDawg> {
    let data = generate(&MimicConfig {
        seed: DATA_SEED,
        patients: scale.patients,
        ..MimicConfig::default()
    });
    let mut bd = BigDawg::new();
    bd.add_engine(remote(
        Box::new(relational_with_dim("postgres")?),
        scale.wire,
    ));

    let waves: Vec<WaveformGen> = (0..WAVEFORMS)
        .map(|pid| WaveformGen::new(DATA_SEED, pid, 125.0, Vec::new()))
        .collect();
    let mut scidb = ArrayShim::new("scidb");
    for (pid, wave) in waves.iter().enumerate() {
        let name = format!("waveform_{pid}");
        let samples = wave.window(0, scale.waveform_samples);
        scidb.store(name.clone(), Array::from_vector(name, "v", &samples, 4096));
    }
    bd.add_engine(remote(Box::new(scidb), scale.wire));

    let cols = 256u64;
    let mut tiles = TileDb::new(TileSchema::new(
        "waveform_tiles",
        vec![WAVEFORMS, cols],
        vec![WAVEFORMS, 64],
    )?);
    let step = (scale.waveform_samples as u64 / cols).max(1);
    let cells: Vec<(Vec<i64>, f64)> = waves
        .iter()
        .enumerate()
        .flat_map(|(pid, wave)| {
            (0..cols).map(move |c| (vec![pid as i64, c as i64], wave.sample(c * step)))
        })
        .collect();
    tiles.write(&cells)?;
    let mut tiledb = TileShim::new("tiledb");
    tiledb.store("waveform_tiles", tiles);
    bd.add_engine(remote(Box::new(tiledb), scale.wire));

    let mut tupleware = TupleShim::new("tupleware");
    let dense: Vec<f64> = data
        .patients
        .iter()
        .zip(&data.admissions)
        .flat_map(|(p, a)| [p.age as f64, a.stay_days])
        .collect();
    tupleware.store("age_stay", 2, dense)?;
    bd.add_engine(remote(Box::new(tupleware), scale.wire));

    let mut accumulo = KvShim::new("accumulo");
    for n in &data.notes {
        accumulo.index_document(n.id, &format!("p{}", n.patient_id), n.ts, &n.body);
    }
    bd.add_engine(remote(Box::new(accumulo), scale.wire));

    bd.refresh_catalog();
    Ok(bd)
}

/// `readings(id, sensor, v, a, b, note)`: `v` is spread evenly over
/// `0..1000` so `v >= t` keeps `(1000 - t) / 10` percent of the rows;
/// `note` is the text ballast that makes the table wide.
fn readings(rows: usize) -> Result<Batch> {
    let ids: Vec<i64> = (0..rows as i64).collect();
    Batch::from_columns(
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("sensor", DataType::Int),
            ("v", DataType::Int),
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("note", DataType::Text),
        ]),
        vec![
            Column::from_ints(ids.clone()),
            Column::from_ints(ids.iter().map(|i| i % SENSORS).collect()),
            Column::from_ints(ids.iter().map(|i| (i * 7919) % 1000).collect()),
            Column::from_ints(ids.iter().map(|i| i * 7).collect()),
            Column::from_floats(ids.iter().map(|i| (i % 17) as f64 + 0.25).collect()),
            Column::from_texts(
                ids.iter()
                    .map(|i| format!("reading {i} from sensor bank {}", i % 8))
                    .collect(),
            ),
        ],
    )
}

/// `pushdown_scan`: the wide `readings` table on `pg_remote` behind the
/// wire; the gather runs on the co-resident `pg_local`.
pub fn pushdown(scale: &Scale) -> Result<BigDawg> {
    let mut bd = BigDawg::new();
    bd.add_engine(Box::new(relational_with_dim("pg_local")?));
    let mut pg_remote = RelationalShim::new("pg_remote");
    pg_remote.load_table(
        "readings",
        readings(scale.scan_rows)?.project(&["id", "v", "a", "b", "note"])?,
    )?;
    bd.add_engine(remote(Box::new(pg_remote), scale.wire));
    bd.refresh_catalog();
    Ok(bd)
}

/// `join_ship`: `readings` on `pg_remote` behind the wire, the 64-row
/// `sensors` dimension on `pg_near` — a second engine co-resident with the
/// coordinator, so its leg to `pg_local` is a zero-copy handover.
pub fn join_ship(scale: &Scale) -> Result<BigDawg> {
    let mut bd = BigDawg::new();
    bd.add_engine(Box::new(relational_with_dim("pg_local")?));
    let mut pg_remote = RelationalShim::new("pg_remote");
    pg_remote.load_table(
        "readings",
        readings(scale.join_rows)?.project(&["id", "sensor", "v", "note"])?,
    )?;
    bd.add_engine(remote(Box::new(pg_remote), scale.wire));

    let sid: Vec<i64> = (0..SENSORS).collect();
    let mut pg_near = RelationalShim::new("pg_near");
    pg_near.load_table(
        "sensors",
        Batch::from_columns(
            Schema::from_pairs(&[
                ("sid", DataType::Int),
                ("zone", DataType::Int),
                ("gain", DataType::Float),
                ("label", DataType::Text),
            ]),
            vec![
                Column::from_ints(sid.clone()),
                Column::from_ints(sid.iter().map(|s| s % 8).collect()),
                Column::from_floats(sid.iter().map(|s| 1.0 + *s as f64 / 16.0).collect()),
                Column::from_texts(sid.iter().map(|s| format!("bank-{}", s % 8)).collect()),
            ],
        )?,
    )?;
    bd.add_engine(Box::new(pg_near));
    bd.refresh_catalog();
    Ok(bd)
}

/// `zipf_cached_rw`: a local Postgres coordinator (holding `dim`) and four
/// remote engines behind the wire, each with one small hot object of 256
/// cells — `wave_a`, `wave_b`, `tiles`, `dense`.
pub fn hot_objects(scale: &Scale) -> Result<BigDawg> {
    let mut bd = BigDawg::new();
    bd.add_engine(Box::new(relational_with_dim("postgres")?));

    let wave = |modulus: i64| -> Vec<f64> { (0..256).map(|i| (i % modulus) as f64).collect() };
    let mut scidb = ArrayShim::new("scidb");
    scidb.store("wave_a", Array::from_vector("wave_a", "v", &wave(13), 32));
    bd.add_engine(remote(Box::new(scidb), scale.wire));
    let mut scidb2 = ArrayShim::new("scidb2");
    scidb2.store("wave_b", Array::from_vector("wave_b", "v", &wave(7), 32));
    bd.add_engine(remote(Box::new(scidb2), scale.wire));

    let mut tiles = TileDb::new(TileSchema::new("tiles", vec![16, 16], vec![8, 8])?);
    let cells: Vec<(Vec<i64>, f64)> = (0..16i64)
        .flat_map(|r| (0..16i64).map(move |c| (vec![r, c], ((r * c) % 13) as f64)))
        .collect();
    tiles.write(&cells)?;
    let mut tiledb = TileShim::new("tiledb");
    tiledb.store("tiles", tiles);
    bd.add_engine(remote(Box::new(tiledb), scale.wire));

    let mut tupleware = TupleShim::new("tupleware");
    let dense: Vec<f64> = (0..256)
        .flat_map(|i| [i as f64, (i * 3 % 13) as f64])
        .collect();
    tupleware.store("dense", 2, dense)?;
    bd.add_engine(remote(Box::new(tupleware), scale.wire));

    bd.refresh_catalog();
    Ok(bd)
}
