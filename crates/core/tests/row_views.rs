//! The columnar data plane, counted: between `BigDawg::execute` and the
//! batch it returns, a scan / join / sort / project query builds no row
//! view — not at the source read, not in the pushed filter, not on the
//! wire, not at the landing, not in the gather.
//!
//! `bigdawg_batch_row_views_total` is one process-wide counter, so this
//! file holds a single test: nothing else in the process builds a row view
//! while it runs.

use bigdawg_common::batch::row_views_total;
use bigdawg_common::{Batch, Column, DataType, Schema, Value};
use bigdawg_core::shims::{LatencyShim, RelationalShim};
use bigdawg_core::BigDawg;
use std::time::Duration;

const READINGS: i64 = 512;
const SENSORS: i64 = 16;

/// `readings` behind a wire on `pg_remote`, the `sensors` dimension on the
/// co-resident `pg_near`, the gather on `pg_local` — the shape of
/// polybench's `join_ship` and `pushdown_scan` federations.
fn federation() -> BigDawg {
    let ids: Vec<i64> = (0..READINGS).collect();
    let readings = Batch::from_columns(
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("sensor", DataType::Int),
            ("v", DataType::Int),
            ("note", DataType::Text),
        ]),
        vec![
            Column::from_ints(ids.clone()),
            Column::from_ints(ids.iter().map(|i| i % SENSORS).collect()),
            Column::from_ints(ids.iter().map(|i| (i * 7919) % 1000).collect()),
            Column::from_texts(ids.iter().map(|i| format!("reading {i}")).collect()),
        ],
    )
    .unwrap();
    let sid: Vec<i64> = (0..SENSORS).collect();
    let sensors = Batch::from_columns(
        Schema::from_pairs(&[
            ("sid", DataType::Int),
            ("zone", DataType::Int),
            ("gain", DataType::Float),
        ]),
        vec![
            Column::from_ints(sid.clone()),
            Column::from_ints(sid.iter().map(|s| s % 4).collect()),
            Column::from_floats(sid.iter().map(|s| 1.0 + *s as f64 / 16.0).collect()),
        ],
    )
    .unwrap();

    let mut bd = BigDawg::new();
    bd.add_engine(Box::new(RelationalShim::new("pg_local")));
    let mut pg_remote = RelationalShim::new("pg_remote");
    pg_remote.load_table("readings", readings).unwrap();
    bd.add_engine(Box::new(LatencyShim::new(
        Box::new(pg_remote),
        Duration::from_micros(50),
    )));
    let mut pg_near = RelationalShim::new("pg_near");
    pg_near.load_table("sensors", sensors).unwrap();
    bd.add_engine(Box::new(pg_near));
    bd.refresh_catalog();
    bd
}

#[test]
fn scan_join_sort_project_queries_build_no_row_view() {
    let bd = federation();
    let join_ship = "RELATIONAL(SELECT r.id, r.v, r.note, s.gain \
         FROM CAST(readings, pg_local) r \
         JOIN CAST(sensors, pg_local) s ON r.sensor = s.sid \
         WHERE s.zone = 1 ORDER BY r.id)";
    let pushdown_scan = "RELATIONAL(SELECT id, v FROM CAST(readings, pg_local) \
         WHERE v >= 800 ORDER BY id)";

    let hot = (0..READINGS).filter(|i| (i * 7919) % 1000 >= 800).count() as i64;
    for (query, want_rows) in [(join_ship, READINGS / 4), (pushdown_scan, hot)] {
        let before = row_views_total();
        let answer = bd.execute(query).unwrap();
        assert_eq!(
            row_views_total() - before,
            0,
            "a row view was built on the path of {query}"
        );
        assert_eq!(answer.len() as i64, want_rows);
        let ids = answer.column_ref(0).as_ints().expect("a typed id column");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ORDER BY id");
    }

    // the counter does count: reading an answer row-wise is one view
    let answer = bd.execute(join_ship).unwrap();
    let before = row_views_total();
    assert_eq!(answer.rows()[0][0], Value::Int(1));
    assert_eq!(row_views_total() - before, 1);
    let rendered = bd.metrics().render_prometheus();
    assert!(rendered.contains("# TYPE bigdawg_batch_row_views_total counter"));
}
