//! E13 — the zero-copy columnar interchange (§2.1's "read binary data in
//! parallel directly from another engine", taken to its in-process limit).
//!
//! Three questions, one mixed-type table (Int, Float, Bool, Text with
//! NULLs and quoting-hostile bodies, Timestamp):
//!
//! 1. **In-process data plane** — how much does each transport pay to ship
//!    the table between two co-resident engines? Zero-copy must beat the
//!    serial row-at-a-time baseline — the CSV file path — by ≥ 5×; the
//!    columnar codec must beat it too.
//! 2. **Behind a wire** — with a 5 ms emulated payload wire, does the
//!    columnar codec's chunk-pipelined transfer (encode/transfer/decode
//!    overlapped per buffer) beat the file path's serial
//!    encode → transfer → decode schedule?
//! 3. **Footprint** — how many bytes does each representation put on the
//!    wire, and how much row-materialization allocation does the columnar
//!    path avoid?

use crate::experiments::{fmt_dur, fmt_ratio, Table};
use bigdawg_common::{Batch, DataType, Result, Row, Schema, Value};
use bigdawg_core::cast::{ship, ship_with_wire, CastReport, Transport};
use bigdawg_core::shims::RelationalShim;
use bigdawg_core::BigDawg;
use std::time::Duration;

/// Measurements of one transport option at one scale.
#[derive(Debug, Clone)]
pub struct PlaneResult {
    /// Transport label for the table.
    pub label: &'static str,
    /// End-to-end data-plane time (encode + transfer + decode).
    pub total: Duration,
    /// Bytes that crossed the wire.
    pub wire_bytes: usize,
}

/// Everything E13 reports.
#[derive(Debug, Clone)]
pub struct InterchangeResult {
    /// Rows in the mixed-type table.
    pub rows: usize,
    /// In-process data-plane comparison (wire = 0).
    pub in_process: Vec<PlaneResult>,
    /// Behind-the-wire comparison (5 ms payload wire).
    pub wired: Vec<PlaneResult>,
    /// The wire latency used for the second comparison.
    pub wire: Duration,
    /// Federation-level: full `cast_object` (egress + ship + ingress)
    /// between two co-resident relational engines, per transport.
    pub federation: Vec<PlaneResult>,
    /// Estimated heap footprint of the row-major representation the
    /// zero-copy path never materializes.
    pub row_footprint_bytes: usize,
    /// Actual payload bytes of the columnar representation.
    pub columnar_bytes: usize,
}

/// The mixed-type table: every `DataType`, NULLs, and CSV-hostile text.
pub fn mixed_batch(rows: usize) -> Batch {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("hr", DataType::Float),
        ("flag", DataType::Bool),
        ("note", DataType::Text),
        ("ts", DataType::Timestamp),
    ]);
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Float((i as f64 * 0.37).sin() * 80.0 + 70.0),
                Value::Bool(i % 3 == 0),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Text(format!("note {i}: \"stable\", resting\n"))
                },
                Value::Timestamp(1_420_000_000_000 + i as i64),
            ]
        })
        .collect();
    Batch::new(schema, data).expect("arity fixed")
}

fn plane(label: &'static str, report: &CastReport) -> PlaneResult {
    PlaneResult {
        label,
        total: report.total(),
        wire_bytes: report.wire_bytes,
    }
}

/// Estimated heap bytes of the row-major form (`Vec<Row>` of boxed
/// values) that zero-copy and the columnar codec never materialize.
pub fn row_footprint(batch: &Batch) -> usize {
    let width = batch.schema().len();
    let per_row = std::mem::size_of::<Row>() + width * std::mem::size_of::<Value>();
    batch.len() * per_row
}

/// Run E13 at the given scale.
pub fn run(rows: usize) -> Result<InterchangeResult> {
    let batch = mixed_batch(rows);
    let wire = Duration::from_millis(5);

    // 1. in-process data plane
    let (_, zc) = ship(&batch, Transport::ZeroCopy)?;
    let (_, columnar) = ship(&batch, Transport::Binary)?;
    let (_, csv) = ship(&batch, Transport::File)?;
    let in_process = vec![
        plane("zero-copy (Arc handover)", &zc),
        plane("binary columnar (parallel)", &columnar),
        plane("file (CSV)", &csv),
    ];

    // 2. behind a 5 ms payload wire
    let (_, columnar_wired) = ship_with_wire(&batch, Transport::Binary, wire)?;
    let (_, csv_wired) = ship_with_wire(&batch, Transport::File, wire)?;
    let wired = vec![
        plane("binary columnar (pipelined)", &columnar_wired),
        plane("file (CSV) + serial wire", &csv_wired),
    ];

    // 3. federation level: two co-resident engines, full cast_object
    let mut bd = BigDawg::new();
    let mut src = RelationalShim::new("pg_src");
    src.load_table("vitals", batch.clone())?;
    bd.add_engine(Box::new(src));
    bd.add_engine(Box::new(RelationalShim::new("pg_dst")));
    let mut federation = Vec::new();
    // warm the snapshot cache once so every transport sees the same egress
    bd.engine("pg_src")?.lock().get_table("vitals")?;
    for (label, transport) in [
        ("cast_object zero-copy", Transport::ZeroCopy),
        ("cast_object binary columnar", Transport::Binary),
        ("cast_object file (CSV)", Transport::File),
    ] {
        let tmp = bd.temp_name();
        let report = bd.cast_object("vitals", "pg_dst", &tmp, transport)?;
        bd.drop_object(&tmp)?;
        federation.push(plane(label, &report));
    }

    Ok(InterchangeResult {
        rows,
        in_process,
        wired,
        wire,
        federation,
        row_footprint_bytes: row_footprint(&batch),
        columnar_bytes: columnar.wire_bytes,
    })
}

/// Render the E13 tables.
pub fn table(r: &InterchangeResult) -> String {
    let mut out = String::new();
    let baseline = |set: &[PlaneResult]| set.last().map_or(Duration::ZERO, |p| p.total);

    let mut t = Table::new(
        &format!(
            "E13a — in-process CAST data plane, {} rows mixed types (§2.1)",
            r.rows
        ),
        &["transport", "ship time", "vs CSV", "wire bytes"],
    );
    let csv_total = baseline(&r.in_process);
    for p in &r.in_process {
        t.row(&[
            p.label.to_string(),
            fmt_dur(p.total),
            fmt_ratio(csv_total, p.total),
            p.wire_bytes.to_string(),
        ]);
    }
    out.push_str(&t.to_string());

    let mut t = Table::new(
        &format!(
            "E13b — same table behind a {} ms payload wire",
            r.wire.as_millis()
        ),
        &["transport", "ship time", "vs CSV+wire", "wire bytes"],
    );
    let csv_total = baseline(&r.wired);
    for p in &r.wired {
        t.row(&[
            p.label.to_string(),
            fmt_dur(p.total),
            fmt_ratio(csv_total, p.total),
            p.wire_bytes.to_string(),
        ]);
    }
    out.push_str(&t.to_string());

    let mut t = Table::new(
        "E13c — full cast_object between co-resident engines",
        &["path", "ship time", "vs CSV", "wire bytes"],
    );
    let csv_total = baseline(&r.federation);
    for p in &r.federation {
        t.row(&[
            p.label.to_string(),
            fmt_dur(p.total),
            fmt_ratio(csv_total, p.total),
            p.wire_bytes.to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(&format!(
        "\nrow-major footprint avoided by zero-copy: ~{} KiB ({} rows); columnar payload: {} KiB\n",
        r.row_footprint_bytes / 1024,
        r.rows,
        r.columnar_bytes / 1024,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_label<'a>(set: &'a [PlaneResult], needle: &str) -> &'a PlaneResult {
        set.iter()
            .find(|p| p.label.contains(needle))
            .unwrap_or_else(|| panic!("no `{needle}` row"))
    }

    /// Best-of-N totals per label: a single unwarmed run on a loaded CI
    /// box can absorb a scheduler stall into either side of a comparison;
    /// the minimum over a few runs measures the code, not the neighbor.
    fn best_of(n: usize, rows: usize) -> InterchangeResult {
        let mut best = run(rows).unwrap();
        for _ in 1..n {
            let next = run(rows).unwrap();
            for (b, x) in [
                (&mut best.in_process, &next.in_process),
                (&mut best.wired, &next.wired),
                (&mut best.federation, &next.federation),
            ] {
                for (slot, candidate) in b.iter_mut().zip(x) {
                    if candidate.total < slot.total {
                        slot.total = candidate.total;
                    }
                }
            }
        }
        best
    }

    #[test]
    fn zero_copy_is_5x_over_row_codec_and_columnar_wins_behind_the_wire() {
        let r = best_of(3, 20_000);

        // acceptance: zero-copy ≥ 5× over the serial row-major baseline
        // (the CSV file path), in-process
        let zc = by_label(&r.in_process, "zero-copy");
        let row = by_label(&r.in_process, "CSV");
        assert_eq!(zc.wire_bytes, 0, "zero-copy must not serialize anything");
        assert!(
            zc.total * 5 <= row.total,
            "zero-copy {:?} must be ≥5× faster than the CSV path {:?}",
            zc.total,
            row.total
        );
        // the columnar codec itself also beats the baseline in-process
        let columnar = by_label(&r.in_process, "columnar");
        assert!(
            columnar.total <= row.total,
            "columnar {:?} vs CSV {:?}",
            columnar.total,
            row.total
        );

        // acceptance: pipelined columnar beats the serial baseline behind
        // the 5 ms wire
        let columnar_wired = by_label(&r.wired, "columnar");
        let row_wired = by_label(&r.wired, "CSV");
        assert!(
            columnar_wired.total < row_wired.total,
            "pipelined {:?} must beat serial {:?}",
            columnar_wired.total,
            row_wired.total
        );

        // federation level: the full cast_object path sees the same order
        let fed_zc = by_label(&r.federation, "zero-copy");
        let fed_csv = by_label(&r.federation, "CSV");
        assert!(fed_zc.total < fed_csv.total);
        assert_eq!(fed_zc.wire_bytes, 0);
    }
}
