//! E4 — §2.1: "we are investigating techniques to make cross-database CASTs
//! more efficient than file-based import/export … read binary data in
//! parallel directly from another engine."

use crate::experiments::{fmt_dur, fmt_ratio, Table};
use crate::setup::Demo;
use bigdawg_common::Result;
use bigdawg_core::cast::CastReport;
use bigdawg_core::Transport;

#[derive(Debug, Clone)]
pub struct CastResult {
    pub object: String,
    pub rows: usize,
    pub file: CastReport,
    pub binary: CastReport,
}

/// CAST the same objects over both transports: a waveform array
/// (SciDB → Postgres) and the patient table (Postgres → SciDB).
pub fn run(demo: &Demo) -> Result<Vec<CastResult>> {
    let bd = &demo.bd;
    let mut out = Vec::new();
    // warm-up: first parallel encode pays thread spawn + page faults
    let warm = bd.temp_name();
    bd.cast_object("waveform_0", "postgres", &warm, Transport::Binary)?;
    bd.drop_object(&warm)?;
    for (object, target) in [
        ("waveform_0", "postgres"),
        ("waveform_0", "tiledb"),
        ("age_stay", "postgres"),
    ] {
        let tmp1 = bd.temp_name();
        let file = bd.cast_object(object, target, &tmp1, Transport::File)?;
        bd.drop_object(&tmp1)?;
        let tmp2 = bd.temp_name();
        let binary = bd.cast_object(object, target, &tmp2, Transport::Binary)?;
        bd.drop_object(&tmp2)?;
        out.push(CastResult {
            object: object.to_string(),
            rows: binary.rows,
            file,
            binary,
        });
    }
    Ok(out)
}

pub fn table(results: &[CastResult]) -> Table {
    let mut t = Table::new(
        "E4 — CAST transports: file-based (CSV) vs parallel binary (§2.1)",
        &[
            "object",
            "rows",
            "file total",
            "binary total",
            "speedup",
            "file bytes",
            "binary bytes",
        ],
    );
    for r in results {
        t.row(&[
            r.object.clone(),
            r.rows.to_string(),
            fmt_dur(r.file.total()),
            fmt_dur(r.binary.total()),
            fmt_ratio(r.file.total(), r.binary.total()),
            r.file.wire_bytes.to_string(),
            r.binary.wire_bytes.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{demo_polystore, DemoConfig};

    /// The deterministic half of E4: both transports move the same rows
    /// and leave the federation as it was. That binary *beats* file is a
    /// wall-clock ratio — `experiments --quick e4` asserts it.
    #[test]
    fn binary_beats_file_on_waveforms() {
        let demo = demo_polystore(DemoConfig::tiny()).unwrap();
        let wave = run(&demo).unwrap().remove(0);
        assert_eq!(wave.rows, 4000);
        assert_eq!((wave.file.rows, wave.binary.rows), (4000, 4000));
        assert!(wave.file.wire_bytes > 0 && wave.binary.wire_bytes > 0);
        assert_eq!(wave.file.transport, Transport::File);
        assert_eq!(wave.binary.transport, Transport::Binary);
        // federation unchanged afterwards
        assert!(demo.bd.locate("waveform_0").unwrap() == "scidb");
    }
}
