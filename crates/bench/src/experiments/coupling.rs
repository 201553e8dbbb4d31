//! E10 — §2.4: tightly coupling linear algebra to the tile store vs the
//! loose coupling the paper criticizes ("the two systems must be loosely
//! coupled and it is expensive to convert data back and forth between
//! their respective formats").

use crate::experiments::{fmt_dur, fmt_ratio, Table};
use bigdawg_common::Result;
use bigdawg_tiledb::compute::{export_cells, import_cells, tile_matmul, tile_sum};
use bigdawg_tiledb::{TileDb, TileSchema};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct CouplingResult {
    pub n: u64,
    pub tight_matmul: Duration,
    pub loose_matmul: Duration,
    /// Portion of the loose path spent purely converting formats.
    pub conversion: Duration,
    pub tight_sum: Duration,
    pub loose_sum: Duration,
}

fn dense(name: &str, n: u64, f: impl Fn(usize) -> f64) -> Result<TileDb> {
    let mut db = TileDb::new(TileSchema::new(
        name,
        vec![n, n],
        vec![32.min(n), 32.min(n)],
    )?);
    let buf: Vec<f64> = (0..(n * n) as usize).map(f).collect();
    db.write_dense(&buf)?;
    Ok(db)
}

pub fn run(n: u64) -> Result<CouplingResult> {
    let a = dense("a", n, |i| ((i * 7) % 13) as f64)?;
    let b = dense("b", n, |i| ((i * 5) % 11) as f64)?;

    // tight: tile-native kernel
    let t0 = Instant::now();
    let tight_product = tile_matmul(&a, &b)?;
    let tight_matmul = t0.elapsed();

    // loose: export → external dense kernel → import
    let t0 = Instant::now();
    let fa = export_cells(&a)?;
    let fb = export_cells(&b)?;
    let export_time = t0.elapsed();
    let t1 = Instant::now();
    let product = bigdawg_array::ops::dense_matmul(n as usize, n as usize, &fa, n as usize, &fb);
    let kernel_time = t1.elapsed();
    let t2 = Instant::now();
    let loose_product = import_cells(
        TileSchema::new("p", vec![n, n], vec![32.min(n), 32.min(n)])?,
        &product,
    )?;
    let import_time = t2.elapsed();
    let loose_matmul = export_time + kernel_time + import_time;
    let conversion = export_time + import_time;

    // answers agree
    assert_eq!(
        export_cells(&tight_product)?,
        export_cells(&loose_product)?,
        "tight and loose products must agree"
    );

    // aggregate comparison
    let t0 = Instant::now();
    let s1 = tile_sum(&a)?;
    let tight_sum = t0.elapsed();
    let t0 = Instant::now();
    let flat = export_cells(&a)?;
    let s2: f64 = flat.iter().sum();
    let loose_sum = t0.elapsed();
    assert!((s1 - s2).abs() < 1e-6);

    Ok(CouplingResult {
        n,
        tight_matmul,
        loose_matmul,
        conversion,
        tight_sum,
        loose_sum,
    })
}

pub fn table(r: &CouplingResult) -> Table {
    let mut t = Table::new(
        "E10 — TileDB: tight vs loose linear-algebra coupling (§2.4)",
        &[
            "kernel",
            "tight (tile-native)",
            "loose (export+compute+import)",
            "speedup",
        ],
    );
    t.row(&[
        format!("matmul {0}×{0}", r.n),
        fmt_dur(r.tight_matmul),
        fmt_dur(r.loose_matmul),
        fmt_ratio(r.loose_matmul, r.tight_matmul),
    ]);
    t.row(&[
        "sum".into(),
        fmt_dur(r.tight_sum),
        fmt_dur(r.loose_sum),
        fmt_ratio(r.loose_sum, r.tight_sum),
    ]);
    t.row(&[
        format!(
            "conversion tax: {} ({:.0}% of loose matmul)",
            fmt_dur(r.conversion),
            100.0 * r.conversion.as_secs_f64() / r.loose_matmul.as_secs_f64()
        ),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deterministic half of E10: the loose path pays a format
    /// conversion the tight path does not have (and `run` itself checks
    /// the two products agree). How tight compares with loose is a
    /// wall-clock ratio — `experiments --quick e10` asserts it.
    #[test]
    fn conversion_tax_is_real() {
        let r = run(96).unwrap();
        assert_eq!(r.n, 96);
        assert!(r.conversion > Duration::ZERO, "conversion costs something");
        assert!(
            r.conversion < r.loose_matmul,
            "and is part of the loose path"
        );
    }
}
