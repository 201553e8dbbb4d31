//! E13 bench — the interchange data plane at 100k–1M rows: zero-copy `Arc`
//! handover vs the columnar binary codec vs the CSV file path (the serial
//! row-at-a-time baseline), plus the engine-egress snapshot path.

use bigdawg_bench::experiments::interchange::mixed_batch;
use bigdawg_core::cast::{ship, Transport};
use bigdawg_core::shims::RelationalShim;
use bigdawg_core::Shim;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_ship(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_ship");
    g.sample_size(10);
    for rows in [100_000usize, 1_000_000] {
        let batch = mixed_batch(rows);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_with_input(BenchmarkId::new("zero_copy", rows), &batch, |b, batch| {
            b.iter(|| ship(batch, Transport::ZeroCopy).unwrap())
        });
        g.bench_with_input(
            BenchmarkId::new("binary_columnar", rows),
            &batch,
            |b, batch| b.iter(|| ship(batch, Transport::Binary).unwrap()),
        );
        g.bench_with_input(BenchmarkId::new("file_csv", rows), &batch, |b, batch| {
            b.iter(|| ship(batch, Transport::File).unwrap())
        });
    }
    g.finish();
}

fn bench_egress(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_egress");
    g.sample_size(10);
    let rows = 100_000usize;
    let mut shim = RelationalShim::new("pg");
    shim.load_table("vitals", mixed_batch(rows)).unwrap();
    g.throughput(Throughput::Elements(rows as u64));
    // warm the snapshot cache, then measure the Arc-clone steady state
    shim.get_table("vitals").unwrap();
    g.bench_function("get_table_snapshot", |b| {
        b.iter(|| shim.get_table("vitals").unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_ship, bench_egress);
criterion_main!(benches);
