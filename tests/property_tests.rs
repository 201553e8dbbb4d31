//! Property-based tests on cross-crate invariants: CAST transports are
//! lossless, engine answers agree across data models, window aggregates
//! match naive recomputation, and the D4M algebra obeys its laws.

// the parallel==serial equivalence assertion is shared with the core
// integration suites — one helper, so the checks can never drift apart
#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use bigdawg::common::{Batch, DataType, Schema, Value};
use bigdawg::core::cast::{decode_columnar, encode_columnar, from_csv, ship, to_csv, Transport};
use bigdawg::d4m::algebra::{matmul, plus, times, transpose, Semiring};
use bigdawg::d4m::AssocArray;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // finite floats only: CSV text roundtrips NaN as a string
        (-1e15f64..1e15).prop_map(Value::Float),
        "[a-z ,\"\n]{0,24}".prop_map(Value::Text),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    (1usize..5).prop_flat_map(|width| {
        let schema = Schema::from_pairs(
            &(0..width)
                .map(|i| (format!("c{i}"), DataType::Null))
                .collect::<Vec<_>>()
                .iter()
                .map(|(n, t)| (n.as_str(), *t))
                .collect::<Vec<_>>(),
        );
        proptest::collection::vec(proptest::collection::vec(arb_value(), width..=width), 0..40)
            .prop_map(move |rows| Batch::new(schema.clone(), rows).expect("arity fixed"))
    })
}

fn value_of(ty: DataType) -> impl Strategy<Value = Value> {
    // a value of exactly `ty`, or NULL — so typed column layouts (and
    // their bitmaps) are exercised, not just the mixed fallback
    match ty {
        DataType::Bool => {
            prop_oneof![Just(Value::Null), any::<bool>().prop_map(Value::Bool)].boxed()
        }
        DataType::Int => prop_oneof![Just(Value::Null), any::<i64>().prop_map(Value::Int)].boxed(),
        DataType::Float => {
            prop_oneof![Just(Value::Null), (-1e15f64..1e15).prop_map(Value::Float)].boxed()
        }
        DataType::Text => {
            prop_oneof![Just(Value::Null), "[a-z ,\"\n]{0,24}".prop_map(Value::Text)].boxed()
        }
        _ => prop_oneof![Just(Value::Null), any::<i64>().prop_map(Value::Timestamp)].boxed(),
    }
}

/// A batch with *typed* schema columns (every `DataType`), holding values
/// of exactly those types plus NULLs: the typed-column interchange case.
fn arb_typed_batch() -> impl Strategy<Value = Batch> {
    let types = [
        DataType::Bool,
        DataType::Int,
        DataType::Float,
        DataType::Text,
        DataType::Timestamp,
    ];
    (
        proptest::collection::vec(0usize..types.len(), 1..6),
        0usize..40,
    )
        .prop_flat_map(move |(cols, rows)| {
            let schema = Schema::from_pairs(
                &cols
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (format!("c{i}"), types[t]))
                    .collect::<Vec<_>>()
                    .iter()
                    .map(|(n, t)| (n.as_str(), *t))
                    .collect::<Vec<_>>(),
            );
            let row = cols.iter().map(|&t| value_of(types[t])).collect::<Vec<_>>();
            proptest::collection::vec(row, rows..=rows)
                .prop_map(move |rows| Batch::new(schema.clone(), rows).expect("arity fixed"))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binary CAST — the live transport: parallel, chunk-pipelined
    /// columnar encode/decode — is lossless for every value type.
    #[test]
    fn binary_cast_roundtrip(batch in arb_batch()) {
        let (back, report) = ship(&batch, Transport::Binary).expect("ships");
        prop_assert_eq!(back.rows(), batch.rows());
        prop_assert_eq!(report.rows, batch.len());
    }

    /// rows → columnar Batch → columnar binary codec → rows is the
    /// identity on untyped (mixed-layout) batches, including NULLs and
    /// quoting-hostile text.
    #[test]
    fn columnar_codec_roundtrip_mixed(batch in arb_batch(), chunk in 1usize..16) {
        let parts = encode_columnar(&batch, chunk);
        let back = decode_columnar(&parts, batch.schema()).expect("decodes");
        prop_assert_eq!(back.rows(), batch.rows());
    }

    /// The same identity on *typed* batches — every `DataType` column
    /// layout plus its NULL bitmap survives the wire, across any chunking.
    #[test]
    fn columnar_codec_roundtrip_typed(batch in arb_typed_batch(), chunk in 1usize..16) {
        let parts = encode_columnar(&batch, chunk);
        let back = decode_columnar(&parts, batch.schema()).expect("decodes");
        prop_assert_eq!(back.rows(), batch.rows());
    }

    /// The zero-copy transport is the identity and honestly reports that
    /// nothing crossed the wire.
    #[test]
    fn zero_copy_ship_is_identity(batch in arb_typed_batch()) {
        let (back, report) = ship(&batch, Transport::ZeroCopy).expect("ships");
        prop_assert_eq!(back.rows(), batch.rows());
        prop_assert_eq!(report.wire_bytes, 0);
    }

    /// CSV CAST is lossless up to NULL/empty-text conflation (documented:
    /// `to_csv` writes NULL and "" identically). Empty strings are excluded
    /// by construction here, so roundtrips must be exact — including
    /// embedded commas, quotes, and newlines.
    #[test]
    fn csv_cast_roundtrip(batch in arb_batch()) {
        // Text columns in this batch are non-empty or the value is Null —
        // filter empties to match the documented conflation.
        let ok = batch.rows().iter().all(|r| {
            r.iter().all(|v| !matches!(v, Value::Text(s) if s.is_empty()))
        });
        prop_assume!(ok);
        let text = to_csv(&batch);
        let back = from_csv(&text, batch.schema()).expect("parses");
        prop_assert_eq!(back.rows(), batch.rows());
    }

    /// The relational engine and the array engine agree on numeric
    /// aggregates of the same data.
    #[test]
    fn engines_agree_on_sum(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        // array engine
        let arr = bigdawg::array::Array::from_vector("w", "v", &values, 16);
        let arr_sum = bigdawg::array::ops::aggregate(
            &arr, bigdawg::array::AggKind::Sum, "v").unwrap().unwrap();
        // relational engine
        let mut db = bigdawg::relational::Database::new();
        db.execute("CREATE TABLE w (i INT, v FLOAT)").unwrap();
        let stmt: Vec<String> = values.iter().enumerate()
            .map(|(i, v)| format!("({i}, {v})"))
            .collect();
        db.execute(&format!("INSERT INTO w VALUES {}", stmt.join(","))).unwrap();
        let b = db.query("SELECT SUM(v) FROM w").unwrap();
        let sql_sum = b.rows()[0][0].as_f64().unwrap();
        let tol = 1e-9 * values.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!((arr_sum - sql_sum).abs() <= tol, "{arr_sum} vs {sql_sum}");
    }

    /// Sliding-window aggregates match naive recomputation at every step.
    #[test]
    fn window_stats_match_naive(values in proptest::collection::vec(-1e3f64..1e3, 1..120),
                                size in 1usize..16) {
        let mut w = bigdawg::stream::SlidingWindow::new(
            bigdawg::stream::WindowSpec::sliding(size, 1));
        for (i, &v) in values.iter().enumerate() {
            w.push(i as i64, v);
            let lo = (i + 1).saturating_sub(size);
            let slice = &values[lo..=i];
            let stats = w.stats();
            let naive_sum: f64 = slice.iter().sum();
            prop_assert!((stats.sum - naive_sum).abs() < 1e-6);
            prop_assert_eq!(stats.min, slice.iter().cloned().fold(f64::INFINITY, f64::min));
            prop_assert_eq!(stats.max, slice.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
            prop_assert_eq!(stats.count, slice.len());
        }
    }

    /// D4M algebra laws: plus commutes, transpose is an involution, and
    /// element-wise times is intersection-bounded.
    #[test]
    fn d4m_algebra_laws(
        triples in proptest::collection::vec(
            ("[a-d]", "[x-z]", -100f64..100.0).prop_map(|(r, c, v)| (r, c, v)),
            0..20,
        )
    ) {
        let a = AssocArray::from_triples(triples.clone());
        let b = AssocArray::from_triples(triples.iter().rev().cloned().collect::<Vec<_>>());
        // commutativity of plus
        prop_assert_eq!(plus(&a, &b), plus(&b, &a));
        // transpose involution
        prop_assert_eq!(transpose(&transpose(&a)), a.clone());
        // times is supported only where both have entries
        let t = times(&a, &b);
        prop_assert!(t.nnz() <= a.nnz().min(b.nnz()));
        // (A·B)ᵀ = Bᵀ·Aᵀ over the PlusTimes semiring
        let ab_t = transpose(&matmul(&a, &b, Semiring::PlusTimes));
        let bt_at = matmul(&transpose(&b), &transpose(&a), Semiring::PlusTimes);
        for (r, c, v) in ab_t.triples() {
            prop_assert!((v - bt_at.get(r, c)).abs() < 1e-9);
        }
    }

    /// RLE tile compression is lossless on arbitrary (finite) waveforms.
    #[test]
    fn rle_roundtrip(values in proptest::collection::vec(-1e9f64..1e9, 0..300)) {
        let bytes = bigdawg::tiledb::rle::compress(&values);
        prop_assert_eq!(bigdawg::tiledb::rle::decompress(&bytes), values);
    }

    /// FFT→IFFT returns the (padded) original signal.
    #[test]
    fn fft_roundtrip(values in proptest::collection::vec(-1e3f64..1e3, 1..128)) {
        let spec = bigdawg::analytics::fft(&values);
        let back = bigdawg::analytics::ifft(&spec).unwrap();
        for (a, b) in values.iter().zip(&back) {
            prop_assert!((a - b.re).abs() < 1e-6);
        }
    }

    /// SQL LIKE agrees with a reference implementation built on contains /
    /// starts_with for simple patterns.
    #[test]
    fn like_simple_patterns(text in "[ab ]{0,16}", needle in "[ab]{1,4}") {
        let like = bigdawg::relational::expr::like_match(
            &text, &format!("%{needle}%"));
        prop_assert_eq!(like, text.contains(&needle));
        let like = bigdawg::relational::expr::like_match(&text, &format!("{needle}%"));
        prop_assert_eq!(like, text.starts_with(&needle));
    }

    /// Schema narrowing never changes data, and every narrowed column's
    /// type admits all of its values (so strictly typed engines accept the
    /// batch after CAST materialization).
    #[test]
    fn narrow_types_is_sound(batch in arb_batch()) {
        let narrowed = batch.clone().narrow_types();
        prop_assert_eq!(narrowed.rows(), batch.rows());
        for (i, f) in narrowed.schema().fields().iter().enumerate() {
            for row in narrowed.rows() {
                prop_assert!(
                    f.data_type.unify(row[i].data_type()).is_some(),
                    "column {} narrowed to {} but holds {}",
                    f.name, f.data_type, row[i].data_type()
                );
            }
        }
    }

    /// Query results are identical before and after *any* sequence of
    /// migrations and replications of the queried object — placement is
    /// invisible to query semantics (and the serial schedule agrees with
    /// the parallel one at every step).
    #[test]
    fn results_stable_under_any_migration_sequence(
        values in proptest::collection::vec(-100f64..100.0, 1..40),
        threshold in -100f64..100.0,
        steps in proptest::collection::vec((0usize..3, any::<bool>()), 0..6),
    ) {
        let mut bd = bigdawg::core::BigDawg::new();
        bd.add_engine(Box::new(bigdawg::core::shims::RelationalShim::new("postgres")));
        let mut scidb = bigdawg::core::shims::ArrayShim::new("scidb");
        scidb.store("w", bigdawg::array::Array::from_vector("w", "v", &values, 16));
        bd.add_engine(Box::new(scidb));
        bd.add_engine(Box::new(bigdawg::core::shims::ArrayShim::new("scidb2")));
        let engines = ["postgres", "scidb", "scidb2"];
        let q = format!(
            "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(w, relation) WHERE v > {threshold})"
        );
        let baseline = bd.execute(&q).expect("baseline run");
        let expected = values.iter().filter(|v| **v > threshold).count() as i64;
        prop_assert_eq!(&baseline.rows()[0][0], &Value::Int(expected));
        let mut last_epoch = bd.placement_epoch("w").expect("cataloged");
        for (target, replicate) in steps {
            // moves and replications may no-op (already there): both are fine
            let _ = if replicate {
                bd.replicate("w", engines[target])
            } else {
                bd.migrate("w", engines[target])
            };
            let epoch = bd.placement_epoch("w").expect("still cataloged");
            prop_assert!(epoch >= last_epoch, "epoch regressed: {} -> {}", last_epoch, epoch);
            last_epoch = epoch;
            let answer = support::assert_parallel_matches_serial(&bd, &q);
            prop_assert_eq!(answer.rows(), baseline.rows());
        }
    }

    /// A replicated-then-written object never serves stale replica data:
    /// after a write through the relational island, every island observes
    /// the post-write state, no matter where copies had been placed.
    #[test]
    fn migrated_then_written_never_serves_stale_data(
        ages in proptest::collection::vec(1i64..100, 1..20),
        new_age in 1i64..100,
        replicate_twice in any::<bool>(),
    ) {
        let mut bd = bigdawg::core::BigDawg::new();
        let mut pg = bigdawg::core::shims::RelationalShim::new("postgres");
        pg.db_mut().execute("CREATE TABLE t (i INT, age INT)").unwrap();
        let rows: Vec<String> = ages.iter().enumerate()
            .map(|(i, a)| format!("({i}, {a})"))
            .collect();
        pg.db_mut()
            .execute(&format!("INSERT INTO t VALUES {}", rows.join(",")))
            .unwrap();
        bd.add_engine(Box::new(pg));
        bd.add_engine(Box::new(bigdawg::core::shims::ArrayShim::new("scidb")));
        bd.add_engine(Box::new(bigdawg::core::shims::ArrayShim::new("scidb2")));

        bd.replicate("t", "scidb").expect("replicate");
        if replicate_twice {
            bd.replicate("t", "scidb2").expect("second replica");
        }
        // the array island now reads the co-located copy
        let b = bd.execute("ARRAY(aggregate(t, count, age))").expect("pre-write read");
        prop_assert_eq!(&b.rows()[0][0], &Value::Float(ages.len() as f64));

        // write through the relational island: replicas must invalidate
        bd.execute(&format!(
            "RELATIONAL(INSERT INTO t VALUES ({}, {new_age}))", ages.len()
        )).expect("write");
        prop_assert!(!bd.located_on("t", "scidb"), "stale replica still cataloged");
        prop_assert!(!bd.located_on("t", "scidb2"));

        // every island sees the post-write state
        let n = ages.len() as i64 + 1;
        let b = bd.execute("RELATIONAL(SELECT COUNT(*) AS n FROM t)").expect("sql read");
        prop_assert_eq!(&b.rows()[0][0], &Value::Int(n));
        let b = bd.execute("ARRAY(aggregate(t, count, age))").expect("array read");
        prop_assert_eq!(&b.rows()[0][0], &Value::Float(n as f64));
        let sum: i64 = ages.iter().sum::<i64>() + new_age;
        let b = bd.execute("ARRAY(aggregate(t, sum, age))").expect("array sum");
        prop_assert_eq!(&b.rows()[0][0], &Value::Float(sum as f64));
    }

    /// Fault tolerance is *invisible* below the retry budget: for any
    /// sparse injected-fault schedule (no two consecutive operations fail,
    /// so every failure has a clean retry), both the parallel and the
    /// serial schedule answer exactly what a fault-free federation answers.
    #[test]
    fn faults_below_the_retry_budget_are_invisible(
        values in proptest::collection::vec(-100f64..100.0, 1..40),
        threshold in -100f64..100.0,
        raw_faults in proptest::collection::vec(1u64..40, 0..12),
    ) {
        // sparsify: keep no adjacent indices, so a single retry (the
        // standard policy allows three) always lands on a clean operation
        let mut faults = raw_faults;
        faults.sort_unstable();
        faults.dedup();
        let mut sparse: Vec<u64> = Vec::new();
        for f in faults {
            if sparse.last().is_none_or(|l| f > l + 1) {
                sparse.push(f);
            }
        }

        let mut bd = bigdawg::core::BigDawg::new();
        bd.add_engine(Box::new(bigdawg::core::shims::RelationalShim::new("postgres")));
        let mut scidb = bigdawg::core::shims::ArrayShim::new("scidb");
        scidb.store("w", bigdawg::array::Array::from_vector("w", "v", &values, 16));
        bd.add_engine(Box::new(bigdawg::core::shims::FaultShim::new(
            Box::new(scidb),
            bigdawg::core::shims::FaultPlan::at(&sparse),
        )));
        bd.set_retry_policy(
            bigdawg::core::RetryPolicy::standard(7)
                .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO),
        );

        let expected = values.iter().filter(|v| **v > threshold).count() as i64;
        let q = format!(
            "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(w, relation) WHERE v > {threshold})"
        );
        for _ in 0..3 {
            let answer = support::assert_parallel_matches_serial(&bd, &q);
            prop_assert_eq!(&answer.rows()[0][0], &Value::Int(expected));
        }
    }

    /// The parallel scatter-gather executor returns exactly what the serial
    /// reference schedule returns, for any filter threshold over a
    /// cross-engine CAST query.
    #[test]
    fn parallel_executor_matches_serial(
        values in proptest::collection::vec(-100f64..100.0, 1..60),
        threshold in -100f64..100.0,
    ) {
        let mut bd = bigdawg::core::BigDawg::new();
        bd.add_engine(Box::new(bigdawg::core::shims::RelationalShim::new("postgres")));
        let mut scidb = bigdawg::core::shims::ArrayShim::new("scidb");
        scidb.store("w", bigdawg::array::Array::from_vector("w", "v", &values, 16));
        bd.add_engine(Box::new(scidb));
        let q = format!(
            "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(w, relation) WHERE v > {threshold})"
        );
        let answer = support::assert_parallel_matches_serial(&bd, &q);
        let expected = values.iter().filter(|v| **v > threshold).count() as i64;
        prop_assert_eq!(&answer.rows()[0][0], &Value::Int(expected));
    }

    /// Metrics-histogram conservation: however operations distribute over
    /// the log2 buckets, the bucket totals always equal the recorded op
    /// count (nothing double-counted, nothing dropped), the rendered
    /// Prometheus `_count` agrees, and every quantile estimate is the
    /// upper bound of the bucket holding the exact order statistic — the
    /// monitor's hedging threshold is never off by more than 2×.
    #[test]
    fn histogram_buckets_always_sum_to_the_op_count(
        micros in proptest::collection::vec(0u64..10_000_000_000, 0..200),
        q in 0.0f64..=1.0,
    ) {
        let registry = bigdawg::common::MetricsRegistry::new();
        let h = registry.histogram("bigdawg_test_duration_microseconds");
        for &m in &micros {
            h.record_micros(m);
        }
        prop_assert_eq!(h.count(), micros.len() as u64);
        let buckets = h.bucket_counts();
        prop_assert_eq!(buckets.iter().sum::<u64>(), micros.len() as u64);
        let rendered = registry.render_prometheus();
        let count_line = format!("bigdawg_test_duration_microseconds_count {}", micros.len());
        prop_assert!(rendered.contains(&count_line));
        let mut sorted = micros.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        match (h.quantile(q), sorted.get(rank - 1)) {
            (Some(estimate), Some(&exact)) => {
                let bound = estimate.as_micros() as u64;
                prop_assert!(bound / 2 <= exact.max(1) && exact.max(1) < bound,
                    "quantile({q}) = {bound} µs vs exact {exact} µs");
            }
            (estimate, exact) => prop_assert!(estimate.is_none() && exact.is_none()),
        }
    }
}

// ---- result-cache properties -------------------------------------------------

/// One step of the cache-equivalence workload: read queries interleaved
/// with epoch-bumping mutations (writes and replications).
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// Run read query `i` on both federations and compare.
    Read(usize),
    /// Insert a row into `patients` on both federations.
    Write(i64),
    /// Replicate `wave` onto the relational engine (idempotent after the
    /// first time — the catalog ignores an existing placement).
    Replicate,
}

const CACHE_READS: &[&str] = &[
    "RELATIONAL(SELECT COUNT(*) AS n FROM patients)",
    "RELATIONAL(SELECT MAX(age) AS m FROM patients)",
    "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(wave, relation) WHERE v >= 3)",
    "RELATIONAL(SELECT COUNT(*) AS n FROM patients WHERE age > 60)",
];

fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
    // unweighted alternation; reads dominate via the duplicated arm
    prop_oneof![
        (0usize..CACHE_READS.len()).prop_map(CacheOp::Read),
        (0usize..CACHE_READS.len()).prop_map(CacheOp::Read),
        (0i64..100).prop_map(CacheOp::Write),
        Just(CacheOp::Replicate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Epoch-validated lookup is equivalent to re-execution: under any
    /// interleaving of reads, writes, and migrations, a cached federation
    /// answers exactly what an uncached twin answers — a stale row served
    /// even once would diverge the streams.
    #[test]
    fn cached_federation_matches_uncached_twin_under_any_interleaving(
        ops in proptest::collection::vec(arb_cache_op(), 1..24),
    ) {
        let cached = support::federation();
        cached.set_result_cache(Some(bigdawg::core::CachePolicy::admit_all()));
        let plain = support::federation();
        let mut reads = 0u64;
        for op in ops {
            match op {
                CacheOp::Read(i) => {
                    let a = cached.execute(CACHE_READS[i]).unwrap();
                    let b = plain.execute(CACHE_READS[i]).unwrap();
                    prop_assert_eq!(a.rows(), b.rows());
                    reads += 1;
                }
                CacheOp::Write(age) => {
                    let q = format!("RELATIONAL(INSERT INTO patients VALUES ({age}, {age}))");
                    cached.execute(&q).unwrap();
                    plain.execute(&q).unwrap();
                }
                CacheOp::Replicate => {
                    let a = cached.replicate_object("wave", "postgres", Transport::Binary);
                    let b = plain.replicate_object("wave", "postgres", Transport::Binary);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                }
            }
        }
        // the cache actually participated: every read was classified as a
        // hit, miss, or stale drop (writes bypass by design)
        let stats = cached.cache_stats().unwrap();
        prop_assert_eq!(stats.hits + stats.misses + stats.stale_drops, reads);
    }

    /// Cache-on vs cache-off equivalence in the existing parallel==serial
    /// harness: `execute` consults the cache, `execute_serial` never does,
    /// so the shared assertion pits a (possibly) cached answer against an
    /// always-recomputed reference — including right after invalidations.
    #[test]
    fn cached_parallel_matches_serial_reference(
        ages in proptest::collection::vec(1i64..100, 1..8),
    ) {
        let bd = support::federation();
        bd.set_result_cache(Some(bigdawg::core::CachePolicy::admit_all()));
        for age in ages {
            support::assert_parallel_matches_serial(
                &bd,
                "RELATIONAL(SELECT COUNT(*) AS n FROM patients)",
            );
            support::assert_parallel_matches_serial(
                &bd,
                "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(wave, relation) WHERE v >= 0)",
            );
            bd.execute(&format!(
                "RELATIONAL(INSERT INTO patients VALUES ({age}, {age}))"
            ))
            .unwrap();
        }
        support::assert_parallel_matches_serial(
            &bd,
            "RELATIONAL(SELECT COUNT(*) AS n FROM patients)",
        );
    }

    /// Cancellation hygiene at an arbitrary point: a canceller thread
    /// pulls the trigger after a proptest-chosen spin, so the cancel lands
    /// before, during, or after the federated query — and on every
    /// outcome the query either answers exactly the oracle's rows or
    /// unwinds with `cancelled`, no `__cast_*` temp survives anywhere, the
    /// placement epoch never regresses, every placement the catalog holds
    /// is backed by real data, and the federation answers plainly
    /// afterwards. Runs with the result cache both off and on: a
    /// cancelled query must not answer from the cache either.
    #[test]
    fn cancellation_at_an_arbitrary_point_is_hygienic(
        spin in 0u32..60_000,
        use_cache in any::<bool>(),
    ) {
        let bd = support::federation();
        if use_cache {
            bd.set_result_cache(Some(bigdawg::core::CachePolicy::admit_all()));
        }
        let q = "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(wave, relation) WHERE v >= 0)";
        let oracle = bd.execute(q).unwrap();
        let epoch_before = bd.placement_epoch("wave").unwrap();

        let handle = bd.query_handle();
        let result = std::thread::scope(|s| {
            let h = handle.clone();
            s.spawn(move || {
                for _ in 0..spin {
                    std::hint::spin_loop();
                }
                h.cancel();
            });
            bd.execute_with(q, &handle)
        });
        match result {
            Ok(b) => prop_assert_eq!(b.rows(), oracle.rows()),
            Err(e) => prop_assert_eq!(e.kind(), "cancelled"),
        }

        // no orphaned temps, in the catalog or on any engine
        {
            let cat = bd.catalog().read();
            prop_assert!(
                cat.entries().all(|(name, _)| !name.starts_with("__cast_")),
                "catalog holds an orphaned cast temp"
            );
        }
        for engine in bd.engine_names() {
            let names = bd.engine(engine).unwrap().lock().object_names();
            prop_assert!(
                names.iter().all(|n| !n.starts_with("__cast_")),
                "engine {} holds orphaned temps: {:?}", engine, names
            );
        }
        // epochs are monotone, and every placement is backed by real data
        prop_assert!(bd.placement_epoch("wave").unwrap() >= epoch_before);
        let placements: Vec<(String, Vec<String>)> = {
            let cat = bd.catalog().read();
            cat.entries()
                .map(|(name, entry)| {
                    (name.to_string(), entry.locations().map(str::to_string).collect())
                })
                .collect()
        };
        for (object, locations) in placements {
            for engine in locations {
                let names = bd.engine(&engine).unwrap().lock().object_names();
                prop_assert!(
                    names.contains(&object),
                    "catalog places `{}` on {}, but the engine doesn't hold it",
                    object, engine
                );
            }
        }
        // the cancelled query left nothing behind that changes the answer
        prop_assert_eq!(bd.execute(q).unwrap().rows(), oracle.rows());
    }
}

// ---- the columnar predicate kernel -------------------------------------------

use bigdawg::relational::expr::{BinOp, Expr};
use bigdawg::relational::sql::parse_expr;

/// The kernel's reference: `Expr::matches` row by row. `None` when any row
/// fails to evaluate — exactly when `Expr::select` must fail too.
fn row_wise_select(expr: &Expr, batch: &Batch) -> Option<Vec<usize>> {
    let mut kept = Vec::new();
    for (i, row) in batch.rows().iter().enumerate() {
        if expr.matches(batch.schema(), row).ok()? {
            kept.push(i);
        }
    }
    Some(kept)
}

/// Small domains, so `=`, `IN` and `BETWEEN` hit and miss: every typed
/// layout with NULLs, NaN / -0.0 floats, non-ASCII text, and `m`, a column
/// whose values disagree on a type and so stays in the `Mixed` layout.
/// `j` never holds a NULL (the kernel skips its mask).
fn arb_kernel_batch() -> impl Strategy<Value = Batch> {
    let schema = Schema::from_pairs(&[
        ("b", DataType::Bool),
        ("i", DataType::Int),
        ("j", DataType::Int),
        ("f", DataType::Float),
        ("t", DataType::Text),
        ("ts", DataType::Timestamp),
        ("m", DataType::Null),
    ]);
    let or_null = |s: BoxedStrategy<Value>| prop_oneof![Just(Value::Null), s].boxed();
    let row = vec![
        or_null(any::<bool>().prop_map(Value::Bool).boxed()),
        or_null(arb_small_int()),
        arb_small_int(),
        or_null(arb_float()),
        or_null(arb_text()),
        or_null((0i64..3).prop_map(Value::Timestamp).boxed()),
        arb_kernel_literal(),
    ];
    proptest::collection::vec(row, 0..24)
        .prop_map(move |rows| Batch::new(schema.clone(), rows).expect("arity fixed"))
}

fn arb_small_int() -> BoxedStrategy<Value> {
    (-2i64..3).prop_map(Value::Int).boxed()
}

fn arb_float() -> BoxedStrategy<Value> {
    let specials = [-0.0, 0.0, 1.0, 2.5, -1.0, f64::NAN, f64::INFINITY];
    (0usize..specials.len())
        .prop_map(move |k| Value::Float(specials[k]))
        .boxed()
}

fn arb_text() -> BoxedStrategy<Value> {
    let texts = ["", "a", "ab", "ä", "日本", "b%"];
    (0usize..texts.len())
        .prop_map(move |k| Value::Text(texts[k].to_string()))
        .boxed()
}

/// Any value of any type, NULL included.
fn arb_kernel_literal() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        arb_small_int(),
        arb_float(),
        arb_text(),
        (0i64..3).prop_map(Value::Timestamp),
    ]
    .boxed()
}

/// A column of the batch or a literal. `I` reaches `i` through the schema's
/// case-insensitive lookup; `ghost` is a column the batch lacks, drawn by
/// the first arm only so that most predicates can still succeed.
fn arb_operand() -> BoxedStrategy<Expr> {
    let columns = ["b", "i", "j", "f", "t", "ts", "m", "I", "ghost"];
    prop_oneof![
        (0usize..columns.len()).prop_map(move |k| Expr::col(columns[k])),
        (0usize..columns.len() - 1).prop_map(move |k| Expr::col(columns[k])),
        arb_kernel_literal().prop_map(Expr::Literal),
    ]
    .boxed()
}

fn arb_binop(ops: &'static [BinOp]) -> BoxedStrategy<BinOp> {
    (0usize..ops.len()).prop_map(move |k| ops[k]).boxed()
}

/// Predicates `depth` connectives deep. The leaves cover the vectorised
/// shapes (comparison, `BETWEEN`, `IN`, `IS NULL`) and the fallback's:
/// arithmetic under a comparison (`/` and `%` fail on a zero), `LIKE`, and
/// a bare operand standing where a boolean is expected.
fn arb_predicate(depth: u32) -> BoxedStrategy<Expr> {
    use BinOp::*;
    let cmp = || arb_binop(&[Eq, NotEq, Lt, LtEq, Gt, GtEq]);
    let boxed = |e: Expr| Box::new(e);
    let leaf = prop_oneof![
        (cmp(), arb_operand(), arb_operand()).prop_map(|(op, l, r)| Expr::binary(op, l, r)),
        (arb_operand(), any::<bool>()).prop_map(move |(e, negated)| Expr::IsNull {
            expr: boxed(e),
            negated
        }),
        (arb_operand(), arb_operand(), arb_operand(), any::<bool>()).prop_map(
            move |(e, low, high, negated)| Expr::Between {
                expr: boxed(e),
                low: boxed(low),
                high: boxed(high),
                negated,
            }
        ),
        (
            arb_operand(),
            proptest::collection::vec(arb_operand(), 0..4),
            any::<bool>()
        )
            .prop_map(move |(e, list, negated)| Expr::InList {
                expr: boxed(e),
                list,
                negated
            }),
        (
            cmp(),
            arb_binop(&[Add, Sub, Mul, Div, Mod]),
            arb_operand(),
            arb_operand(),
            arb_operand()
        )
            .prop_map(|(op, arith, a, b, c)| Expr::binary(
                op,
                Expr::binary(arith, a, b),
                c
            )),
        (arb_operand(), arb_operand()).prop_map(|(l, r)| Expr::binary(Like, l, r)),
        arb_operand(),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = move || arb_predicate(depth - 1);
    prop_oneof![
        leaf,
        (arb_binop(&[And, Or]), sub(), sub()).prop_map(|(op, l, r)| Expr::binary(op, l, r)),
        (arb_binop(&[And, Or]), sub(), sub()).prop_map(|(op, l, r)| Expr::binary(op, l, r)),
        sub().prop_map(move |e| Expr::Not(boxed(e))),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The column-at-a-time kernel keeps exactly the rows the row-at-a-time
    /// evaluator keeps, and fails exactly when it fails — through every
    /// layout, NULLs, short-circuits and the per-row fallback.
    #[test]
    fn select_matches_row_wise_evaluation(
        batch in arb_kernel_batch(),
        expr in arb_predicate(3),
    ) {
        let (got, expected) = (expr.select(&batch).ok(), row_wise_select(&expr, &batch));
        prop_assert!(got == expected, "{:?} kept {:?}, row-wise {:?}", expr, got, expected);
    }
}

/// The corners of `Expr::select` by name, each also held to the row-wise
/// reference.
#[test]
fn select_pinned_cases() {
    let schema = Schema::from_pairs(&[("a", DataType::Int), ("t", DataType::Text)]);
    let text = |s: &str| Value::Text(s.to_string());
    let batch = Batch::new(
        schema,
        vec![
            vec![Value::Int(0), text("x")],
            vec![Value::Int(5), Value::Null],
            vec![Value::Int(20), text("")],
            vec![Value::Null, text("ä")],
        ],
    )
    .unwrap();
    assert!(batch.column_ref(0).as_ints().is_some() && batch.column_ref(1).as_texts().is_some());
    let cases: [(&str, Option<&[usize]>); 12] = [
        // short-circuits: the right side never sees the rows that would fail
        ("10 / a > 1", None),
        ("a = 0 OR 10 / a > 1", Some(&[0, 1])),
        ("a <> 0 AND 10 / a > 1", Some(&[1])),
        ("10 / a > 1 OR a = 0", None),
        // an Int column against a Float literal compares through f64
        ("a >= 4.5", Some(&[1, 2])),
        ("a = 5.0", Some(&[1])),
        ("a BETWEEN -0.5 AND 5", Some(&[0, 1])),
        ("a IN (20.0, 7, NULL)", Some(&[2])),
        // Text against Int is ordered by type rank, never an error
        ("t > 5", Some(&[0, 2, 3])),
        ("t < 5 OR t = 5", Some(&[])),
        // NOT NULL is NULL, and NULL keeps no row
        ("NOT (NULL)", Some(&[])),
        ("NOT (NULL) OR a = 0", Some(&[0])),
    ];
    for (text, expected) in cases {
        let expr = parse_expr(text).unwrap();
        let got = expr.select(&batch).ok();
        assert_eq!(got.as_deref(), expected, "{text}");
        assert_eq!(got, row_wise_select(&expr, &batch), "{text} vs row-wise");
    }
}
