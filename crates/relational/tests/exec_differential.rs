//! The batch-to-batch executor against the row-at-a-time executor it
//! replaced (`tests/oracle`): on random tables and random plans the two
//! return the same schema, the same rows in the same order, and fail on the
//! same plans with the same error.
//!
//! Inputs cover what the columnar operators special-case: tables landed as
//! columns and tables inserted row by row (with tombstones and an index to
//! probe), `Values` leaves whose untyped columns are `Mixed` (one join-key
//! column holding `Int`, `Float` and `Text` cells at once), NULLs in every
//! column, Int-vs-Float and text join keys, duplicate and empty build
//! sides, a predicate that fails on one row (`10 / x` where some `x = 0`),
//! multi-key `ORDER BY … DESC` over duplicates, `DISTINCT`, `LIMIT`.

mod oracle;

use bigdawg_common::{Batch, Column, DataType, Row, Schema, Value};
use bigdawg_relational::expr::{AggFunc, BinOp, ScalarFn};
use bigdawg_relational::plan::{Access, AggSpec, Plan};
use bigdawg_relational::{exec, Database, Expr};
use proptest::prelude::*;
use std::ops::Bound;

/// splitmix64: the proptest seed drives every choice below.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())].clone()
    }
}

/// A join-key cell of `ty` from a three-value domain, so keys repeat.
fn key_cell(g: &mut Gen, ty: DataType) -> Value {
    let k = g.below(3) as i64;
    match ty {
        DataType::Int => Value::Int(k),
        DataType::Float => Value::Float(k as f64),
        _ => Value::Text(format!("k{k}")),
    }
}

/// Rows of `(k, x, y, s)`; `key_types` is what a `k` cell may be — more
/// than one makes the column heterogeneous.
fn rows(g: &mut Gen, key_types: &[DataType]) -> Vec<Row> {
    // a rare 0: `10 / x` fails on about one row of a table in three
    let xs = [-1, 1, 2, 3, 10].map(Value::Int);
    let ys = [-0.0, 0.0, 0.5, 2.0, f64::NAN].map(Value::Float);
    let ss = ["a", "b", "ab", "B", ""].map(|s| Value::Text(s.into()));
    // one table in ten is empty
    let len = if g.chance(10) { 0 } else { 4 + g.below(13) };
    (0..len)
        .map(|_| {
            let ty = g.pick(key_types);
            let x = if g.chance(3) {
                Value::Int(0)
            } else {
                g.pick(&xs)
            };
            let row = vec![key_cell(g, ty), x, g.pick(&ys), g.pick(&ss)];
            let nullable = |v| if g.chance(15) { Value::Null } else { v };
            row.into_iter().map(nullable).collect()
        })
        .collect()
}

fn table_schema(key: DataType) -> Schema {
    Schema::from_pairs(&[
        ("k", key),
        ("x", DataType::Int),
        ("y", DataType::Float),
        ("s", DataType::Text),
    ])
}

/// One plan leaf producing columns `{q}.k, {q}.x, {q}.y, {q}.s`.
fn leaf(g: &mut Gen, db: &mut Database, q: &str, key: DataType) -> Plan {
    let table = format!("t_{q}");
    let mut access = Access::FullScan;
    match g.below(3) {
        // untyped `Values`: every column `Mixed`, `k` of any type per cell
        0 => {
            let names = ["k", "x", "y", "s"].map(|c| format!("{q}.{c}"));
            let pairs: Vec<(&str, DataType)> =
                names.iter().map(|n| (n.as_str(), DataType::Null)).collect();
            let key_types = [key, key, DataType::Int, DataType::Float, DataType::Text];
            let batch = Batch::new(Schema::from_pairs(&pairs), rows(g, &key_types)).unwrap();
            return Plan::Values(batch);
        }
        // landed as columns
        1 => {
            let batch = Batch::new(table_schema(key), rows(g, &[key])).unwrap();
            db.load_table(&table, batch).unwrap();
        }
        // inserted row by row, some rows deleted again, `x` indexed
        _ => {
            db.create_table(&table, table_schema(key)).unwrap();
            db.insert_rows(&table, rows(g, &[key])).unwrap();
            if g.chance(50) {
                db.execute(&format!("DELETE FROM {table} WHERE x = 1"))
                    .unwrap();
            }
            let index = format!("ix_{q}");
            db.create_index(&index, &table, "x").unwrap();
            let bound = |g: &mut Gen| match g.below(3) {
                0 => Bound::Unbounded,
                1 => Bound::Included(Value::Int(g.below(4) as i64)),
                _ => Bound::Excluded(Value::Int(g.below(4) as i64)),
            };
            access = match g.below(3) {
                0 => Access::FullScan,
                1 => Access::IndexEq {
                    index,
                    key: Value::Int(g.below(4) as i64),
                },
                _ => Access::IndexRange {
                    index,
                    low: bound(g),
                    high: bound(g),
                },
            };
        }
    }
    let predicate = g.chance(35).then(|| predicate(g, &[q], 2));
    Plan::Scan {
        table,
        qualifier: Some(q.to_string()),
        access,
        predicate,
    }
}

fn col(q: &str, c: &str) -> Expr {
    Expr::col(format!("{q}.{c}"))
}

/// A predicate over the columns of the inputs named `qs`.
fn predicate(g: &mut Gen, qs: &[&str], depth: usize) -> Expr {
    let q = g.pick(qs);
    if depth > 0 && g.chance(40) {
        let (l, r) = (predicate(g, qs, depth - 1), predicate(g, qs, depth - 1));
        return match g.below(3) {
            0 => Expr::and(l, r),
            1 => Expr::binary(BinOp::Or, l, r),
            _ => Expr::Not(Box::new(l)),
        };
    }
    let cmp = g.pick(&[BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::GtEq]);
    match g.below(9) {
        0 => Expr::binary(cmp, col(q, "x"), Expr::lit(g.below(4) as i64)),
        1 => Expr::binary(cmp, col(q, "y"), Expr::lit(0.5)),
        2 => Expr::binary(cmp, col(q, "s"), Expr::lit("ab")),
        // `k` may be any type, or several: the comparison is by type rank
        3 => Expr::binary(cmp, col(q, "k"), Expr::lit(2)),
        4 => Expr::IsNull {
            expr: Box::new(col(q, g.pick(&["k", "x", "s"]))),
            negated: g.chance(50),
        },
        5 => Expr::Between {
            expr: Box::new(col(q, "x")),
            low: Box::new(Expr::lit(0)),
            high: Box::new(Expr::lit(2)),
            negated: g.chance(30),
        },
        6 => Expr::InList {
            expr: Box::new(col(q, "s")),
            list: vec![Expr::lit("a"), Expr::lit("B"), Expr::lit(Value::Null)],
            negated: g.chance(30),
        },
        7 => Expr::binary(BinOp::Like, col(q, "s"), Expr::lit("a%")),
        // fails on the rows where x = 0
        _ => Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Div, Expr::lit(10), col(q, "x")),
            Expr::lit(4),
        ),
    }
}

/// A select-list or sort-key expression over input `q`.
fn scalar(g: &mut Gen, q: &str) -> Expr {
    match g.below(8) {
        0 => Expr::binary(BinOp::Add, col(q, "x"), Expr::lit(1)),
        1 => Expr::binary(BinOp::Mul, col(q, "y"), col(q, "x")),
        2 => Expr::binary(BinOp::Div, Expr::lit(10), col(q, "x")),
        3 => Expr::Call {
            func: ScalarFn::Upper,
            args: vec![col(q, "s")],
        },
        4 => Expr::Call {
            func: ScalarFn::Coalesce,
            args: vec![col(q, "x"), Expr::lit(-7)],
        },
        _ => col(q, g.pick(&["k", "x", "y", "s"])),
    }
}

fn sort_keys(g: &mut Gen, mut key: impl FnMut(&mut Gen) -> Expr) -> Vec<(Expr, bool)> {
    (0..1 + g.below(3))
        .map(|_| (key(g), g.chance(50)))
        .collect()
}

/// A random plan over freshly loaded tables of `db`.
fn plan(g: &mut Gen, db: &mut Database) -> Plan {
    const KEY_TYPES: [DataType; 3] = [DataType::Int, DataType::Float, DataType::Text];
    let key = g.pick(&KEY_TYPES);
    let mut plan = leaf(g, db, "l", key);
    let mut qs = vec!["l"];
    if g.chance(60) {
        let equi: Vec<(String, String)> = g
            .pick(&[
                vec![],
                vec!["k"],
                vec!["k"],
                vec!["k", "x"],
                vec!["s"],
                vec!["x"],
            ])
            .into_iter()
            .map(|c| (format!("l.{c}"), format!("r.{c}")))
            .collect();
        qs.push("r");
        // half the joins may meet a key of another type on the right
        let right_key = g.pick(&[
            key,
            key,
            key,
            DataType::Int,
            DataType::Float,
            DataType::Text,
        ]);
        plan = Plan::Join {
            left: Box::new(plan),
            right: Box::new(leaf(g, db, "r", right_key)),
            equi,
            residual: g.chance(30).then(|| predicate(g, &qs, 1)),
        };
    }
    if g.chance(30) {
        plan = Plan::Filter {
            input: Box::new(plan),
            predicate: predicate(g, &qs, 2),
        };
    }
    if g.chance(20) {
        // grouped on homogeneous columns only: `k` of a `Values` leaf holds
        // keys that compare equal but hash apart (1 and 1.0), whose relative
        // order out of a hash aggregate is not defined
        let agg = |func, arg: Option<Expr>, name: &str| {
            let spec = AggSpec {
                func,
                arg,
                distinct: false,
            };
            (spec, name.to_string())
        };
        return Plan::Aggregate {
            input: Box::new(plan),
            group_by: vec![(col("l", g.pick(&["x", "s"])), "g".into())],
            aggs: vec![
                agg(AggFunc::Count, None, "n"),
                agg(AggFunc::Sum, Some(col("l", "x")), "sx"),
                agg(AggFunc::Min, Some(col("l", "s")), "ms"),
            ],
            having: None,
        };
    }
    if g.chance(35) {
        plan = Plan::Sort {
            input: Box::new(plan),
            keys: sort_keys(g, |g| {
                let q = g.pick(&qs);
                scalar(g, q)
            }),
        };
    }
    let exprs: Vec<(Expr, String)> = (0..1 + g.below(4))
        .map(|i| {
            let q = g.pick(&qs);
            (scalar(g, q), format!("c{i}"))
        })
        .collect();
    let outputs = exprs.len();
    plan = Plan::Project {
        input: Box::new(plan),
        exprs,
    };
    if g.chance(25) {
        plan = Plan::Distinct {
            input: Box::new(plan),
        };
    }
    if g.chance(50) {
        plan = Plan::Sort {
            input: Box::new(plan),
            keys: sort_keys(g, |g| Expr::col(format!("c{}", g.below(outputs)))),
        };
    }
    if g.chance(35) {
        plan = Plan::Limit {
            input: Box::new(plan),
            n: g.below(8),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn batch_executor_answers_what_the_row_executor_answered(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut db = Database::new();
        let plan = plan(&mut g, &mut db);
        match (exec::execute(&db, &plan), oracle::execute(&db, &plan)) {
            (Ok(got), Ok(want)) => {
                prop_assert!(got.schema() == want.schema(), "schema of {plan:?}");
                // `Debug`, not `==`: Int(1) and Float(1.0) compare equal
                prop_assert!(
                    format!("{:?}", got.rows()) == format!("{:?}", want.rows()),
                    "{plan:?}\n got {:?}\nwant {:?}", got.rows(), want.rows()
                );
            }
            (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
            (got, want) => prop_assert!(false, "{plan:?}\n got {got:?}\nwant {want:?}"),
        }
    }
}

/// The tables above join to a few hundred candidate pairs at most; a join
/// tests its residual a block of candidates at a time, so these span many
/// blocks — a cross join and a hash join over heavy duplicates, each with a
/// selective residual, and a residual that fails on a pair deep in the
/// product.
#[test]
fn a_residual_is_tested_over_many_blocks_of_pairs() {
    let mut db = Database::new();
    for (q, shift) in [("l", 0), ("r", 250)] {
        let ids: Vec<i64> = (0..300).collect();
        let batch = Batch::from_columns(
            table_schema(DataType::Int),
            vec![
                Column::from_ints(ids.iter().map(|i| i % 3).collect()),
                Column::from_ints(ids.iter().map(|i| i + shift).collect()),
                Column::from_floats(ids.iter().map(|i| (i % 11) as f64).collect()),
                Column::from_texts(ids.iter().map(|i| format!("s{}", i % 7)).collect()),
            ],
        )
        .unwrap();
        db.load_table(&format!("t_{q}"), batch).unwrap();
    }
    let scan = |q: &str| Plan::Scan {
        table: format!("t_{q}"),
        qualifier: Some(q.to_string()),
        access: Access::FullScan,
        predicate: None,
    };
    let join = |equi: &[&str], residual: Expr| Plan::Join {
        left: Box::new(scan("l")),
        right: Box::new(scan("r")),
        equi: (equi.iter())
            .map(|c| (format!("l.{c}"), format!("r.{c}")))
            .collect(),
        residual: Some(residual),
    };
    let minus = |l, r| Expr::binary(BinOp::Sub, l, r);
    // l.x = r.x - 1: 49 of 90 000 pairs, the first in block 18
    let adjacent = Expr::eq(col("l", "x"), minus(col("r", "x"), Expr::lit(1)));
    // 10 / (l.x - r.x) fails where l.x = r.x, first at pair 75 000
    let failing = Expr::binary(
        BinOp::Gt,
        Expr::binary(
            BinOp::Div,
            Expr::lit(10),
            minus(col("l", "x"), col("r", "x")),
        ),
        Expr::lit(4),
    );
    let same_note = Expr::and(
        Expr::eq(col("l", "s"), col("r", "s")),
        Expr::binary(BinOp::Lt, col("l", "y"), col("r", "y")),
    );
    let mut failed = 0;
    for plan in [
        join(&[], adjacent),
        join(&[], failing),
        // 30 000 candidates out of the hash table
        join(&["k"], same_note),
    ] {
        match (exec::execute(&db, &plan), oracle::execute(&db, &plan)) {
            (Ok(got), Ok(want)) => {
                assert!(!want.is_empty() && want.len() < 5_000, "{}", want.len());
                assert_eq!(got.schema(), want.schema());
                assert_eq!(format!("{:?}", got.rows()), format!("{:?}", want.rows()));
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.to_string(), want.to_string());
                failed += 1;
            }
            (got, want) => panic!("{plan:?}\n got {got:?}\nwant {want:?}"),
        }
    }
    assert_eq!(failed, 1, "the division by zero, and only it");
}

// ---- landing parity ----------------------------------------------------------

fn readings() -> Batch {
    let ids: Vec<i64> = (0..40).collect();
    let mut v = Column::with_capacity(DataType::Float, 40);
    for i in &ids {
        v.push(if i % 7 == 0 {
            Value::Null
        } else {
            Value::Float(*i as f64 / 4.0)
        });
    }
    Batch::from_columns(
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("v", DataType::Float),
            ("note", DataType::Text),
        ]),
        vec![
            Column::from_ints(ids.clone()),
            v,
            Column::from_texts(ids.iter().map(|i| format!("n{}", i % 5)).collect()),
        ],
    )
    .unwrap()
}

/// The same batch landed as columns and landed row by row is the same
/// table: to `get_table`, to queries, and after the writes and the index
/// build that make the columnar table materialise its heap.
#[test]
fn columnar_landing_equals_row_landing() {
    let input = readings();
    let mut columnar = Database::new();
    columnar.load_table("r", input.clone()).unwrap();
    let mut by_row = Database::new();
    by_row.create_table("r", input.schema().clone()).unwrap();
    by_row.insert_rows("r", readings().into_rows()).unwrap();

    let landed = columnar.table("r").unwrap().snapshot();
    assert!(
        std::sync::Arc::ptr_eq(&landed.columns()[2], &input.columns()[2]),
        "the landed table's image is the delivered columns"
    );
    let same = |columnar: &mut Database, by_row: &mut Database, what: &str| {
        let (a, b) = (
            columnar.table("r").unwrap().snapshot(),
            by_row.table("r").unwrap().snapshot(),
        );
        assert_eq!(a.schema(), b.schema(), "{what}");
        assert_eq!(
            format!("{:?}", a.rows()),
            format!("{:?}", b.rows()),
            "{what}"
        );
        for sql in [
            "SELECT id, v FROM r WHERE v >= 2.5 ORDER BY id DESC",
            "SELECT note, COUNT(*) AS n, SUM(v) AS sv FROM r GROUP BY note ORDER BY note",
            "SELECT id FROM r WHERE id = 12",
            "SELECT a.id, b.v FROM r a JOIN r b ON a.id = b.id WHERE b.v IS NULL ORDER BY a.id",
        ] {
            let (a, b) = (columnar.query(sql).unwrap(), by_row.query(sql).unwrap());
            assert_eq!(
                format!("{:?}", a.rows()),
                format!("{:?}", b.rows()),
                "{what}: {sql}"
            );
        }
    };
    same(&mut columnar, &mut by_row, "as landed");

    for (statement, what) in [
        ("UPDATE r SET v = 99 WHERE id = 3", "after UPDATE"),
        ("DELETE FROM r WHERE id >= 30", "after DELETE"),
        ("CREATE INDEX ix_id ON r (id)", "after CREATE INDEX"),
        ("INSERT INTO r VALUES (100, 1, 'late')", "after INSERT"),
    ] {
        let before = columnar.table("r").unwrap().snapshot();
        let rows_before = format!("{:?}", before.clone().rows());
        columnar.execute(statement).unwrap();
        by_row.execute(statement).unwrap();
        same(&mut columnar, &mut by_row, what);
        assert_eq!(
            format!("{:?}", before.rows()),
            rows_before,
            "a snapshot handed out before the write never sees it"
        );
    }
    assert_eq!(landed, readings(), "nor does the one handed out at landing");
    let plan = columnar.explain("SELECT id FROM r WHERE id = 12").unwrap();
    assert!(plan.contains("index ix_id"), "{plan}");
}

/// A landing that cannot stay columnar takes the checked row path, with
/// the coercions of an `INSERT`. (That a failed one leaves no table behind
/// is `shims::relational::tests::a_failed_landing_leaves_nothing_behind`.)
#[test]
fn a_batch_that_does_not_fit_lands_by_rows() {
    let mut db = Database::new();
    // Int cells under a FLOAT field: coerced, exactly as INSERT would
    db.create_table("t", Schema::from_pairs(&[("f", DataType::Float)]))
        .unwrap();
    let ints = Batch::from_columns(
        Schema::from_pairs(&[("f", DataType::Int)]),
        vec![Column::from_ints(vec![1, 2])],
    )
    .unwrap();
    db.load_table("t", ints).unwrap();
    let stored = db.table("t").unwrap().snapshot();
    assert_eq!(stored.column_ref(0).as_floats().unwrap(), &[1.0, 2.0]);
    // a second load appends
    let more = Batch::from_columns(
        Schema::from_pairs(&[("f", DataType::Float)]),
        vec![Column::from_floats(vec![3.0])],
    )
    .unwrap();
    db.load_table("t", more).unwrap();
    assert_eq!(db.table("t").unwrap().len(), 3);
}
