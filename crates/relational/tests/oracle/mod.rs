//! The row-at-a-time executor `relational/src/exec.rs` was until it went
//! batch-to-batch, kept verbatim as the reference the differential tests
//! compare the columnar executor against: every node clones its input rows
//! out of the heap and evaluates expressions one row at a time.

use bigdawg_common::value::GroupKey;
use bigdawg_common::{Batch, BigDawgError, Result, Row, Schema, Value};
use bigdawg_relational::db::Database;
use bigdawg_relational::expr::{AggFunc, Expr};
use bigdawg_relational::plan::{Access, AggSpec, Plan};
use std::collections::{HashMap, HashSet};
use std::ops::Bound;

/// Execute a plan against `db`, producing a batch.
pub fn execute(db: &Database, plan: &Plan) -> Result<Batch> {
    match plan {
        Plan::Values(batch) => Ok(batch.clone()),
        Plan::Scan {
            table,
            qualifier,
            access,
            predicate,
        } => scan(db, table, qualifier, access, predicate),
        Plan::Filter { input, predicate } => {
            let batch = execute(db, input)?;
            let (schema, rows) = batch.into_parts();
            let mut kept = Vec::new();
            for row in rows {
                if predicate.matches(&schema, &row)? {
                    kept.push(row);
                }
            }
            Batch::new(schema, kept)
        }
        Plan::Join {
            left,
            right,
            equi,
            residual,
        } => join(db, left, right, equi, residual),
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => aggregate(db, input, group_by, aggs, having),
        Plan::Project { input, exprs } => {
            let batch = execute(db, input)?;
            let (schema, rows) = batch.into_parts();
            let out_schema = Schema::from_pairs(
                &exprs
                    .iter()
                    .map(|(_, n)| (n.as_str(), bigdawg_common::DataType::Null))
                    .collect::<Vec<_>>(),
            );
            let mut out = Vec::with_capacity(rows.len());
            for row in &rows {
                let mut new_row = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    new_row.push(e.eval(&schema, row)?);
                }
                out.push(new_row);
            }
            Batch::new(out_schema, out)
        }
        Plan::Distinct { input } => {
            let batch = execute(db, input)?;
            let (schema, rows) = batch.into_parts();
            let mut seen: HashSet<Vec<GroupKey>> = HashSet::with_capacity(rows.len());
            let mut out = Vec::new();
            for row in rows {
                let key: Vec<GroupKey> = row.iter().map(Value::group_key).collect();
                if seen.insert(key) {
                    out.push(row);
                }
            }
            Batch::new(schema, out)
        }
        Plan::Sort { input, keys } => {
            let batch = execute(db, input)?;
            let (schema, rows) = batch.into_parts();
            // Decorate-sort-undecorate: evaluate keys once per row.
            let mut decorated: Vec<(Vec<Value>, Row)> = rows
                .into_iter()
                .map(|row| {
                    let key = keys
                        .iter()
                        .map(|(e, _)| e.eval(&schema, &row))
                        .collect::<Result<Vec<_>>>()?;
                    Ok((key, row))
                })
                .collect::<Result<_>>()?;
            decorated.sort_by(|(ka, _), (kb, _)| {
                for ((a, b), (_, desc)) in ka.iter().zip(kb).zip(keys) {
                    let ord = a.cmp(b);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Batch::new(schema, decorated.into_iter().map(|(_, r)| r).collect())
        }
        Plan::Limit { input, n } => {
            let batch = execute(db, input)?;
            let (schema, mut rows) = batch.into_parts();
            rows.truncate(*n);
            Batch::new(schema, rows)
        }
    }
}

fn scan(
    db: &Database,
    table: &str,
    qualifier: &Option<String>,
    access: &Access,
    predicate: &Option<Expr>,
) -> Result<Batch> {
    let t = db.table(table)?;
    let schema = match qualifier {
        None => t.schema().clone(),
        Some(q) => Schema::from_pairs(
            &t.schema()
                .fields()
                .iter()
                .map(|f| (format!("{q}.{}", f.name), f.data_type))
                .collect::<Vec<_>>()
                .iter()
                .map(|(n, ty)| (n.as_str(), *ty))
                .collect::<Vec<_>>(),
        ),
    };

    let candidate_rows: Vec<Row> = match access {
        Access::FullScan => t.iter().map(|(_, r)| r.clone()).collect(),
        Access::IndexEq { index, key } => {
            let ix = db.index(index)?;
            ix.get(key)
                .into_iter()
                .filter_map(|id| t.get(id).cloned())
                .collect()
        }
        Access::IndexRange { index, low, high } => {
            let ix = db.index(index)?;
            let low = match low {
                Bound::Included(v) => Bound::Included(v),
                Bound::Excluded(v) => Bound::Excluded(v),
                Bound::Unbounded => Bound::Unbounded,
            };
            let high = match high {
                Bound::Included(v) => Bound::Included(v),
                Bound::Excluded(v) => Bound::Excluded(v),
                Bound::Unbounded => Bound::Unbounded,
            };
            ix.range(low, high)
                .into_iter()
                .filter_map(|id| t.get(id).cloned())
                .collect()
        }
    };

    let rows = match predicate {
        None => candidate_rows,
        Some(p) => {
            let mut kept = Vec::new();
            for row in candidate_rows {
                if p.matches(&schema, &row)? {
                    kept.push(row);
                }
            }
            kept
        }
    };
    Batch::new(schema, rows)
}

fn join(
    db: &Database,
    left: &Plan,
    right: &Plan,
    equi: &[(String, String)],
    residual: &Option<Expr>,
) -> Result<Batch> {
    let lbatch = execute(db, left)?;
    let rbatch = execute(db, right)?;
    let out_schema = lbatch.schema().join(rbatch.schema());
    let mut out_rows: Vec<Row> = Vec::new();

    if equi.is_empty() {
        // Nested-loop cross join with residual filter.
        for lrow in lbatch.rows() {
            for rrow in rbatch.rows() {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                if match residual {
                    Some(p) => p.matches(&out_schema, &row)?,
                    None => true,
                } {
                    out_rows.push(row);
                }
            }
        }
    } else {
        // Hash join: build on the right side.
        let lcols: Vec<usize> = equi
            .iter()
            .map(|(l, _)| lbatch.schema().index_of(l))
            .collect::<Result<_>>()?;
        let rcols: Vec<usize> = equi
            .iter()
            .map(|(_, r)| rbatch.schema().index_of(r))
            .collect::<Result<_>>()?;
        let mut built: HashMap<Vec<GroupKey>, Vec<&Row>> = HashMap::new();
        'rrows: for rrow in rbatch.rows() {
            let mut key = Vec::with_capacity(rcols.len());
            for &c in &rcols {
                if rrow[c].is_null() {
                    continue 'rrows; // NULL never joins
                }
                key.push(rrow[c].group_key());
            }
            built.entry(key).or_default().push(rrow);
        }
        'lrows: for lrow in lbatch.rows() {
            let mut key = Vec::with_capacity(lcols.len());
            for &c in &lcols {
                if lrow[c].is_null() {
                    continue 'lrows;
                }
                key.push(lrow[c].group_key());
            }
            if let Some(matches) = built.get(&key) {
                for rrow in matches {
                    let mut row = lrow.clone();
                    row.extend(rrow.iter().cloned());
                    if match residual {
                        Some(p) => p.matches(&out_schema, &row)?,
                        None => true,
                    } {
                        out_rows.push(row);
                    }
                }
            }
        }
    }
    Batch::new(out_schema, out_rows)
}

/// Incremental aggregate state.
enum Acc {
    Count(i64),
    Sum {
        sum_f: f64,
        sum_i: i64,
        all_int: bool,
        seen: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    /// Welford's online variance.
    Stddev {
        n: i64,
        mean: f64,
        m2: f64,
    },
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                sum_f: 0.0,
                sum_i: 0,
                all_int: true,
                seen: false,
            },
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Stddev => Acc::Stddev {
                n: 0,
                mean: 0.0,
                m2: 0.0,
            },
        }
    }

    fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum {
                sum_f,
                sum_i,
                all_int,
                seen,
            } => {
                *seen = true;
                match v {
                    Value::Int(i) => {
                        *sum_i = sum_i.checked_add(*i).ok_or_else(|| {
                            BigDawgError::Execution("SUM integer overflow".into())
                        })?;
                        *sum_f += *i as f64;
                    }
                    other => {
                        *all_int = false;
                        *sum_f += other.as_f64()?;
                    }
                }
            }
            Acc::Avg { sum, n } => {
                *sum += v.as_f64()?;
                *n += 1;
            }
            Acc::Min(cur) => {
                if cur.as_ref().is_none_or(|c| v < c) {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                if cur.as_ref().is_none_or(|c| v > c) {
                    *cur = Some(v.clone());
                }
            }
            Acc::Stddev { n, mean, m2 } => {
                let x = v.as_f64()?;
                *n += 1;
                let delta = x - *mean;
                *mean += delta / *n as f64;
                *m2 += delta * (x - *mean);
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum {
                sum_f,
                sum_i,
                all_int,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if all_int {
                    Value::Int(sum_i)
                } else {
                    Value::Float(sum_f)
                }
            }
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Stddev { n, m2, .. } => {
                if n < 2 {
                    Value::Null
                } else {
                    Value::Float((m2 / (n - 1) as f64).sqrt())
                }
            }
        }
    }
}

/// Per-group state: accumulators plus DISTINCT sets where needed.
struct GroupState {
    accs: Vec<Acc>,
    distinct_seen: Vec<Option<HashSet<GroupKey>>>,
}

fn aggregate(
    db: &Database,
    input: &Plan,
    group_by: &[(Expr, String)],
    aggs: &[(AggSpec, String)],
    having: &Option<Expr>,
) -> Result<Batch> {
    let batch = execute(db, input)?;
    let (in_schema, rows) = batch.into_parts();

    let mut groups: HashMap<Vec<GroupKey>, (Row, GroupState)> = HashMap::new();
    // A global aggregate (no GROUP BY) over zero rows must still produce one
    // output row, so seed the single group eagerly.
    if group_by.is_empty() {
        groups.insert(
            Vec::new(),
            (
                Vec::new(),
                GroupState {
                    accs: aggs.iter().map(|(s, _)| Acc::new(s.func)).collect(),
                    distinct_seen: aggs
                        .iter()
                        .map(|(s, _)| s.distinct.then(HashSet::new))
                        .collect(),
                },
            ),
        );
    }

    for row in &rows {
        let mut key_vals = Vec::with_capacity(group_by.len());
        for (e, _) in group_by {
            key_vals.push(e.eval(&in_schema, row)?);
        }
        let key: Vec<GroupKey> = key_vals.iter().map(Value::group_key).collect();
        let entry = groups.entry(key).or_insert_with(|| {
            (
                key_vals.clone(),
                GroupState {
                    accs: aggs.iter().map(|(s, _)| Acc::new(s.func)).collect(),
                    distinct_seen: aggs
                        .iter()
                        .map(|(s, _)| s.distinct.then(HashSet::new))
                        .collect(),
                },
            )
        });
        for (i, (spec, _)) in aggs.iter().enumerate() {
            let v = match &spec.arg {
                None => Value::Int(1), // COUNT(*): every row counts
                Some(a) => a.eval(&in_schema, row)?,
            };
            // SQL semantics: aggregates skip NULL inputs (except COUNT(*)).
            if spec.arg.is_some() && v.is_null() {
                continue;
            }
            if let Some(seen) = &mut entry.1.distinct_seen[i] {
                if !seen.insert(v.group_key()) {
                    continue;
                }
            }
            entry.1.accs[i].update(&v)?;
        }
    }

    let mut pairs: Vec<(&str, bigdawg_common::DataType)> = Vec::new();
    for (_, name) in group_by {
        pairs.push((name.as_str(), bigdawg_common::DataType::Null));
    }
    for (_, name) in aggs {
        pairs.push((name.as_str(), bigdawg_common::DataType::Null));
    }
    let out_schema = Schema::from_pairs(&pairs);

    let mut out_rows = Vec::with_capacity(groups.len());
    for (_, (key_vals, state)) in groups {
        let mut row = key_vals;
        for acc in state.accs {
            row.push(acc.finish());
        }
        if let Some(h) = having {
            if !h.matches(&out_schema, &row)? {
                continue;
            }
        }
        out_rows.push(row);
    }
    // Deterministic output order: sort by group key values.
    out_rows.sort_by(|a, b| {
        a[..group_by.len()]
            .iter()
            .zip(&b[..group_by.len()])
            .map(|(x, y)| x.cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Batch::new(out_schema, out_rows)
}
