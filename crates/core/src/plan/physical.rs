//! Lowering: logical plan → the executor's physical [`exec::Plan`], plus
//! the execution-time application of pushed-down rewrites.
//!
//! Lowering is mechanical — every planning decision (engine, transport,
//! elision, pushdown) was already made by the [`super::passes`] pipeline;
//! this module just flattens the DAG into the scatter-leaf form the
//! executor runs and renders the gather body from the canonical segments.

use crate::exec::{self, Leaf, LeafPushdown, LeafSource, Resolution};
use crate::polystore::BigDawg;
use bigdawg_common::Batch;
use bigdawg_relational::sql::parse_expr;

use super::{LogicalPlan, MoveResolution};

/// Flatten a resolved logical plan into the executor's physical form: one
/// scatter [`Leaf`] per shipped move (pushed-down filters/projections
/// folded into its [`LeafPushdown`]), elided moves recorded as
/// [`Resolution`]s, and the gather body rendered with each move's slot
/// name spliced between the canonical segments.
pub(crate) fn lower(bd: &BigDawg, root: &LogicalPlan) -> exec::Plan {
    let LogicalPlan::Gather {
        island,
        segments,
        inputs,
    } = root
    else {
        unreachable!("plan roots are always Gather nodes");
    };
    let mut leaves = Vec::new();
    let mut placements = Vec::new();
    let mut body = String::new();
    for (i, seg) in segments.iter().enumerate() {
        body.push_str(seg);
        let Some(node) = inputs.get(i) else { continue };
        let LogicalPlan::CastMove {
            input, resolved, ..
        } = node
        else {
            unreachable!("gather inputs are always CastMove nodes");
        };
        let (origin, pushdown) = unwrap_pushdown(input);
        match resolved
            .as_ref()
            .expect("placement pass ran before lowering")
        {
            MoveResolution::Elided { engine, epoch } => {
                let LogicalPlan::Scan { object } = origin else {
                    unreachable!("only object scans are elided");
                };
                body.push_str(object);
                placements.push(Resolution {
                    object: object.clone(),
                    engine: engine.clone(),
                    epoch: *epoch,
                });
            }
            MoveResolution::Ship {
                engine,
                transport,
                temp,
                fallbacks,
            } => {
                let source = match origin {
                    LogicalPlan::Scan { object } => LeafSource::Object(object.clone()),
                    LogicalPlan::IslandExec { query } => LeafSource::SubQuery(query.render()),
                    _ => unreachable!("moves originate at a scan or a nested query"),
                };
                body.push_str(temp);
                leaves.push(Leaf {
                    source,
                    target_engine: engine.clone(),
                    temp: temp.clone(),
                    transport: *transport,
                    fallbacks: fallbacks.clone(),
                    pushdown,
                });
            }
        }
    }
    exec::Plan {
        island: island.clone(),
        body,
        leaves,
        placements,
        breakers: bd.breakers().snapshot(),
        cache: None,
    }
}

/// Peel [`LogicalPlan::Filter`]/[`LogicalPlan::Project`] wrappers off a
/// move's input, folding them into the [`LeafPushdown`] the leaf carries,
/// and return the origin node underneath.
fn unwrap_pushdown(mut node: &LogicalPlan) -> (&LogicalPlan, LeafPushdown) {
    let mut push = LeafPushdown::default();
    loop {
        match node {
            LogicalPlan::Filter { input, predicate } => {
                push.predicate = Some(predicate.clone());
                node = input;
            }
            LogicalPlan::Project { input, columns } => {
                push.columns = Some(columns.clone());
                node = input;
            }
            other => return (other, push),
        }
    }
}

/// Apply a leaf's pushed-down rewrites to the batch it read, *before* it
/// is encoded for the wire: the batch to ship (`None` when nothing applied —
/// ship it as read) and the reason each rewrite that could not run was
/// skipped, so a fallback is never silent.
///
/// Application is deliberately lenient — the gather body re-applies the
/// full predicate and projection, so skipping a rewrite here costs wire
/// bytes but never correctness:
///
/// * the predicate is skipped wholesale unless it parses (`parse`), every
///   column it references exists in the source schema (`missing_column` —
///   the planner verified the gather query's shape, but the source object
///   may expose different columns than the gather-side alias suggested) and
///   every row evaluates cleanly (`eval_error`);
/// * the projection keeps only the intersection of the keep-set with the
///   actual schema, and is skipped (`projection_noop`) when it would drop
///   nothing (or everything — a sign the planner's column attribution
///   missed).
///
/// The predicate runs column-at-a-time over the batch as read
/// ([`bigdawg_relational::Expr::select`]); the projection (an `Arc` bump)
/// goes first, so only the kept rows of the kept columns are ever copied.
pub(crate) fn apply_pushdown(
    batch: &Batch,
    push: &LeafPushdown,
) -> (Option<Batch>, Vec<&'static str>) {
    let mut skipped = Vec::new();
    let selection = (push.predicate.as_deref())
        .and_then(|pred| select(batch, pred).map_err(|why| skipped.push(why)).ok());
    let mut out = None;
    if let Some(keep) = &push.columns {
        let schema = batch.schema();
        let names: Vec<&str> = keep
            .iter()
            .map(String::as_str)
            .filter(|n| schema.index_of(n).is_ok())
            .collect();
        if !names.is_empty() && names.len() < schema.len() {
            out = batch.project(&names).ok();
        } else {
            skipped.push("projection_noop");
        }
    }
    if let Some(rows) = selection {
        out = Some(out.as_ref().unwrap_or(batch).filter(&rows));
    }
    (out, skipped)
}

/// The rows the pushed predicate keeps, or why it cannot be applied.
fn select(batch: &Batch, pred: &str) -> Result<Vec<usize>, &'static str> {
    let expr = parse_expr(pred).map_err(|_| "parse")?;
    let schema = batch.schema();
    if expr
        .columns()
        .iter()
        .any(|col| schema.index_of(col).is_err())
    {
        return Err("missing_column");
    }
    expr.select(batch).map_err(|_| "eval_error")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cast::encode_columnar;
    use bigdawg_common::{ColumnData, DataType, Schema, Value};
    use std::mem::discriminant;

    fn batch() -> Batch {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("v", DataType::Int),
            ("note", DataType::Text),
        ]);
        Batch::from_parts_trusted(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(5), Value::Text("a".into())],
                vec![Value::Int(2), Value::Int(9), Value::Text("b".into())],
                vec![Value::Int(3), Value::Int(12), Value::Text("c".into())],
            ],
        )
    }

    fn push(predicate: Option<&str>, columns: Option<&[&str]>) -> LeafPushdown {
        LeafPushdown {
            predicate: predicate.map(str::to_string),
            columns: columns.map(|c| c.iter().map(|s| s.to_string()).collect()),
        }
    }

    /// The row-at-a-time filter-then-project this module ran before the
    /// columnar kernel — the reference the pushed batch must stay
    /// cell-, layout- and wire-identical to.
    fn row_wise(batch: &Batch, push: &LeafPushdown) -> Option<Batch> {
        let filter = |pred: &str| {
            let expr = parse_expr(pred).ok()?;
            let schema = batch.schema();
            if (expr.columns().iter()).any(|col| schema.index_of(col).is_err()) {
                return None;
            }
            let mut rows = Vec::new();
            for row in batch.rows() {
                if expr.matches(schema, row).ok()? {
                    rows.push(row.clone());
                }
            }
            Some(Batch::from_parts_trusted(schema.clone(), rows))
        };
        let mut out = push.predicate.as_deref().and_then(filter);
        if let Some(keep) = &push.columns {
            let current = out.as_ref().unwrap_or(batch);
            let schema = current.schema();
            let names: Vec<&str> = (keep.iter().map(String::as_str))
                .filter(|n| schema.index_of(n).is_ok())
                .collect();
            if !names.is_empty() && names.len() < schema.len() {
                out = Some(current.project(&names).unwrap());
            }
        }
        out
    }

    /// `apply_pushdown` on the shared fixture, checked against [`row_wise`]:
    /// same schema and column order, same typed layouts, same encoded size.
    fn pushed(push: &LeafPushdown) -> (Option<Batch>, Vec<&'static str>) {
        let (out, skipped) = apply_pushdown(&batch(), push);
        let reference = row_wise(&batch(), push);
        assert_eq!(out, reference);
        if let (Some(out), Some(reference)) = (&out, &reference) {
            assert_eq!(out.schema(), reference.schema());
            let layouts = |b: &Batch| -> Vec<std::mem::Discriminant<ColumnData>> {
                (b.columns().iter().map(|c| discriminant(c.data()))).collect()
            };
            assert_eq!(layouts(out), layouts(reference));
            let wire = |b: &Batch| -> usize {
                (encode_columnar(b, b.len().max(1)).iter().map(Vec::len)).sum()
            };
            assert_eq!(wire(out), wire(reference));
        }
        (out, skipped)
    }

    #[test]
    fn filter_and_projection_apply_before_the_wire() {
        let (out, skipped) = pushed(&push(Some("v >= 9"), Some(&["id", "v"])));
        let out = out.expect("both rewrites apply");
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().names(), vec!["id", "v"]);
        assert!(out.approx_bytes() < batch().approx_bytes());
        assert!(skipped.is_empty());
    }

    #[test]
    fn missing_column_ships_unfiltered_instead_of_erroring() {
        let (out, skipped) = pushed(&push(Some("ghost > 1"), None));
        assert_eq!(out, None);
        assert_eq!(skipped, ["missing_column"]);
    }

    #[test]
    fn projection_intersects_with_the_actual_schema() {
        let (out, skipped) = pushed(&push(None, Some(&["id", "ghost"])));
        assert_eq!(out.expect("id still prunable").schema().names(), ["id"]);
        assert!(skipped.is_empty());
        // keep-set covering the whole schema prunes nothing
        let (out, skipped) = pushed(&push(None, Some(&["id", "note", "v"])));
        assert_eq!(out, None);
        assert_eq!(skipped, ["projection_noop"]);
    }

    #[test]
    fn empty_pushdown_is_a_no_op() {
        let (out, skipped) = pushed(&LeafPushdown::default());
        assert_eq!(out, None);
        assert!(skipped.is_empty());
    }
}
