//! Lower a parsed `SELECT` into a [`Plan`], with two physical optimizations:
//!
//! 1. **Predicate pushdown** — WHERE conjuncts that reference a single base
//!    table move into that table's scan node (below joins).
//! 2. **Index selection** — a sargable pushed-down conjunct (`col = lit`,
//!    `col </<=/>/>= lit`, `col BETWEEN a AND b`) on an indexed column turns
//!    the scan into an index probe; remaining conjuncts stay as a residual
//!    filter.
//!
//! Aggregation is lowered by extracting `Expr::Aggregate` nodes from the
//! select list and `HAVING` into named aggregate slots, then rewriting the
//! outer expressions to reference those slots.

use crate::db::Database;
use crate::expr::{BinOp, Expr};
use crate::plan::{Access, AggSpec, Plan};
use crate::sql::ast::{SelectItem, SelectStatement};
use bigdawg_common::{BigDawgError, Result, Schema, Value};
use std::ops::Bound;

/// Plan a SELECT against the catalog in `db`.
pub fn plan_select(db: &Database, sel: &SelectStatement) -> Result<Plan> {
    Planner { db }.select(sel)
}

struct Planner<'a> {
    db: &'a Database,
}

impl<'a> Planner<'a> {
    fn select(&self, sel: &SelectStatement) -> Result<Plan> {
        // ---- FROM clause → scans + joins with pushdown ----
        let (mut plan, mut schema) = match &sel.from {
            None => {
                // SELECT <exprs> with no FROM: one empty row.
                let b = bigdawg_common::Batch::new(Schema::default(), vec![vec![]])
                    .expect("empty row matches empty schema");
                (Plan::Values(b), Schema::default())
            }
            Some(from) => {
                let qualify = !sel.joins.is_empty();
                // Split WHERE into conjuncts for pushdown.
                let mut conjuncts = sel
                    .predicate
                    .clone()
                    .map(Expr::conjuncts)
                    .unwrap_or_default();

                let (mut plan, mut schema) =
                    self.scan_with_pushdown(&from.table, &from.alias, qualify, &mut conjuncts)?;

                for join in &sel.joins {
                    let (right_plan, right_schema) = self.scan_with_pushdown(
                        &join.table.table,
                        &join.table.alias,
                        qualify,
                        &mut conjuncts,
                    )?;
                    let joined_schema = schema.join(&right_schema);
                    // Split ON into equi pairs and residual.
                    let mut equi = Vec::new();
                    let mut residual = Vec::new();
                    for c in join.on.clone().conjuncts() {
                        match as_equi_pair(&c, &schema, &right_schema) {
                            Some(pair) => equi.push(pair),
                            None => residual.push(resolve_expr(c, &joined_schema)?),
                        }
                    }
                    plan = Plan::Join {
                        left: Box::new(plan),
                        right: Box::new(right_plan),
                        equi,
                        residual: Expr::conjoin(residual),
                    };
                    schema = joined_schema;
                }

                // Whatever wasn't pushed down filters above the joins.
                if let Some(rest) = Expr::conjoin(
                    conjuncts
                        .into_iter()
                        .map(|c| resolve_expr(c, &schema))
                        .collect::<Result<Vec<_>>>()?,
                ) {
                    plan = Plan::Filter {
                        input: Box::new(plan),
                        predicate: rest,
                    };
                }
                (plan, schema)
            }
        };

        // ---- expand * and name the select items ----
        let mut items: Vec<(Expr, String)> = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            match item {
                SelectItem::Star => {
                    for f in schema.fields() {
                        items.push((Expr::Column(f.name.clone()), bare_name(&f.name)));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| item_name(expr, i));
                    items.push((expr.clone(), name));
                }
            }
        }

        // ---- aggregation ----
        if sel.is_aggregate() {
            let (agg_plan, agg_schema, rewritten_items) =
                self.plan_aggregate(plan, &schema, sel, items)?;
            plan = agg_plan;
            schema = agg_schema;
            items = rewritten_items;
        } else {
            items = items
                .into_iter()
                .map(|(e, n)| Ok((resolve_expr(e, &schema)?, n)))
                .collect::<Result<Vec<_>>>()?;
        }

        // ---- ORDER BY (evaluated against pre-projection schema when
        // possible, falling back to output aliases) ----
        let mut sort_keys: Vec<(Expr, bool)> = Vec::new();
        let out_schema = Schema::from_pairs(
            &items
                .iter()
                .map(|(_, n)| (n.as_str(), bigdawg_common::DataType::Null))
                .collect::<Vec<_>>(),
        );
        for key in &sel.order_by {
            // An ORDER BY key may reference an output alias or an input
            // column. Try output first (`ORDER BY n DESC` for `COUNT(*) AS
            // n`), then input.
            let resolved = resolve_expr(key.expr.clone(), &out_schema)
                .or_else(|_| resolve_expr(key.expr.clone(), &schema))?;
            sort_keys.push((resolved, key.desc));
        }

        // Does any sort key reference a column that exists only *before*
        // projection? If so, sort before projecting; otherwise after (so
        // aliases work). We sort before projection only when needed.
        let sort_needs_input = sort_keys.iter().any(|(e, _)| {
            e.columns()
                .iter()
                .any(|c| out_schema.index_of(c).is_err() && schema.index_of(c).is_ok())
        });

        if sort_needs_input && !sort_keys.is_empty() {
            plan = Plan::Sort {
                input: Box::new(plan),
                keys: sort_keys.clone(),
            };
        }

        plan = Plan::Project {
            input: Box::new(plan),
            exprs: items,
        };

        if sel.distinct {
            plan = Plan::Distinct {
                input: Box::new(plan),
            };
        }

        if !sort_needs_input && !sort_keys.is_empty() {
            plan = Plan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
        }

        if let Some(n) = sel.limit {
            plan = Plan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    /// Build a scan for `table` (output columns qualified when `qualify`),
    /// stealing every conjunct in `conjuncts` that references only this
    /// table. Sargable stolen conjuncts become index probes when an index
    /// exists.
    fn scan_with_pushdown(
        &self,
        table: &str,
        alias: &Option<String>,
        qualify: bool,
        conjuncts: &mut Vec<Expr>,
    ) -> Result<(Plan, Schema)> {
        let t = self.db.table(table)?;
        let qualifier = if qualify {
            Some(alias.clone().unwrap_or_else(|| table.to_string()))
        } else {
            None
        };
        let schema = qualified_schema(t.schema(), &qualifier);

        // Steal conjuncts that resolve fully against this scan's schema.
        let mut mine = Vec::new();
        let mut rest = Vec::new();
        for c in conjuncts.drain(..) {
            match resolve_expr(c.clone(), &schema) {
                Ok(resolved) => mine.push(resolved),
                Err(_) => rest.push(c),
            }
        }
        *conjuncts = rest;

        // Try to convert one sargable conjunct into an index probe.
        let mut access = Access::FullScan;
        let mut residual = Vec::new();
        for c in mine {
            if matches!(access, Access::FullScan) {
                if let Some((acc, leftover)) = self.try_index_access(table, &c) {
                    access = acc;
                    if let Some(l) = leftover {
                        residual.push(l);
                    }
                    continue;
                }
            }
            residual.push(c);
        }

        Ok((
            Plan::Scan {
                table: table.to_string(),
                qualifier,
                access,
                predicate: Expr::conjoin(residual),
            },
            schema,
        ))
    }

    /// If `conjunct` is sargable on an indexed column of `table`, return the
    /// access path plus any leftover predicate.
    fn try_index_access(&self, table: &str, conjunct: &Expr) -> Option<(Access, Option<Expr>)> {
        let (col, op, lit, lit2) = sargable(conjunct)?;
        let bare = bare_name(&col);
        let index = self.db.index_on(table, &bare)?;
        let access = match op {
            SargOp::Eq => Access::IndexEq {
                index: index.to_string(),
                key: lit,
            },
            SargOp::Lt => Access::IndexRange {
                index: index.to_string(),
                low: Bound::Unbounded,
                high: Bound::Excluded(lit),
            },
            SargOp::LtEq => Access::IndexRange {
                index: index.to_string(),
                low: Bound::Unbounded,
                high: Bound::Included(lit),
            },
            SargOp::Gt => Access::IndexRange {
                index: index.to_string(),
                low: Bound::Excluded(lit),
                high: Bound::Unbounded,
            },
            SargOp::GtEq => Access::IndexRange {
                index: index.to_string(),
                low: Bound::Included(lit),
                high: Bound::Unbounded,
            },
            SargOp::Between => Access::IndexRange {
                index: index.to_string(),
                low: Bound::Included(lit),
                high: Bound::Included(lit2?),
            },
        };
        Some((access, None))
    }

    /// Lower an aggregate query: extract aggregates, build the Aggregate
    /// node, and rewrite select items to reference its output.
    #[allow(clippy::type_complexity)]
    fn plan_aggregate(
        &self,
        input: Plan,
        input_schema: &Schema,
        sel: &SelectStatement,
        items: Vec<(Expr, String)>,
    ) -> Result<(Plan, Schema, Vec<(Expr, String)>)> {
        // Named group-by expressions.
        let mut group_by: Vec<(Expr, String)> = Vec::new();
        for (i, g) in sel.group_by.iter().enumerate() {
            let resolved = resolve_expr(g.clone(), input_schema)?;
            let name = match &resolved {
                Expr::Column(c) => c.clone(),
                _ => format!("__grp{i}"),
            };
            group_by.push((resolved, name));
        }

        // Collect unique aggregate specs from items + HAVING.
        let mut aggs: Vec<(AggSpec, String)> = Vec::new();
        let collect = |expr: &Expr, aggs: &mut Vec<(AggSpec, String)>| -> Result<()> {
            let mut err = None;
            visit_aggregates(expr, &mut |func, arg, distinct| {
                let resolved_arg = match arg {
                    Some(a) => match resolve_expr(a.clone(), input_schema) {
                        Ok(r) => Some(r),
                        Err(e) => {
                            err.get_or_insert(e);
                            return;
                        }
                    },
                    None => None,
                };
                let spec = AggSpec {
                    func,
                    arg: resolved_arg,
                    distinct,
                };
                if !aggs.iter().any(|(s, _)| *s == spec) {
                    let name = format!("__agg{}", aggs.len());
                    aggs.push((spec, name));
                }
            });
            err.map_or(Ok(()), Err)
        };
        for (e, _) in &items {
            collect(e, &mut aggs)?;
        }
        if let Some(h) = &sel.having {
            collect(h, &mut aggs)?;
        }

        // Output schema of the Aggregate node.
        let mut agg_schema_pairs: Vec<(&str, bigdawg_common::DataType)> = Vec::new();
        for (_, name) in &group_by {
            agg_schema_pairs.push((name.as_str(), bigdawg_common::DataType::Null));
        }
        for (_, name) in &aggs {
            agg_schema_pairs.push((name.as_str(), bigdawg_common::DataType::Null));
        }
        let agg_schema = Schema::from_pairs(&agg_schema_pairs);

        // Rewrite helper: aggregates → their slot column; group-by exprs →
        // their slot column; anything else must resolve against group slots.
        let rewrite = |e: Expr| -> Result<Expr> {
            let rewritten = rewrite_aggregates(e, &aggs, input_schema)?;
            let rewritten = substitute_group_exprs(rewritten, &group_by, input_schema);
            // Validate: every remaining column must exist in agg output.
            resolve_expr(rewritten, &agg_schema).map_err(|_| {
                BigDawgError::Parse(
                    "select list references a column that is neither grouped nor aggregated".into(),
                )
            })
        };

        let rewritten_items = items
            .into_iter()
            .map(|(e, n)| Ok((rewrite(e)?, n)))
            .collect::<Result<Vec<_>>>()?;
        let having = sel.having.clone().map(rewrite).transpose()?;

        let plan = Plan::Aggregate {
            input: Box::new(input),
            group_by,
            aggs,
            having,
        };
        Ok((plan, agg_schema, rewritten_items))
    }
}

/// Strip a `qualifier.` prefix.
fn bare_name(name: &str) -> String {
    match name.rsplit_once('.') {
        Some((_, bare)) => bare.to_string(),
        None => name.to_string(),
    }
}

/// Output column name for an unaliased select expression.
fn item_name(expr: &Expr, idx: usize) -> String {
    match expr {
        Expr::Column(c) => bare_name(c),
        Expr::Aggregate { func, arg, .. } => match arg {
            Some(a) => match a.as_ref() {
                Expr::Column(c) => format!("{func}_{}", bare_name(c)),
                _ => format!("{func}"),
            },
            None => format!("{func}"),
        },
        _ => format!("col{idx}"),
    }
}

/// Qualify every field name with `q.` when a qualifier is present.
pub(crate) fn qualified_schema(schema: &Schema, qualifier: &Option<String>) -> Schema {
    match qualifier {
        None => schema.clone(),
        Some(q) => Schema::from_pairs(
            &schema
                .fields()
                .iter()
                .map(|f| (format!("{q}.{}", f.name), f.data_type))
                .collect::<Vec<_>>()
                .iter()
                .map(|(n, t)| (n.as_str(), *t))
                .collect::<Vec<_>>(),
        ),
    }
}

/// Resolve every column reference in `expr` against `schema`, rewriting the
/// node to the exact field name. Resolution tries, in order: exact match;
/// bare suffix of a qualified reference; unique `*.name` suffix match.
pub fn resolve_expr(expr: Expr, schema: &Schema) -> Result<Expr> {
    expr.map_columns(&mut |name| resolve_column(schema, &name))
}

fn resolve_column(schema: &Schema, name: &str) -> Result<String> {
    if schema.index_of(name).is_ok() {
        return Ok(name.to_string());
    }
    // Qualified ref against unqualified schema: `p.age` → `age`.
    if let Some((_, bare)) = name.rsplit_once('.') {
        if schema.index_of(bare).is_ok() {
            return Ok(bare.to_string());
        }
    }
    // Unqualified ref against qualified schema: `age` → unique `*.age`.
    let suffix = format!(".{name}");
    let matches: Vec<&str> = schema
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .filter(|f| f.ends_with(&suffix))
        .collect();
    match matches.len() {
        1 => Ok(matches[0].to_string()),
        0 => Err(BigDawgError::NotFound(format!("column `{name}`"))),
        _ => Err(BigDawgError::Parse(format!(
            "ambiguous column `{name}` (candidates: {matches:?})"
        ))),
    }
}

fn visit_aggregates(expr: &Expr, f: &mut impl FnMut(crate::expr::AggFunc, Option<&Expr>, bool)) {
    match expr {
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => f(*func, arg.as_deref(), *distinct),
        Expr::Binary { left, right, .. } => {
            visit_aggregates(left, f);
            visit_aggregates(right, f);
        }
        Expr::Not(e) | Expr::Neg(e) => visit_aggregates(e, f),
        Expr::IsNull { expr, .. } => visit_aggregates(expr, f),
        Expr::InList { expr, list, .. } => {
            visit_aggregates(expr, f);
            for e in list {
                visit_aggregates(e, f);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            visit_aggregates(expr, f);
            visit_aggregates(low, f);
            visit_aggregates(high, f);
        }
        Expr::Call { args, .. } => {
            for a in args {
                visit_aggregates(a, f);
            }
        }
        Expr::Column(_) | Expr::Literal(_) => {}
    }
}

/// Replace aggregate nodes with references to their named slots.
fn rewrite_aggregates(
    expr: Expr,
    aggs: &[(AggSpec, String)],
    input_schema: &Schema,
) -> Result<Expr> {
    Ok(match expr {
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            let resolved_arg = match arg {
                Some(a) => Some(resolve_expr(*a, input_schema)?),
                None => None,
            };
            let spec = AggSpec {
                func,
                arg: resolved_arg,
                distinct,
            };
            let name = aggs
                .iter()
                .find(|(s, _)| *s == spec)
                .map(|(_, n)| n.clone())
                .ok_or_else(|| BigDawgError::Internal("aggregate slot missing".into()))?;
            Expr::Column(name)
        }
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(rewrite_aggregates(*left, aggs, input_schema)?),
            right: Box::new(rewrite_aggregates(*right, aggs, input_schema)?),
        },
        Expr::Not(e) => Expr::Not(Box::new(rewrite_aggregates(*e, aggs, input_schema)?)),
        Expr::Neg(e) => Expr::Neg(Box::new(rewrite_aggregates(*e, aggs, input_schema)?)),
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_aggregates(*expr, aggs, input_schema)?),
            negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite_aggregates(*expr, aggs, input_schema)?),
            list: list
                .into_iter()
                .map(|e| rewrite_aggregates(e, aggs, input_schema))
                .collect::<Result<_>>()?,
            negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite_aggregates(*expr, aggs, input_schema)?),
            low: Box::new(rewrite_aggregates(*low, aggs, input_schema)?),
            high: Box::new(rewrite_aggregates(*high, aggs, input_schema)?),
            negated,
        },
        Expr::Call { func, args } => Expr::Call {
            func,
            args: args
                .into_iter()
                .map(|e| rewrite_aggregates(e, aggs, input_schema))
                .collect::<Result<_>>()?,
        },
        other => other,
    })
}

/// Replace whole sub-expressions equal to a group-by expression with a
/// reference to that group slot (resolves `GROUP BY x+1` / `SELECT x+1`).
fn substitute_group_exprs(expr: Expr, group_by: &[(Expr, String)], schema: &Schema) -> Expr {
    if let Ok(resolved) = resolve_expr(expr.clone(), schema) {
        for (g, name) in group_by {
            if resolved == *g {
                return Expr::Column(name.clone());
            }
        }
    }
    match expr {
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(substitute_group_exprs(*left, group_by, schema)),
            right: Box::new(substitute_group_exprs(*right, group_by, schema)),
        },
        Expr::Not(e) => Expr::Not(Box::new(substitute_group_exprs(*e, group_by, schema))),
        Expr::Neg(e) => Expr::Neg(Box::new(substitute_group_exprs(*e, group_by, schema))),
        Expr::Call { func, args } => Expr::Call {
            func,
            args: args
                .into_iter()
                .map(|e| substitute_group_exprs(e, group_by, schema))
                .collect(),
        },
        other => other,
    }
}

/// Recognize `left_col = right_col` across a join boundary and return the
/// resolved (left, right) column names.
fn as_equi_pair(expr: &Expr, left: &Schema, right: &Schema) -> Option<(String, String)> {
    if let Expr::Binary {
        op: BinOp::Eq,
        left: a,
        right: b,
    } = expr
    {
        if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
            let (la, ra) = (resolve_column(left, ca), resolve_column(right, ca));
            let (lb, rb) = (resolve_column(left, cb), resolve_column(right, cb));
            // One side must resolve on the left schema, the other on the
            // right, unambiguously.
            if let (Ok(l), Ok(r)) = (&la, &rb) {
                if ra.is_err() && lb.is_err() {
                    return Some((l.clone(), r.clone()));
                }
            }
            if let (Ok(l), Ok(r)) = (&lb, &ra) {
                if rb.is_err() && la.is_err() {
                    return Some((l.clone(), r.clone()));
                }
            }
        }
    }
    None
}

enum SargOp {
    Eq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Between,
}

/// Recognize `col <op> literal` (either orientation) and `col BETWEEN a AND
/// b`. Returns (column, op, literal, optional second literal).
fn sargable(expr: &Expr) -> Option<(String, SargOp, Value, Option<Value>)> {
    match expr {
        Expr::Binary { op, left, right } => {
            let (col, lit, flipped) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => (c.clone(), v.clone(), false),
                (Expr::Literal(v), Expr::Column(c)) => (c.clone(), v.clone(), true),
                _ => return None,
            };
            if lit.is_null() {
                return None;
            }
            let sarg = match (op, flipped) {
                (BinOp::Eq, _) => SargOp::Eq,
                (BinOp::Lt, false) | (BinOp::Gt, true) => SargOp::Lt,
                (BinOp::LtEq, false) | (BinOp::GtEq, true) => SargOp::LtEq,
                (BinOp::Gt, false) | (BinOp::Lt, true) => SargOp::Gt,
                (BinOp::GtEq, false) | (BinOp::LtEq, true) => SargOp::GtEq,
                _ => return None,
            };
            Some((col, sarg, lit, None))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match (expr.as_ref(), low.as_ref(), high.as_ref()) {
            (Expr::Column(c), Expr::Literal(a), Expr::Literal(b))
                if !a.is_null() && !b.is_null() =>
            {
                Some((c.clone(), SargOp::Between, a.clone(), Some(b.clone())))
            }
            _ => None,
        },
        _ => None,
    }
}
