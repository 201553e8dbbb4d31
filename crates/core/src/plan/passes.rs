//! The deterministic rewrite-pass pipeline over the logical plan.
//!
//! Passes run in a fixed order and each is a pure plan-to-plan rewrite:
//!
//! | # | pass | rewrite | skipped when |
//! |---|------|---------|--------------|
//! | 1 | placement & cost resolution | CAST targets resolved to engines through the monitor's cost model; co-located casts elided; transports and failover edges chosen | never (the serial oracle runs this pass too) |
//! | 2 | predicate pushdown | gather `WHERE` conjuncts that only touch one shipped object are planted as [`LogicalPlan::Filter`] below the move, so rows are dropped *before* they cross the wire | non-relational gather, zero-copy move, or the conjunct does not round-trip through the expression parser |
//! | 3 | projection pruning | only columns the gather body references are kept ([`LogicalPlan::Project`]) below each move | `SELECT *`, unqualified columns in a join, or a zero-copy move |
//!
//! Pushdown and pruning are **best-effort and conservative**: a pass that
//! cannot prove a rewrite safe leaves the plan unchanged, and the gather
//! body always re-applies the full predicate/projection, so a pushed
//! rewrite can narrow what ships but never change the answer. The pushed
//! predicate is also re-checked against the source's actual schema at
//! execution time (`plan::apply_pushdown`, crate-private), which keeps
//! optimized and unoptimized plans agreeing even when the gather query
//! references columns that only exist post-gather (aliases, computed
//! columns).

use crate::cast::Transport;
use crate::monitor::QueryClass;
use crate::polystore::BigDawg;
use crate::shim::EngineKind;
use bigdawg_common::{BigDawgError, Result, Value};
use bigdawg_relational::expr::{Expr, ScalarFn};
use bigdawg_relational::sql::ast::{SelectItem, SelectStatement, Statement, TableRef};
use bigdawg_relational::sql::{parse as parse_sql, parse_expr};

use super::{LogicalPlan, MoveResolution};

/// The query class CAST-target selection is costed under: an object ship
/// lands rows for the gather's scan, so the filter class keeps the choice
/// on the same latency board the relational island itself consults.
const CAST_CLASS: QueryClass = QueryClass::SqlFilter;

/// Pass 1 — placement & cost resolution. For every [`LogicalPlan::CastMove`]:
///
/// * the CAST target (a model name or explicit engine name) is resolved to
///   a concrete engine — model names through
///   [`BigDawg::choose_engine_of_kind`], so the monitor's measured
///   per-class latency (and the circuit-breaker board) picks among several
///   engines of the kind instead of "first by name";
/// * a move whose object already has a copy on the target engine is
///   **elided** ([`MoveResolution::Elided`]) — the migrator's payoff;
/// * otherwise the transport is structural (zero-copy when no wire is
///   crossed, else the columnar codec), failover edges are collected
///   under a failover-enabled policy, and a temporary name is reserved
///   ([`MoveResolution::Ship`]).
pub fn resolve_placements(bd: &BigDawg, root: &mut LogicalPlan) -> Result<()> {
    let LogicalPlan::Gather { inputs, .. } = root else {
        return Ok(());
    };
    let failover = bd.retry_policy().failover;
    for node in inputs.iter_mut() {
        let LogicalPlan::CastMove {
            input,
            target,
            resolved,
        } = node
        else {
            continue;
        };
        let target_engine = resolve_target(bd, target)?;
        // a sub-query's rows are materialized from coordinator memory, so
        // only the target's side of the wire matters; an object ship also
        // crosses the source's wire
        let mut zero_copy = bd.co_resident(&target_engine);
        let mut fallbacks = Vec::new();
        if let LogicalPlan::Scan { object } = input.as_ref() {
            let Ok(entry) = bd.placement(object) else {
                return Err(BigDawgError::NotFound(format!(
                    "CAST source `{object}` (not an object or nested scope query)"
                )));
            };
            if entry.located_on(&target_engine) {
                *resolved = Some(MoveResolution::Elided {
                    engine: target_engine,
                    epoch: entry.epoch,
                });
                continue;
            }
            // an object that must cross its home engine's wire cannot
            // ship zero-copy, whatever the target's side looks like
            zero_copy &= bd.co_resident(&entry.engine);
            if failover {
                // failover edges: the leaf reads the primary first, and a
                // transient failure falls back to the surviving replicas
                fallbacks = entry.replicas.to_vec();
            }
        }
        *resolved = Some(MoveResolution::Ship {
            engine: target_engine,
            transport: if zero_copy {
                Transport::ZeroCopy
            } else {
                Transport::Binary
            },
            temp: bd.temp_name(),
            fallbacks,
        });
    }
    Ok(())
}

/// Resolve a CAST target: a model name (`relation`, `array`, `text`,
/// `tile`, `dataset`, `stream`) picks an engine of that kind through the
/// monitor's cost model; anything else must be an explicit engine name.
fn resolve_target(bd: &BigDawg, target: &str) -> Result<String> {
    let t = target.trim().to_ascii_lowercase();
    let kind = match t.as_str() {
        "relation" | "relational" | "table" => Some(EngineKind::Relational),
        "array" => Some(EngineKind::Array),
        "text" | "corpus" => Some(EngineKind::KeyValue),
        "tile" | "tiles" => Some(EngineKind::TileStore),
        "dataset" => Some(EngineKind::Compute),
        "stream" => Some(EngineKind::Streaming),
        _ => None,
    };
    match kind {
        Some(k) => bd.choose_engine_of_kind(k, CAST_CLASS),
        None => {
            if bd.engine_names().iter().any(|e| *e == t) {
                Ok(t)
            } else {
                Err(BigDawgError::NotFound(format!(
                    "CAST target `{target}` (not a model name or engine)"
                )))
            }
        }
    }
}

/// Passes 2 and 3 — predicate pushdown and projection pruning. Both need
/// the gather body parsed as SQL, so they share one parse here; each is
/// its own rewrite over the move inputs. Anything unparseable (array AFL,
/// text search, native bodies) or non-relational is left untouched.
pub fn optimize(root: &mut LogicalPlan) {
    let LogicalPlan::Gather {
        island,
        segments,
        inputs,
    } = root
    else {
        return;
    };
    if !island.eq_ignore_ascii_case("relational") {
        return;
    }
    // render the gather body exactly as it will execute (temps spliced in)
    let mut sql = String::new();
    for (i, seg) in segments.iter().enumerate() {
        sql.push_str(seg);
        if let Some(node) = inputs.get(i) {
            match slot_name(node) {
                Some(name) => sql.push_str(name),
                None => return, // unresolved move: nothing to optimize yet
            }
        }
    }
    let Ok(Statement::Select(sel)) = parse_sql(&sql) else {
        return;
    };
    push_predicates(&sel, inputs);
    prune_projections(&sel, inputs);
}

/// The name a move contributes to the gather body: its reserved temp, or
/// the object's own name for an elided cast.
fn slot_name(node: &LogicalPlan) -> Option<&str> {
    let LogicalPlan::CastMove {
        input, resolved, ..
    } = node
    else {
        return None;
    };
    match resolved {
        Some(MoveResolution::Ship { temp, .. }) => Some(temp),
        Some(MoveResolution::Elided { .. }) => match input.as_ref() {
            LogicalPlan::Scan { object } => Some(object),
            _ => None,
        },
        None => None,
    }
}

/// How the gather SQL refers to a table slot: the alias if one was given,
/// else the table name itself. `None` when the slot is not referenced as
/// a table exactly once (not referenced, or self-joined twice — both
/// cases where per-slot attribution is ambiguous).
fn qualifier<'a>(sel: &'a SelectStatement, slot: &str) -> Option<&'a str> {
    let mut refs = sel
        .from
        .iter()
        .chain(sel.joins.iter().map(|j| &j.table))
        .filter(|t| t.table == slot);
    let first: &TableRef = refs.next()?;
    if refs.next().is_some() {
        return None;
    }
    Some(first.alias.as_deref().unwrap_or(&first.table))
}

/// Is this move a shipped (non-elided) scan that pays for wire bytes?
/// Zero-copy moves hand columns over by `Arc` — filtering or projecting
/// them would cost a copy to save nothing.
fn wire_ship(node: &LogicalPlan) -> bool {
    matches!(
        node,
        LogicalPlan::CastMove {
            resolved: Some(MoveResolution::Ship { transport, .. }),
            ..
        } if *transport != Transport::ZeroCopy
    )
}

/// Walk past pushed-down wrappers to the move's origin.
fn origin(mut node: &LogicalPlan) -> &LogicalPlan {
    loop {
        match node {
            LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
                node = input;
            }
            other => return other,
        }
    }
}

/// Pass 2 — predicate pushdown. A gather `WHERE` conjunct moves below a
/// shipped scan when every column it references belongs to that slot
/// (qualified by its alias, or unqualified with the slot as the only
/// table), it contains no aggregate, and its rendered form re-parses to
/// the identical expression. The conjunct is *kept* in the gather body —
/// re-applying a filter is free and keeps the rewrite trivially sound.
fn push_predicates(sel: &SelectStatement, inputs: &mut [LogicalPlan]) {
    let Some(pred) = &sel.predicate else {
        return;
    };
    let conjuncts = pred.clone().conjuncts();
    let lone_from = sel.joins.is_empty();
    for node in inputs.iter_mut() {
        if !wire_ship(node) {
            continue;
        }
        let LogicalPlan::CastMove { input, .. } = node else {
            continue;
        };
        let LogicalPlan::Scan { .. } = origin(input) else {
            continue; // sub-query rows never re-cross a wire from source
        };
        let Some(slot) = slot_name(node).map(str::to_string) else {
            continue;
        };
        let Some(qual) = qualifier(sel, &slot).map(str::to_string) else {
            continue;
        };
        let mut pushed: Vec<String> = Vec::new();
        for conjunct in &conjuncts {
            if conjunct.contains_aggregate() {
                continue;
            }
            let cols = conjunct.columns();
            if cols.is_empty() {
                continue; // constant term: nothing to save
            }
            let all_ours = cols.iter().all(|col| match col.split_once('.') {
                Some((q, _)) => q == qual,
                None => lone_from,
            });
            if !all_ours {
                continue;
            }
            let stripped = strip_qualifier(conjunct, &qual);
            let text = render_expr(&stripped);
            // the renderer must round-trip: a conjunct whose rendering
            // parses back to anything else is silently left at the gather
            if parse_expr(&text).as_ref() == Ok(&stripped) {
                pushed.push(text);
            }
        }
        if pushed.is_empty() {
            continue;
        }
        let LogicalPlan::CastMove { input, .. } = node else {
            unreachable!("checked above");
        };
        let inner = std::mem::replace(
            input.as_mut(),
            LogicalPlan::Scan {
                object: String::new(),
            },
        );
        *input.as_mut() = LogicalPlan::Filter {
            input: Box::new(inner),
            predicate: pushed.join(" AND "),
        };
    }
}

/// Pass 3 — projection pruning. When the gather select list is explicit
/// (no `*`) and every column reference is attributable, each shipped scan
/// keeps only the columns the gather body mentions for its slot. The keep
/// set is re-intersected with the source's actual schema at execution
/// time, so names that only resolve post-gather (aliases) prune nothing.
fn prune_projections(sel: &SelectStatement, inputs: &mut [LogicalPlan]) {
    if sel.items.iter().any(|i| matches!(i, SelectItem::Star)) {
        return;
    }
    let mut cols: Vec<String> = Vec::new();
    let mut collect = |e: &Expr| cols.extend(e.columns().iter().map(|c| c.to_string()));
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect(expr);
        }
    }
    if let Some(p) = &sel.predicate {
        collect(p);
    }
    for j in &sel.joins {
        collect(&j.on);
    }
    for g in &sel.group_by {
        collect(g);
    }
    if let Some(h) = &sel.having {
        collect(h);
    }
    for k in &sel.order_by {
        collect(&k.expr);
    }
    let lone_from = sel.joins.is_empty();
    if !lone_from && cols.iter().any(|c| !c.contains('.')) {
        // unqualified column in a join: attribution is ambiguous, prune
        // nothing rather than guess
        return;
    }
    for node in inputs.iter_mut() {
        if !wire_ship(node) {
            continue;
        }
        let Some(slot) = slot_name(node).map(str::to_string) else {
            continue;
        };
        let Some(qual) = qualifier(sel, &slot).map(str::to_string) else {
            continue;
        };
        let LogicalPlan::CastMove { input, .. } = node else {
            continue;
        };
        if !matches!(origin(input), LogicalPlan::Scan { .. }) {
            continue;
        }
        let mut keep: Vec<String> = cols
            .iter()
            .filter_map(|c| match c.split_once('.') {
                Some((q, bare)) if q == qual => Some(bare.to_string()),
                Some(_) => None,
                None => lone_from.then(|| c.clone()),
            })
            .collect();
        keep.sort();
        keep.dedup();
        if keep.is_empty() {
            continue;
        }
        let inner = std::mem::replace(
            input.as_mut(),
            LogicalPlan::Scan {
                object: String::new(),
            },
        );
        *input.as_mut() = LogicalPlan::Project {
            input: Box::new(inner),
            columns: keep,
        };
    }
}

/// Rewrite `qual.col` column references to bare `col` — the pushed
/// predicate evaluates against the source object, where the gather-side
/// alias does not exist.
fn strip_qualifier(e: &Expr, qual: &str) -> Expr {
    e.clone()
        .map_columns(&mut |name| match name.split_once('.') {
            Some((q, bare)) if q == qual => Ok(bare.to_string()),
            _ => Ok(name),
        })
        .expect("the mapper is infallible")
}

/// Render an expression back to SQL text. Fully parenthesized, so
/// re-parsing never re-associates; [`push_predicates`] only pushes
/// conjuncts whose rendering parses back to the identical tree.
pub(crate) fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Column(name) => name.clone(),
        Expr::Literal(v) => render_value(v),
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => format!(
            "{}({}{})",
            func,
            if *distinct { "DISTINCT " } else { "" },
            arg.as_ref()
                .map_or_else(|| "*".to_string(), |a| render_expr(a)),
        ),
        Expr::Binary { op, left, right } => {
            format!("({} {} {})", render_expr(left), op, render_expr(right))
        }
        Expr::Not(inner) => format!("(NOT {})", render_expr(inner)),
        Expr::Neg(inner) => format!("(-{})", render_expr(inner)),
        Expr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            render_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => format!(
            "({} {}IN ({}))",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            list.iter().map(render_expr).collect::<Vec<_>>().join(", ")
        ),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => format!(
            "({} {}BETWEEN {} AND {})",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            render_expr(low),
            render_expr(high)
        ),
        Expr::Call { func, args } => format!(
            "{}({})",
            scalar_fn_name(*func),
            args.iter().map(render_expr).collect::<Vec<_>>().join(", ")
        ),
    }
}

/// A literal in SQL source form. Unrepresentable values (timestamps, NaN)
/// render to text that fails the round-trip check, which keeps their
/// conjuncts at the gather instead of mis-pushing them.
fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Bool(true) => "TRUE".to_string(),
        Value::Bool(false) => "FALSE".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => format!("{x:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Timestamp(_) => "TIMESTAMP".to_string(),
    }
}

/// The SQL spelling of a scalar function.
fn scalar_fn_name(f: ScalarFn) -> &'static str {
    match f {
        ScalarFn::Abs => "ABS",
        ScalarFn::Lower => "LOWER",
        ScalarFn::Upper => "UPPER",
        ScalarFn::Length => "LENGTH",
        ScalarFn::Coalesce => "COALESCE",
        ScalarFn::Sqrt => "SQRT",
        ScalarFn::Floor => "FLOOR",
        ScalarFn::Ceil => "CEIL",
        ScalarFn::Round => "ROUND",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderer_round_trips_common_predicates() {
        for text in [
            "v >= 9",
            "v > 5 AND w < 3",
            "name LIKE '%ca''st%'",
            "x IS NOT NULL",
            "k IN (1, 2, 3)",
            "v BETWEEN 1.5 AND 2.5",
            "NOT (a = 1 OR b = 2)",
            "ABS(v) > 2",
            "active",
        ] {
            let parsed = parse_expr(text).unwrap();
            let rendered = render_expr(&parsed);
            assert_eq!(
                parse_expr(&rendered).unwrap(),
                parsed,
                "round-trip failed for `{text}` (rendered `{rendered}`)"
            );
        }
    }

    #[test]
    fn strip_qualifier_only_touches_matching_prefix() {
        let e = parse_expr("x.v > other.v AND x.w = 1").unwrap();
        let stripped = strip_qualifier(&e, "x");
        assert_eq!(render_expr(&stripped), "((v > other.v) AND (w = 1))");
    }
}
