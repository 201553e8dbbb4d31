//! Scalar expression AST and evaluator.
//!
//! Expressions are shared by the SQL front-end, the planner (predicate
//! pushdown, index-sargability analysis), and the executor. They are also
//! reused by the Myria island, which compiles its relational-algebra plans to
//! the same executor.

use bigdawg_common::{Batch, BigDawgError, ColumnData, NullMask, Result, Row, Schema, Value};
use std::cmp::Ordering;
use std::fmt;

/// Binary operators in increasing-precedence tiers (handled by the parser).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    /// SQL `LIKE` with `%` and `_` wildcards.
    Like,
}

impl BinOp {
    /// `=`, `<>`, `<`, `<=`, `>`, `>=`.
    fn is_comparison(self) -> bool {
        use BinOp::*;
        matches!(self, Eq | NotEq | Lt | LtEq | Gt | GtEq)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Like => "LIKE",
        };
        f.write_str(s)
    }
}

/// Scalar functions available in every island dialect that compiles to this
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    Abs,
    Lower,
    Upper,
    Length,
    /// First non-null argument.
    Coalesce,
    Sqrt,
    Floor,
    Ceil,
    Round,
}

impl ScalarFn {
    pub fn by_name(name: &str) -> Option<ScalarFn> {
        Some(match name.to_ascii_uppercase().as_str() {
            "ABS" => ScalarFn::Abs,
            "LOWER" => ScalarFn::Lower,
            "UPPER" => ScalarFn::Upper,
            "LENGTH" => ScalarFn::Length,
            "COALESCE" => ScalarFn::Coalesce,
            "SQRT" => ScalarFn::Sqrt,
            "FLOOR" => ScalarFn::Floor,
            "CEIL" => ScalarFn::Ceil,
            "ROUND" => ScalarFn::Round,
            _ => return None,
        })
    }
}

/// Aggregate functions (used inside `SELECT`/`HAVING`; lowered to dedicated
/// plan nodes by the planner — evaluating one in scalar context is an error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Sample standard deviation (Welford).
    Stddev,
}

impl AggFunc {
    pub fn by_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "STDDEV" => AggFunc::Stddev,
            _ => return None,
        })
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Stddev => "stddev",
        };
        f.write_str(s)
    }
}

/// A scalar expression evaluated against one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, resolved by name at evaluation time.
    Column(String),
    Literal(Value),
    /// An aggregate call. Only valid inside `SELECT`/`HAVING`; the planner
    /// rewrites these into aggregate plan nodes before execution.
    Aggregate {
        func: AggFunc,
        /// `None` encodes `COUNT(*)`.
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Call {
        func: ScalarFn,
        args: Vec<Expr>,
    },
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::Eq, left, right)
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::And, left, right)
    }

    /// Rebuild the expression with every column reference passed through
    /// `f`; the first error aborts the rewrite.
    pub fn map_columns(self, f: &mut impl FnMut(String) -> Result<String>) -> Result<Expr> {
        Ok(match self {
            Expr::Column(c) => Expr::Column(f(c)?),
            Expr::Literal(v) => Expr::Literal(v),
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => Expr::Aggregate {
                func,
                arg: match arg {
                    Some(a) => Some(Box::new(a.map_columns(f)?)),
                    None => None,
                },
                distinct,
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op,
                left: Box::new(left.map_columns(f)?),
                right: Box::new(right.map_columns(f)?),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.map_columns(f)?)),
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_columns(f)?)),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.map_columns(f)?),
                negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.map_columns(f)?),
                list: list
                    .into_iter()
                    .map(|e| e.map_columns(f))
                    .collect::<Result<_>>()?,
                negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.map_columns(f)?),
                low: Box::new(low.map_columns(f)?),
                high: Box::new(high.map_columns(f)?),
                negated,
            },
            Expr::Call { func, args } => Expr::Call {
                func,
                args: args
                    .into_iter()
                    .map(|e| e.map_columns(f))
                    .collect::<Result<_>>()?,
            },
        })
    }

    /// Evaluate against a row described by `schema`.
    pub fn eval(&self, schema: &Schema, row: &Row) -> Result<Value> {
        match self {
            Expr::Column(name) => {
                let i = schema.index_of(name)?;
                Ok(row[i].clone())
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Aggregate { func, .. } => Err(BigDawgError::Internal(format!(
                "aggregate {func} evaluated in scalar context (planner bug)"
            ))),
            Expr::Binary { op, left, right } => {
                let l = left.eval(schema, row)?;
                // Short-circuit AND/OR with SQL three-valued logic.
                match op {
                    BinOp::And => {
                        return eval_and(&l, || right.eval(schema, row));
                    }
                    BinOp::Or => {
                        return eval_or(&l, || right.eval(schema, row));
                    }
                    _ => {}
                }
                let r = right.eval(schema, row)?;
                eval_binop(*op, &l, &r)
            }
            Expr::Not(inner) => match inner.eval(schema, row)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Bool(!v.as_bool()?)),
            },
            Expr::Neg(inner) => match inner.eval(schema, row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                v => Err(BigDawgError::TypeError(format!(
                    "cannot negate {}",
                    v.data_type()
                ))),
            },
            Expr::IsNull { expr, negated } => {
                let v = expr.eval(schema, row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(schema, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for item in list {
                    let iv = item.eval(schema, row)?;
                    if !iv.is_null() && iv == v {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(schema, row)?;
                let lo = low.eval(schema, row)?;
                let hi = high.eval(schema, row)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let inside = v >= lo && v <= hi;
                Ok(Value::Bool(inside != *negated))
            }
            Expr::Call { func, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(schema, row))
                    .collect::<Result<_>>()?;
                eval_scalar_fn(*func, &vals)
            }
        }
    }

    /// Evaluate as a predicate: NULL counts as false (SQL WHERE semantics).
    pub fn matches(&self, schema: &Schema, row: &Row) -> Result<bool> {
        Ok(self.verdict(schema, row)?.unwrap_or(false))
    }

    /// Evaluate as a predicate, keeping SQL's third truth value: `None` is
    /// NULL.
    fn verdict(&self, schema: &Schema, row: &Row) -> Result<Option<bool>> {
        match self.eval(schema, row)? {
            Value::Bool(b) => Ok(Some(b)),
            Value::Null => Ok(None),
            v => Err(BigDawgError::TypeError(format!(
                "predicate evaluated to non-boolean {}",
                v.data_type()
            ))),
        }
    }

    /// Evaluate as a predicate over a whole batch, column-at-a-time: the
    /// ascending indices of the rows [`Expr::matches`] keeps, and `Err`
    /// exactly when `matches` fails on some row.
    ///
    /// Comparisons, `IS [NOT] NULL`, `BETWEEN` and `IN` whose operands are
    /// columns or literals, and `AND` / `OR` / `NOT` over them, read the
    /// typed column payloads and never build a row. Any other shape
    /// (arithmetic, `LIKE`, scalar calls) falls back to [`Expr::eval`] over
    /// a mini-row of just the columns it references. `AND` evaluates its
    /// right side only on the rows its left side left open, and so does
    /// `OR`: an error the row-wise short-circuit never reaches is not
    /// raised here either.
    pub fn select(&self, batch: &Batch) -> Result<Vec<usize>> {
        let rows: Vec<usize> = (0..batch.len()).collect();
        let truth = self.truth(batch, &rows)?;
        Ok(open_rows(&rows, &truth, |t| t == Some(true)))
    }

    /// This predicate's SQL truth value on each of `rows` (`None` is NULL).
    fn truth(&self, batch: &Batch, rows: &[usize]) -> Result<Vec<Option<bool>>> {
        let lane = |e| Lane::of(e, batch);
        let kernel = match self {
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                left,
                right,
            } => {
                // FALSE decides an AND alone and TRUE an OR; elsewhere the
                // left side is the operator's identity or NULL
                let decided = Some(*op == BinOp::Or);
                let mut out = left.truth(batch, rows)?;
                let open = open_rows(rows, &out, |l| l != decided);
                let mut right = right.truth(batch, &open)?.into_iter();
                for l in out.iter_mut().filter(|l| **l != decided) {
                    let r = right.next().expect("one verdict per open row");
                    *l = if r == decided { r } else { l.and(r) };
                }
                Some(out)
            }
            Expr::Not(inner) => {
                let mut out = inner.truth(batch, rows)?;
                out.iter_mut().for_each(|t| *t = t.map(|b| !b));
                Some(out)
            }
            Expr::Binary { op, left, right } if op.is_comparison() => lane(left)
                .zip(lane(right))
                .map(|(l, r)| each(rows, |i| Some(ord_holds(*op, l.cell(i)?.cmp(r.cell(i)?))))),
            Expr::IsNull { expr, negated } => {
                lane(expr).map(|e| each(rows, |i| Some(e.cell(i).is_none() != *negated)))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => lane(expr)
                .zip(lane(low))
                .zip(lane(high))
                .map(|((v, lo), hi)| {
                    each(rows, |i| {
                        let (v, lo, hi) = (v.cell(i)?, lo.cell(i)?, hi.cell(i)?);
                        Some((v.cmp(lo).is_ge() && v.cmp(hi).is_le()) != *negated)
                    })
                }),
            Expr::InList {
                expr,
                list,
                negated,
            } => lane(expr)
                .zip(list.iter().map(lane).collect::<Option<Vec<_>>>())
                .map(|(v, items)| {
                    each(rows, |i| {
                        let v = v.cell(i)?;
                        let found = |item: &Lane| item.cell(i).is_some_and(|c| c.cmp(v).is_eq());
                        Some(items.iter().any(found) != *negated)
                    })
                }),
            _ => None,
        };
        match kernel {
            Some(out) => Ok(out),
            None => self.truth_by_row(batch, rows),
        }
    }

    /// The fallback behind [`Expr::truth`]: [`Expr::verdict`] per row.
    fn truth_by_row(&self, batch: &Batch, rows: &[usize]) -> Result<Vec<Option<bool>>> {
        self.by_row(batch, rows, |schema, row| self.verdict(schema, row))
    }

    /// This expression's value on every row of `batch` — a projected or
    /// sort-key column. A plain column reference reads its column; any
    /// other shape is [`Expr::eval`] per row, and `Err` exactly when `eval`
    /// fails on some row.
    pub fn eval_batch(&self, batch: &Batch) -> Result<Vec<Value>> {
        if let Expr::Column(name) = self {
            if let Ok(i) = batch.schema().index_of(name) {
                return Ok(batch.column_ref(i).values());
            }
        }
        let rows: Vec<usize> = (0..batch.len()).collect();
        self.by_row(batch, &rows, |schema, row| self.eval(schema, row))
    }

    /// `f` on each of `rows`, handed as a mini-row of only the columns this
    /// expression references. A column the batch lacks is left out, so
    /// `eval` reports it if and when a row reaches it.
    fn by_row<T>(
        &self,
        batch: &Batch,
        rows: &[usize],
        f: impl Fn(&Schema, &Row) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut cols: Vec<usize> = (self.columns().into_iter())
            .filter_map(|c| batch.schema().index_of(c).ok())
            .collect();
        // ascending source order keeps `Schema::index_of`'s first-match rule
        cols.sort_unstable();
        cols.dedup();
        let schema = batch.schema().project(&cols);
        rows.iter()
            .map(|&i| {
                let row: Row = cols.iter().map(|&c| batch.value_at(i, c)).collect();
                f(&schema, &row)
            })
            .collect()
    }

    /// All column names referenced by this expression.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit_columns(&mut |c| out.push(c));
        out
    }

    /// Whether any aggregate call appears in this expression tree.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Column(_) | Expr::Literal(_) => false,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Not(e) | Expr::Neg(e) => e.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::Call { args, .. } => args.iter().any(Expr::contains_aggregate),
        }
    }

    fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Literal(_) => {}
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.visit_columns(f);
                }
            }
            Expr::Binary { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::Not(e) | Expr::Neg(e) => e.visit_columns(f),
            Expr::IsNull { expr, .. } => expr.visit_columns(f),
            Expr::InList { expr, list, .. } => {
                expr.visit_columns(f);
                for e in list {
                    e.visit_columns(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit_columns(f);
                low.visit_columns(f);
                high.visit_columns(f);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.visit_columns(f);
                }
            }
        }
    }

    /// Split a conjunctive predicate into its AND-ed factors.
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuild a conjunction from factors; `None` if empty.
    pub fn conjoin(mut factors: Vec<Expr>) -> Option<Expr> {
        let first = if factors.is_empty() {
            return None;
        } else {
            factors.remove(0)
        };
        Some(factors.into_iter().fold(first, Expr::and))
    }
}

fn eval_and(left: &Value, right: impl FnOnce() -> Result<Value>) -> Result<Value> {
    // SQL 3VL: false AND x = false; null AND true = null.
    match left {
        Value::Bool(false) => Ok(Value::Bool(false)),
        Value::Bool(true) => match right()? {
            Value::Null => Ok(Value::Null),
            v => Ok(Value::Bool(v.as_bool()?)),
        },
        Value::Null => match right()? {
            Value::Bool(false) => Ok(Value::Bool(false)),
            Value::Null | Value::Bool(true) => Ok(Value::Null),
            v => Err(type_err_bool(&v)),
        },
        v => Err(type_err_bool(v)),
    }
}

fn eval_or(left: &Value, right: impl FnOnce() -> Result<Value>) -> Result<Value> {
    match left {
        Value::Bool(true) => Ok(Value::Bool(true)),
        Value::Bool(false) => match right()? {
            Value::Null => Ok(Value::Null),
            v => Ok(Value::Bool(v.as_bool()?)),
        },
        Value::Null => match right()? {
            Value::Bool(true) => Ok(Value::Bool(true)),
            Value::Null | Value::Bool(false) => Ok(Value::Null),
            v => Err(type_err_bool(&v)),
        },
        v => Err(type_err_bool(v)),
    }
}

fn type_err_bool(v: &Value) -> BigDawgError {
    BigDawgError::TypeError(format!("expected boolean operand, got {}", v.data_type()))
}

fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Add => l.add(r),
        Sub => l.sub(r),
        Mul => l.mul(r),
        Div => l.div(r),
        Mod => l.rem(r),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(ord_holds(op, l.cmp(r))))
        }
        Like => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(like_match(l.as_str()?, r.as_str()?)))
        }
        And | Or => unreachable!("handled by eval with short-circuit"),
    }
}

/// Whether comparison `op` holds between operands ordered `ord`.
fn ord_holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::NotEq => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::LtEq => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::GtEq => ord.is_ge(),
        _ => unreachable!("{op} is not a comparison"),
    }
}

/// One verdict per row of `rows`.
fn each(rows: &[usize], verdict: impl Fn(usize) -> Option<bool>) -> Vec<Option<bool>> {
    rows.iter().map(|&i| verdict(i)).collect()
}

/// The rows whose verdict leaves them `open`.
fn open_rows(
    rows: &[usize],
    truth: &[Option<bool>],
    open: impl Fn(Option<bool>) -> bool,
) -> Vec<usize> {
    let kept = rows.iter().zip(truth).filter(|(_, t)| open(**t));
    kept.map(|(&i, _)| i).collect()
}

/// A borrowed non-NULL value, ordered exactly as [`Value`] orders itself.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(&'a str),
    Timestamp(i64),
}

impl<'a> Cell<'a> {
    /// `None` for NULL.
    fn of(v: &'a Value) -> Option<Cell<'a>> {
        Some(match v {
            Value::Null => return None,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Text(s) => Cell::Text(s),
            Value::Timestamp(t) => Cell::Timestamp(*t),
        })
    }

    /// `Value::cmp` without the NULL arms: same-type natively (floats by
    /// `total_cmp`), mixed numerics through `f64`, otherwise by type rank.
    /// Forced inline with [`Lane::cell`]: left out of line, the kernels'
    /// per-row loops run about three times slower.
    #[inline(always)]
    fn cmp(self, other: Cell<'_>) -> Ordering {
        use Cell::*;
        let numeric = |c| match c {
            Int(i) | Timestamp(i) => Some(i as f64),
            Float(f) => Some(f),
            Bool(_) | Text(_) => None,
        };
        let rank = |c| match c {
            Bool(_) => 1,
            Int(_) => 2,
            Float(_) => 3,
            Timestamp(_) => 4,
            Text(_) => 5,
        };
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) | (Timestamp(a), Timestamp(b)) => a.cmp(&b),
            (Text(a), Text(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (a, b) => match numeric(a).zip(numeric(b)) {
                Some((x, y)) => x.total_cmp(&y),
                None => rank(a).cmp(&rank(b)),
            },
        }
    }
}

/// One operand of a vectorised comparison: a column's payload or a literal.
#[derive(Clone, Copy)]
enum Lane<'a> {
    /// `nulls` is `None` when the column has no NULL to check for.
    Col {
        data: &'a ColumnData,
        nulls: Option<&'a NullMask>,
    },
    Lit(Option<Cell<'a>>),
}

impl<'a> Lane<'a> {
    /// `None` unless `e` is a column of `batch` or a literal.
    fn of(e: &'a Expr, batch: &'a Batch) -> Option<Lane<'a>> {
        match e {
            Expr::Column(name) => {
                let col = batch.column_ref(batch.schema().index_of(name).ok()?);
                Some(Lane::Col {
                    data: col.data(),
                    nulls: Some(col.nulls()).filter(|n| n.any()),
                })
            }
            Expr::Literal(v) => Some(Lane::Lit(Cell::of(v))),
            _ => None,
        }
    }

    /// The operand's value on row `i`; `None` is NULL.
    #[inline(always)]
    fn cell(&self, i: usize) -> Option<Cell<'a>> {
        match *self {
            Lane::Lit(cell) => cell,
            Lane::Col { nulls: Some(n), .. } if n.is_null(i) => None,
            Lane::Col { data, .. } => match data {
                ColumnData::Bool(v) => Some(Cell::Bool(v[i])),
                ColumnData::Int(v) => Some(Cell::Int(v[i])),
                ColumnData::Float(v) => Some(Cell::Float(v[i])),
                ColumnData::Text(v) => Some(Cell::Text(&v[i])),
                ColumnData::Timestamp(v) => Some(Cell::Timestamp(v[i])),
                ColumnData::Mixed(v) => Cell::of(&v[i]),
            },
        }
    }
}

/// SQL LIKE: `%` matches any run, `_` matches one char. Iterative
/// backtracking over the last `%` (classic glob algorithm, O(n·m) worst
/// case, linear in practice).
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut ti, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn eval_scalar_fn(func: ScalarFn, args: &[Value]) -> Result<Value> {
    let arity_err = |want: usize| {
        Err(BigDawgError::TypeError(format!(
            "{func:?} expects {want} argument(s), got {}",
            args.len()
        )))
    };
    match func {
        ScalarFn::Coalesce => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        ScalarFn::Abs => {
            if args.len() != 1 {
                return arity_err(1);
            }
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                v => Err(BigDawgError::TypeError(format!(
                    "ABS expects a number, got {}",
                    v.data_type()
                ))),
            }
        }
        ScalarFn::Lower | ScalarFn::Upper => {
            if args.len() != 1 {
                return arity_err(1);
            }
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(if func == ScalarFn::Lower {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                })),
                v => Err(BigDawgError::TypeError(format!(
                    "{func:?} expects text, got {}",
                    v.data_type()
                ))),
            }
        }
        ScalarFn::Length => {
            if args.len() != 1 {
                return arity_err(1);
            }
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                v => Err(BigDawgError::TypeError(format!(
                    "LENGTH expects text, got {}",
                    v.data_type()
                ))),
            }
        }
        ScalarFn::Sqrt | ScalarFn::Floor | ScalarFn::Ceil | ScalarFn::Round => {
            if args.len() != 1 {
                return arity_err(1);
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let x = args[0].as_f64()?;
            let out = match func {
                ScalarFn::Sqrt => {
                    if x < 0.0 {
                        return Err(BigDawgError::Execution(format!("SQRT({x}) of negative")));
                    }
                    x.sqrt()
                }
                ScalarFn::Floor => x.floor(),
                ScalarFn::Ceil => x.ceil(),
                ScalarFn::Round => x.round(),
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdawg_common::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("age", DataType::Int),
            ("name", DataType::Text),
            ("weight", DataType::Float),
        ])
    }

    fn row() -> Row {
        vec![
            Value::Int(70),
            Value::Text("alice".into()),
            Value::Float(62.5),
        ]
    }

    #[test]
    fn column_and_literal() {
        let e = Expr::binary(BinOp::Gt, Expr::col("age"), Expr::lit(65));
        assert_eq!(e.eval(&schema(), &row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic_precedence_semantics() {
        // age + weight * 2
        let e = Expr::binary(
            BinOp::Add,
            Expr::col("age"),
            Expr::binary(BinOp::Mul, Expr::col("weight"), Expr::lit(2)),
        );
        assert_eq!(e.eval(&schema(), &row()).unwrap(), Value::Float(195.0));
    }

    #[test]
    fn three_valued_logic() {
        let s = Schema::from_pairs(&[("x", DataType::Int)]);
        let null_row = vec![Value::Null];
        // NULL AND false = false
        let e = Expr::and(Expr::eq(Expr::col("x"), Expr::lit(1)), Expr::lit(false));
        assert_eq!(e.eval(&s, &null_row).unwrap(), Value::Bool(false));
        // NULL OR true = true
        let e = Expr::binary(
            BinOp::Or,
            Expr::eq(Expr::col("x"), Expr::lit(1)),
            Expr::lit(true),
        );
        assert_eq!(e.eval(&s, &null_row).unwrap(), Value::Bool(true));
        // NULL AND true = NULL, and matches() treats it as false
        let e = Expr::and(Expr::eq(Expr::col("x"), Expr::lit(1)), Expr::lit(true));
        assert_eq!(e.eval(&s, &null_row).unwrap(), Value::Null);
        assert!(!e.matches(&s, &null_row).unwrap());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("very sick patient", "%very sick%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", ""));
        assert!(like_match("aaab", "%ab"));
        assert!(like_match("a%b", "a%b")); // % in text matched by literal path via wildcard
    }

    #[test]
    fn in_list_and_between() {
        let s = schema();
        let r = row();
        let e = Expr::InList {
            expr: Box::new(Expr::col("age")),
            list: vec![Expr::lit(60), Expr::lit(70)],
            negated: false,
        };
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(true));
        let e = Expr::Between {
            expr: Box::new(Expr::col("weight")),
            low: Box::new(Expr::lit(60.0)),
            high: Box::new(Expr::lit(65.0)),
            negated: true,
        };
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn is_null_checks() {
        let s = Schema::from_pairs(&[("x", DataType::Int)]);
        let e = Expr::IsNull {
            expr: Box::new(Expr::col("x")),
            negated: false,
        };
        assert_eq!(e.eval(&s, &vec![Value::Null]).unwrap(), Value::Bool(true));
        assert_eq!(
            e.eval(&s, &vec![Value::Int(1)]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn scalar_functions() {
        let s = schema();
        let r = row();
        let upper = Expr::Call {
            func: ScalarFn::Upper,
            args: vec![Expr::col("name")],
        };
        assert_eq!(upper.eval(&s, &r).unwrap(), Value::Text("ALICE".into()));
        let coalesce = Expr::Call {
            func: ScalarFn::Coalesce,
            args: vec![Expr::lit(Value::Null), Expr::lit(5)],
        };
        assert_eq!(coalesce.eval(&s, &r).unwrap(), Value::Int(5));
        let sqrt_neg = Expr::Call {
            func: ScalarFn::Sqrt,
            args: vec![Expr::lit(-1.0)],
        };
        assert!(sqrt_neg.eval(&s, &r).is_err());
    }

    #[test]
    fn conjunct_split_and_rebuild() {
        let e = Expr::and(
            Expr::and(
                Expr::eq(Expr::col("a"), Expr::lit(1)),
                Expr::eq(Expr::col("b"), Expr::lit(2)),
            ),
            Expr::eq(Expr::col("c"), Expr::lit(3)),
        );
        let parts = e.clone().conjuncts();
        assert_eq!(parts.len(), 3);
        let rebuilt = Expr::conjoin(parts).unwrap();
        // Same factors, association may differ; check columns set.
        let mut cols = rebuilt.columns();
        cols.sort_unstable();
        assert_eq!(cols, vec!["a", "b", "c"]);
        assert!(Expr::conjoin(vec![]).is_none());
    }

    #[test]
    fn columns_collects_all_refs() {
        let e = Expr::Between {
            expr: Box::new(Expr::col("x")),
            low: Box::new(Expr::col("y")),
            high: Box::new(Expr::lit(3)),
            negated: false,
        };
        assert_eq!(e.columns(), vec!["x", "y"]);
    }

    #[test]
    fn negation() {
        let s = schema();
        let e = Expr::Neg(Box::new(Expr::col("age")));
        assert_eq!(e.eval(&s, &row()).unwrap(), Value::Int(-70));
        let e = Expr::Not(Box::new(Expr::lit(true)));
        assert_eq!(e.eval(&s, &row()).unwrap(), Value::Bool(false));
    }
}
