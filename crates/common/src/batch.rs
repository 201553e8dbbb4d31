//! Tabular interchange format: schema-carrying, columnar, copy-on-write
//! batches.
//!
//! A [`Batch`] is what islands return to clients and what CAST ships between
//! engines. Since the interchange layer became the federation's hot path,
//! the backing store is *columnar*: one `Arc`-shared typed [`Column`] per
//! schema field (contiguous `Vec<i64>`/`Vec<f64>`/… plus a NULL bitmap).
//! Cloning a batch, projecting columns, and handing a snapshot to another
//! engine are all O(columns) `Arc` bumps; mutation goes through
//! `Arc::make_mut`, so shared columns are copied on write and a snapshot
//! handed out earlier can never observe later writes.
//!
//! The row-oriented API remains: [`Batch::rows`] materializes a row-major
//! view once per batch version (cached, invalidated by mutation), and
//! [`Batch::push`]/[`Batch::into_rows`] behave exactly as they always did.
//! Hot paths should prefer the column accessors ([`Batch::columns`],
//! [`Batch::column_ref`]) which never materialize rows.

use crate::column::Column;
use crate::error::{BigDawgError, Result};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One tuple.
pub type Row = Vec<Value>;

/// Row views built so far, process-wide: one per [`Batch::rows`]
/// materialisation and one per [`Batch::into_rows`]. A statistic only —
/// it publishes no other data, hence `Relaxed`.
static ROW_VIEWS: AtomicU64 = AtomicU64::new(0);

/// How many row-major views batches of this process have built — the
/// `bigdawg_batch_row_views_total` sample of
/// [`crate::MetricsRegistry::render_prometheus`]. A columnar data path
/// leaves it unchanged.
pub fn row_views_total() -> u64 {
    ROW_VIEWS.load(Ordering::Relaxed)
}

/// A schema plus columnar data. The invariant `columns[i].len() == len()`
/// (and one column per schema field) is enforced on every mutation path.
#[derive(Debug)]
pub struct Batch {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    len: usize,
    /// Lazily materialized row-major view; rebuilt after any mutation.
    row_cache: OnceLock<Vec<Row>>,
}

impl Clone for Batch {
    /// O(columns): the schema and every column are `Arc`-shared. The row
    /// cache is not carried over (clones are usually shipped, not re-read
    /// row-wise).
    fn clone(&self) -> Self {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            len: self.len,
            row_cache: OnceLock::new(),
        }
    }
}

impl PartialEq for Batch {
    /// Logical equality: same schema, same length, pairwise-equal column
    /// values — independent of column layout (typed vs mixed).
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.len == other.len && self.columns == other.columns
    }
}

impl Batch {
    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(Column::new(f.data_type)))
            .collect();
        Batch {
            schema,
            columns,
            len: 0,
            row_cache: OnceLock::new(),
        }
    }

    /// Build a batch, validating row arity against the schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(BigDawgError::SchemaMismatch(format!(
                    "row {i} has {} values, schema has {} columns",
                    row.len(),
                    schema.len()
                )));
            }
        }
        Ok(Self::from_parts_trusted(schema, rows))
    }

    /// Build a batch from rows whose arity is already known to match the
    /// schema — decode paths that just produced rows from a schema-checked
    /// codec. Arity is only debug-asserted, skipping the O(rows)
    /// re-validation of [`Batch::new`].
    pub fn from_parts_trusted(schema: Schema, rows: Vec<Row>) -> Self {
        let len = rows.len();
        let mut columns: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, len))
            .collect();
        for row in rows {
            debug_assert_eq!(
                row.len(),
                schema.len(),
                "trusted rows must match the schema arity"
            );
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v);
            }
        }
        Batch {
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            len,
            row_cache: OnceLock::new(),
        }
    }

    /// Assemble a batch directly from columns — the zero-copy construction
    /// path used by engine egress and the columnar wire codec. Fails when
    /// the column count does not match the schema or the columns disagree
    /// on length.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        Self::from_shared_columns(schema, columns.into_iter().map(Arc::new).collect())
    }

    /// Assemble a batch from already-`Arc`'d columns without cloning them —
    /// the engine-snapshot path. Same validation as [`Batch::from_columns`].
    pub fn from_shared_columns(schema: Schema, columns: Vec<Arc<Column>>) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(BigDawgError::SchemaMismatch(format!(
                "{} columns, schema has {} fields",
                columns.len(),
                schema.len()
            )));
        }
        let len = columns.first().map_or(0, |c| c.len());
        for (i, c) in columns.iter().enumerate() {
            if c.len() != len {
                return Err(BigDawgError::SchemaMismatch(format!(
                    "column {i} has {} rows, column 0 has {len}",
                    c.len()
                )));
            }
        }
        Ok(Batch {
            schema,
            columns,
            len,
            row_cache: OnceLock::new(),
        })
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The columns, in schema order, behind their sharing `Arc`s.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// The column at index `i`.
    pub fn column_ref(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Approximate payload footprint in bytes (sum of
    /// [`Column::approx_bytes`] over every column). Cache budgets charge
    /// each batch once, regardless of how many `Arc` clones exist.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }

    /// The value at (`row`, `col`), without materializing rows.
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// The rows, in order — a row-major view materialized on first use and
    /// cached until the batch is mutated. Hot paths should prefer the
    /// column accessors.
    pub fn rows(&self) -> &[Row] {
        self.row_cache.get_or_init(|| {
            ROW_VIEWS.fetch_add(1, Ordering::Relaxed);
            (0..self.len)
                .map(|i| self.columns.iter().map(|c| c.value(i)).collect())
                .collect()
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one row, checking arity. Shared columns are copied first
    /// (copy-on-write), so previously handed-out clones are unaffected.
    pub fn push(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(BigDawgError::SchemaMismatch(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            Arc::make_mut(col).push(v);
        }
        self.len += 1;
        self.row_cache = OnceLock::new();
        Ok(())
    }

    /// Consume the batch, yielding its rows. Uniquely owned columns move
    /// their payloads out without cloning.
    pub fn into_rows(self) -> Vec<Row> {
        ROW_VIEWS.fetch_add(1, Ordering::Relaxed);
        let Batch {
            columns,
            len,
            row_cache,
            ..
        } = self;
        if let Some(rows) = row_cache.into_inner() {
            return rows;
        }
        let mut iters: Vec<std::vec::IntoIter<Value>> = columns
            .into_iter()
            .map(|c| {
                match Arc::try_unwrap(c) {
                    Ok(col) => col.into_values(),
                    Err(shared) => shared.values(),
                }
                .into_iter()
            })
            .collect();
        (0..len)
            .map(|_| {
                iters
                    .iter_mut()
                    .map(|it| it.next().expect("columns cover every row"))
                    .collect()
            })
            .collect()
    }

    /// Split into `(schema, rows)`.
    pub fn into_parts(self) -> (Schema, Vec<Row>) {
        let schema = self.schema.clone();
        (schema, self.into_rows())
    }

    /// The values of one column, cloned. Handy for analytics ingestion.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        let i = self.schema.index_of(name)?;
        Ok(self.columns[i].values())
    }

    /// The values of one column as f64, erroring on non-numeric entries and
    /// skipping NULLs. Typed numeric columns answer from their contiguous
    /// payload without materializing values.
    pub fn column_f64(&self, name: &str) -> Result<Vec<f64>> {
        let i = self.schema.index_of(name)?;
        let col = &self.columns[i];
        let nulls = col.nulls();
        if let Some(v) = col.as_floats() {
            return Ok(filter_nulls(v, nulls).copied().collect());
        }
        if let Some(v) = col.as_ints().or_else(|| col.as_timestamps()) {
            return Ok(filter_nulls(v, nulls).map(|&x| x as f64).collect());
        }
        if let Some(v) = col.as_bools() {
            return Ok(filter_nulls(v, nulls)
                .map(|&b| if b { 1.0 } else { 0.0 })
                .collect());
        }
        col.iter()
            .filter(|v| !v.is_null())
            .map(|v| v.as_f64())
            .collect()
    }

    /// Project to the named columns (order preserved as given). Columns are
    /// `Arc`-shared with the source — no data is copied.
    pub fn project(&self, names: &[&str]) -> Result<Batch> {
        let indices: Vec<usize> = names
            .iter()
            .map(|n| self.schema.index_of(n))
            .collect::<Result<_>>()?;
        let schema = self.schema.project(&indices);
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Ok(Batch {
            schema,
            columns,
            len: self.len,
            row_cache: OnceLock::new(),
        })
    }

    /// Concatenate another batch (must be union-compatible).
    pub fn extend(&mut self, other: Batch) -> Result<()> {
        self.schema.check_union_compatible(other.schema())?;
        self.len += other.len;
        for (col, other_col) in self.columns.iter_mut().zip(other.columns) {
            let owned = match Arc::try_unwrap(other_col) {
                Ok(c) => c,
                Err(shared) => (*shared).clone(),
            };
            Arc::make_mut(col).append(owned);
        }
        self.row_cache = OnceLock::new();
        Ok(())
    }

    /// Sort rows by the named column, ascending (NULLs first; total order).
    /// Columns are permuted wholesale; no rows are materialized.
    pub fn sort_by_column(&mut self, name: &str) -> Result<()> {
        let i = self.schema.index_of(name)?;
        let keys = self.columns[i].values();
        let mut perm: Vec<usize> = (0..self.len).collect();
        perm.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        *self = self.filter(&perm);
        Ok(())
    }

    /// The rows at `selection`, in that order — a selection vector from a
    /// predicate kernel, or a permutation. Every column is gathered in its
    /// own typed layout ([`Column::gather`]); no rows are materialized.
    ///
    /// # Panics
    /// Panics when an index is out of range, like slice indexing.
    pub fn filter(&self, selection: &[usize]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.gather(selection)))
                .collect(),
            len: selection.len(),
            row_cache: OnceLock::new(),
        }
    }

    /// Narrow untyped (`DataType::Null`) columns to the common type of their
    /// values, if the values agree on one. Island results sometimes carry
    /// untyped columns (e.g. a degenerate island's single-cell answers);
    /// strictly typed engines reject typed values under an untyped column,
    /// so CAST narrows schemas before materializing. Columns whose values
    /// disagree (or are all NULL) are left untyped.
    ///
    /// This is a metadata-only rewrite: the fast path (no untyped field)
    /// returns immediately, and otherwise only the schema changes — the
    /// columns (and the row view) are reused as-is. Typed column layouts
    /// answer [`Column::natural_type`] in O(1); only mixed layouts scan.
    pub fn narrow_types(self) -> Batch {
        if !self
            .schema
            .fields()
            .iter()
            .any(|f| f.data_type == DataType::Null)
        {
            return self;
        }
        let fields: Vec<Field> = self
            .schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut f = f.clone();
                if f.data_type == DataType::Null {
                    if let Some(t) = self.columns[i].natural_type() {
                        f.data_type = t;
                    }
                }
                f
            })
            .collect();
        Batch {
            schema: Schema::new(fields),
            columns: self.columns,
            len: self.len,
            row_cache: self.row_cache,
        }
    }
}

/// Iterate a typed payload skipping NULL slots.
fn filter_nulls<'a, T>(
    v: &'a [T],
    nulls: &'a crate::column::NullMask,
) -> impl Iterator<Item = &'a T> + 'a {
    v.iter()
        .enumerate()
        .filter(move |(i, _)| !nulls.is_null(*i))
        .map(|(_, x)| x)
}

impl fmt::Display for Batch {
    /// Render as an aligned ASCII table — used by examples and the
    /// experiment harness to show query results like the demo UI would.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers = self.schema.names();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = (0..self.len)
            .map(|i| {
                self.columns
                    .iter()
                    .map(|c| c.value(i).to_string())
                    .collect()
            })
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        write_sep(f)?;
        write!(f, "|")?;
        for (h, w) in headers.iter().zip(&widths) {
            write!(f, " {h:<w$} |")?;
        }
        writeln!(f)?;
        write_sep(f)?;
        for row in &rendered {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)?;
        }
        write_sep(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn patients() -> Batch {
        let schema = Schema::new(vec![
            Field::required("id", DataType::Int),
            Field::new("age", DataType::Int),
        ]);
        Batch::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(70)],
                vec![Value::Int(2), Value::Null],
                vec![Value::Int(3), Value::Int(54)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn arity_checked_on_new_and_push() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        assert!(Batch::new(schema.clone(), vec![vec![]]).is_err());
        let mut b = Batch::empty(schema);
        assert!(b.push(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert!(b.push(vec![Value::Int(1)]).is_ok());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn column_extraction_skips_nulls_for_f64() {
        let b = patients();
        assert_eq!(b.column_f64("age").unwrap(), vec![70.0, 54.0]);
        assert_eq!(b.column("age").unwrap().len(), 3);
    }

    #[test]
    fn project_by_name() {
        let b = patients().project(&["age", "id"]).unwrap();
        assert_eq!(b.schema().names(), vec!["age", "id"]);
        assert_eq!(b.rows()[0], vec![Value::Int(70), Value::Int(1)]);
        assert!(patients().project(&["nope"]).is_err());
    }

    #[test]
    fn project_shares_columns_without_copying() {
        let b = patients();
        let p = b.project(&["age"]).unwrap();
        assert!(
            Arc::ptr_eq(&b.columns()[1], &p.columns()[0]),
            "projection must share the column allocation"
        );
    }

    #[test]
    fn extend_requires_compatibility() {
        let mut b = patients();
        let other = Batch::new(
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![vec![Value::Int(9), Value::Int(9)]],
        )
        .unwrap();
        b.extend(other).unwrap();
        assert_eq!(b.len(), 4);
        let bad = Batch::empty(Schema::from_pairs(&[("only", DataType::Text)]));
        assert!(b.extend(bad).is_err());
    }

    #[test]
    fn sort_nulls_first() {
        let mut b = patients();
        b.sort_by_column("age").unwrap();
        assert!(b.rows()[0][1].is_null());
        assert_eq!(b.rows()[1][1], Value::Int(54));
    }

    #[test]
    fn filter_gathers_typed_columns_in_selection_order() {
        let b = patients();
        let kept = b.filter(&[2, 0]);
        assert_eq!(kept.schema(), b.schema());
        assert_eq!(
            kept.rows(),
            &[
                vec![Value::Int(3), Value::Int(54)],
                vec![Value::Int(1), Value::Int(70)]
            ]
        );
        assert_eq!(kept.column_ref(1).as_ints().unwrap(), &[54, 70]);
        let none = b.filter(&[]);
        assert_eq!((none.len(), none.schema().len()), (0, 2));
        assert!(none.column_ref(0).as_ints().is_some(), "layout survives");
    }

    #[test]
    fn display_renders_table() {
        let out = patients().to_string();
        assert!(out.contains("| id | age  |"), "got:\n{out}");
        assert!(out.contains("NULL"));
    }

    #[test]
    fn rows_view_matches_input_and_survives_mutation() {
        let mut b = patients();
        let before: Vec<Row> = b.rows().to_vec();
        assert_eq!(before[1][1], Value::Null);
        b.push(vec![Value::Int(4), Value::Int(33)]).unwrap();
        assert_eq!(b.rows().len(), 4, "row view rebuilt after mutation");
        assert_eq!(&b.rows()[..3], &before[..]);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut original = patients();
        let snapshot = original.clone();
        assert!(Arc::ptr_eq(&original.columns()[0], &snapshot.columns()[0]));
        original.push(vec![Value::Int(9), Value::Int(9)]).unwrap();
        assert_eq!(original.len(), 4);
        assert_eq!(snapshot.len(), 3, "snapshot is immune to later writes");
        assert_eq!(snapshot.rows()[2], vec![Value::Int(3), Value::Int(54)]);
    }

    #[test]
    fn from_columns_validates_shape() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)]);
        let good = Batch::from_columns(
            schema.clone(),
            vec![
                Column::from_ints(vec![1, 2]),
                Column::from_floats(vec![0.5, 1.5]),
            ],
        )
        .unwrap();
        assert_eq!(good.len(), 2);
        assert_eq!(good.rows()[1], vec![Value::Int(2), Value::Float(1.5)]);
        assert!(
            Batch::from_columns(schema.clone(), vec![Column::from_ints(vec![1])]).is_err(),
            "column count must match the schema"
        );
        assert!(
            Batch::from_columns(
                schema,
                vec![Column::from_ints(vec![1]), Column::from_floats(vec![])],
            )
            .is_err(),
            "columns must agree on length"
        );
    }

    #[test]
    fn from_parts_trusted_round_trips() {
        let b = patients();
        let (schema, rows) = b.clone().into_parts();
        let rebuilt = Batch::from_parts_trusted(schema, rows);
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn batch_equality_is_logical() {
        let schema = Schema::from_pairs(&[("x", DataType::Null)]);
        let via_rows = Batch::new(schema.clone(), vec![vec![Value::Int(5)]]).unwrap();
        let via_columns = Batch::from_columns(schema, vec![Column::from_ints(vec![5])]).unwrap();
        assert_eq!(via_rows, via_columns);
    }

    #[test]
    fn narrow_types_is_metadata_only() {
        let schema = Schema::from_pairs(&[("x", DataType::Null), ("y", DataType::Int)]);
        let b = Batch::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Null, Value::Int(20)],
            ],
        )
        .unwrap();
        let cols_before: Vec<_> = b.columns().to_vec();
        let narrowed = b.narrow_types();
        assert_eq!(narrowed.schema().field(0).data_type, DataType::Int);
        assert!(
            Arc::ptr_eq(&narrowed.columns()[0], &cols_before[0]),
            "narrowing must not touch column data"
        );
    }
}
