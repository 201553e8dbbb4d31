//! Table storage: one table, two images of its rows.
//!
//! The *heap* — slots with tombstones, so row ids stay stable — is what
//! the row-id operations work on: `INSERT` / `UPDATE` / `DELETE`, index
//! maintenance and index probes. The *columnar image* — an `Arc`-backed
//! [`Batch`] of the live rows — is what full scans read and what CAST
//! ships. Either image is derived from the other on first need and kept:
//! a bulk load (`Table::adopt`) keeps the delivered batch as the
//! columnar image and builds no heap until a row-id operation asks for
//! one; a table written row by row builds its columnar image on the first
//! scan after a write.

use bigdawg_common::{
    Batch, BigDawgError, Column, ColumnData, DataType, Field, Result, Row, Schema, Value,
};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Stable identifier of a row slot within one table.
pub type RowId = usize;

/// A table. Invariant: at least one of the two images is present, and
/// when both are they hold the same live rows in the same order.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Number of live rows, whichever image holds them.
    live: usize,
    /// Row image: slot `id` holds row `id`, `None` once deleted. Unset
    /// after a bulk load until the first row-id operation.
    heap: OnceLock<Vec<Option<Row>>>,
    /// Columnar image of the live rows; `None` after any heap mutation
    /// until the next [`Table::snapshot`].
    columns: Mutex<Option<Batch>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            live: self.live,
            heap: self.heap.clone(),
            // an `Arc` bump per column
            columns: Mutex::new(self.columns().clone()),
        }
    }
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            live: 0,
            heap: OnceLock::from(Vec::new()),
            columns: Mutex::new(None),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Validate a row against the schema: arity, NOT NULL, and type (with
    /// numeric coercion — `Int` literals are accepted into `Float` columns).
    fn check_row(&self, row: &mut Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(BigDawgError::SchemaMismatch(format!(
                "table `{}` expects {} columns, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (i, v) in row.iter_mut().enumerate() {
            let field = self.schema.field(i);
            if v.is_null() {
                if !field.nullable {
                    return Err(BigDawgError::SchemaMismatch(format!(
                        "column `{}` of `{}` is NOT NULL",
                        field.name, self.name
                    )));
                }
                continue;
            }
            if v.data_type() != field.data_type {
                *v = v.cast_to(field.data_type).map_err(|_| {
                    BigDawgError::TypeError(format!(
                        "column `{}` of `{}` expects {}, got {}",
                        field.name,
                        self.name,
                        field.data_type,
                        v.data_type()
                    ))
                })?;
            }
        }
        Ok(())
    }

    fn columns(&self) -> MutexGuard<'_, Option<Batch>> {
        // every update of the guarded value is a single assignment
        self.columns.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The heap, derived from the columnar image on first use.
    fn heap(&self) -> &Vec<Option<Row>> {
        self.heap.get_or_init(|| {
            let image = self.columns().clone();
            let image = image.expect("a table without a heap has its columnar image");
            image.into_rows().into_iter().map(Some).collect() // row-view-ok: heap materialisation
        })
    }

    fn columns_mut(&mut self) -> &mut Option<Batch> {
        self.columns.get_mut().unwrap_or_else(|p| p.into_inner())
    }

    /// The heap for a write: the columnar image no longer describes it.
    fn heap_mut(&mut self) -> &mut Vec<Option<Row>> {
        self.heap();
        *self.columns_mut() = None;
        self.heap.get_mut().expect("materialised above")
    }

    /// Bulk load: keep `batch` as the table's columnar image — O(columns),
    /// no row is built, and dropping the table frees columns, not rows.
    /// The table must be empty, and every column must already be what a
    /// checked row-by-row load would store: laid out in its field's type
    /// and NULL-free under NOT NULL. Otherwise the batch comes back
    /// untouched, for the checked row path and its errors.
    ///
    /// The caller vouches that no index covers the table: row ids restart
    /// at 0.
    pub(crate) fn adopt(&mut self, batch: Batch) -> std::result::Result<(), Batch> {
        if self.live != 0
            || batch.schema().len() != self.schema.len()
            || !(self.schema.fields().iter().zip(batch.columns())).all(|(f, c)| stores_as_is(f, c))
        {
            return Err(batch);
        }
        let image = Batch::from_shared_columns(self.schema.clone(), batch.columns().to_vec())
            .expect("one column per field, checked above");
        self.live = image.len();
        self.heap = OnceLock::new();
        *self.columns_mut() = Some(image);
        Ok(())
    }

    /// Insert a row, returning its id.
    pub fn insert(&mut self, mut row: Row) -> Result<RowId> {
        self.check_row(&mut row)?;
        let heap = self.heap_mut();
        heap.push(Some(row));
        let id = heap.len() - 1;
        self.live += 1;
        Ok(id)
    }

    /// Fetch a live row.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.heap().get(id).and_then(|s| s.as_ref())
    }

    /// Delete a row; returns the old row if it was live.
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        self.get(id)?;
        let old = self.heap_mut()[id].take();
        self.live -= 1;
        old
    }

    /// Replace a live row in place; returns the old row.
    pub fn update(&mut self, id: RowId, mut row: Row) -> Result<Row> {
        self.check_row(&mut row)?;
        if self.get(id).is_none() {
            return Err(BigDawgError::NotFound(format!(
                "row {id} in table `{}`",
                self.name
            )));
        }
        let old = self.heap_mut()[id].replace(row);
        Ok(old.expect("checked live"))
    }

    /// Iterate live rows with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.heap()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i, r)))
    }

    /// Clone all live rows (scan).
    pub fn scan(&self) -> Vec<Row> {
        self.iter().map(|(_, r)| r.clone()).collect()
    }

    /// The columnar image of the live rows — what a full scan reads and
    /// what CAST egress ships. Built once per table version and kept;
    /// until the next write every caller gets the same shared columns
    /// (O(columns) clone). Copy-on-write at the batch layer keeps
    /// handed-out snapshots immune to later writes.
    pub fn snapshot(&self) -> Batch {
        let mut image = self.columns();
        if let Some(b) = image.as_ref() {
            return b.clone();
        }
        // push live rows straight into typed columns (rows were validated
        // against the schema on insert/update)
        let mut columns: Vec<Column> = self
            .schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, self.live))
            .collect();
        let heap = self.heap.get().expect("a table has one image at least");
        for row in heap.iter().flatten() {
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v.clone());
            }
        }
        let b = Batch::from_columns(self.schema.clone(), columns)
            .expect("live rows match the table schema");
        *image = Some(b.clone());
        b
    }

    /// Value of `col` in row `id`, if live.
    pub fn value_at(&self, id: RowId, col: usize) -> Option<&Value> {
        self.get(id).map(|r| &r[col])
    }
}

/// Whether a checked row-by-row load would store `column`'s cells under
/// `field` exactly as they are: typed as the field, no NULL under NOT NULL.
fn stores_as_is(field: &Field, column: &Column) -> bool {
    let laid_out = matches!(
        (column.data(), field.data_type),
        (ColumnData::Bool(_), DataType::Bool)
            | (ColumnData::Int(_), DataType::Int)
            | (ColumnData::Float(_), DataType::Float)
            | (ColumnData::Text(_), DataType::Text)
            | (ColumnData::Timestamp(_), DataType::Timestamp)
    );
    laid_out && (field.nullable || !column.nulls().any())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdawg_common::{DataType, Field};

    fn table() -> Table {
        Table::new(
            "patients",
            Schema::new(vec![
                Field::required("id", DataType::Int),
                Field::new("age", DataType::Int),
                Field::new("weight", DataType::Float),
            ]),
        )
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = table();
        let id = t
            .insert(vec![Value::Int(1), Value::Int(70), Value::Float(62.0)])
            .unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::Int(70));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = table();
        let err = t
            .insert(vec![Value::Null, Value::Int(70), Value::Null])
            .unwrap_err();
        assert_eq!(err.kind(), "schema_mismatch");
    }

    #[test]
    fn numeric_coercion_into_float_column() {
        let mut t = table();
        let id = t
            .insert(vec![Value::Int(1), Value::Int(70), Value::Int(62)])
            .unwrap();
        assert_eq!(t.get(id).unwrap()[2], Value::Float(62.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = table();
        let err = t
            .insert(vec![Value::Int(1), Value::Text("old".into()), Value::Null])
            .unwrap_err();
        assert_eq!(err.kind(), "type_error");
    }

    #[test]
    fn delete_leaves_stable_ids() {
        let mut t = table();
        let a = t
            .insert(vec![Value::Int(1), Value::Int(70), Value::Null])
            .unwrap();
        let b = t
            .insert(vec![Value::Int(2), Value::Int(60), Value::Null])
            .unwrap();
        assert!(t.delete(a).is_some());
        assert!(t.delete(a).is_none(), "double delete is a no-op");
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b).unwrap()[0], Value::Int(2));
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn update_replaces_live_row_only() {
        let mut t = table();
        let a = t
            .insert(vec![Value::Int(1), Value::Int(70), Value::Null])
            .unwrap();
        let old = t
            .update(a, vec![Value::Int(1), Value::Int(71), Value::Null])
            .unwrap();
        assert_eq!(old[1], Value::Int(70));
        assert_eq!(t.get(a).unwrap()[1], Value::Int(71));
        t.delete(a);
        assert!(t
            .update(a, vec![Value::Int(1), Value::Int(72), Value::Null])
            .is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn adopted_columns_are_the_table_until_a_row_id_is_needed() {
        let batch = |ages: Column| {
            let ids = Column::from_ints((1..=ages.len() as i64).collect());
            let weights = Column::from_floats(vec![60.0; ages.len()]);
            Batch::from_columns(table().schema().clone(), vec![ids, ages, weights]).unwrap()
        };
        let mut t = table();
        // a Text column under an INT field is for the checked row path
        let unfit = batch(Column::from_texts(vec!["old".into()]));
        assert_eq!(t.adopt(unfit.clone()).unwrap_err(), unfit);
        let mut with_null = Column::from_ints(vec![70, 54]);
        with_null.push_null();
        let landed = batch(with_null);
        t.adopt(landed.clone()).unwrap();
        assert_eq!(t.len(), 3);
        assert!(
            std::sync::Arc::ptr_eq(&t.snapshot().columns()[1], &landed.columns()[1]),
            "no copy was made"
        );
        // the first row-id operations derive the heap: ids are positions
        assert_eq!(t.get(2).unwrap()[1], Value::Null);
        let id = t
            .insert(vec![Value::Int(4), Value::Int(33), Value::Null])
            .unwrap();
        assert_eq!(id, 3);
        assert_eq!(t.snapshot().len(), 4);
        assert_eq!(landed.len(), 3, "the delivered batch never sees the write");
        // only an empty table adopts
        assert!(t.adopt(landed).is_err());
    }

    #[test]
    fn snapshot_is_cached_and_invalidated_by_writes() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Int(70), Value::Null])
            .unwrap();
        let a = t.snapshot();
        let b = t.snapshot();
        assert!(
            std::sync::Arc::ptr_eq(&a.columns()[0], &b.columns()[0]),
            "unchanged table shares one snapshot allocation"
        );
        t.insert(vec![Value::Int(2), Value::Int(60), Value::Null])
            .unwrap();
        let c = t.snapshot();
        assert_eq!(c.len(), 2, "mutation invalidates the cache");
        assert_eq!(a.len(), 1, "earlier snapshots are immune to the write");
        assert_eq!(a.rows()[0][0], Value::Int(1));
    }
}
