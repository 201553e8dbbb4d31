//! The PostgreSQL shim.

use crate::shim::{Capability, EngineKind, Shim};
use bigdawg_common::{Batch, DataType, Result, Schema, Value};
use bigdawg_relational::db::QueryResult;
use bigdawg_relational::Database;
use std::any::Any;

/// Shim over the embedded relational engine. Native language: the SQL
/// subset of `bigdawg-relational`.
pub struct RelationalShim {
    name: String,
    db: Database,
}

impl RelationalShim {
    /// A shim for a relational engine named `name`, with an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        RelationalShim {
            name: name.into(),
            db: Database::new(),
        }
    }

    /// Direct access for in-process components (SeeDB, ScalaR).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable counterpart of [`RelationalShim::db`].
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Load a batch as a table (used by setup code and CAST).
    pub fn load_table(&mut self, name: &str, batch: Batch) -> Result<()> {
        self.db.load_table(name, batch)
    }
}

impl Shim for RelationalShim {
    fn engine_name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> EngineKind {
        EngineKind::Relational
    }

    fn capabilities(&self) -> Vec<Capability> {
        vec![
            Capability::SqlFilter,
            Capability::Aggregate,
            Capability::Join,
        ]
    }

    fn object_names(&self) -> Vec<String> {
        self.db
            .table_names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    fn get_table(&self, object: &str) -> Result<Batch> {
        // Arc-backed columnar snapshot: repeated egress of an unchanged
        // table shares columns instead of deep-cloning every row
        Ok(self.db.table(object)?.snapshot())
    }

    fn put_table(&mut self, object: &str, batch: Batch) -> Result<()> {
        self.load_table(object, batch)
    }

    fn drop_object(&mut self, object: &str) -> Result<()> {
        self.db.drop_table(object)
    }

    fn execute_native(&mut self, query: &str) -> Result<Batch> {
        match self.db.execute(query)? {
            QueryResult::Rows(b) => Ok(b),
            QueryResult::Affected(a) => Batch::new(
                Schema::from_pairs(&[("rows_affected", DataType::Int)]),
                vec![vec![Value::Int(a.rows as i64)]],
            ),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for RelationalShim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RelationalShim({})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_sql_and_object_listing() {
        let mut s = RelationalShim::new("postgres");
        s.execute_native("CREATE TABLE t (x INT)").unwrap();
        s.execute_native("INSERT INTO t VALUES (1), (2)").unwrap();
        let b = s.execute_native("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(2));
        assert_eq!(s.object_names(), vec!["t"]);
        assert_eq!(s.kind(), EngineKind::Relational);
    }

    #[test]
    fn get_put_roundtrip() {
        let mut s = RelationalShim::new("postgres");
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Text)]);
        let batch = Batch::new(schema, vec![vec![Value::Int(1), Value::Text("x".into())]]).unwrap();
        s.put_table("imported", batch.clone()).unwrap();
        let back = s.get_table("imported").unwrap();
        assert_eq!(back.rows(), batch.rows());
        s.drop_object("imported").unwrap();
        assert!(s.get_table("imported").is_err());
    }

    #[test]
    fn a_failed_landing_leaves_nothing_behind() {
        let mut s = RelationalShim::new("pg");
        s.execute_native("CREATE TABLE kept (x INT)").unwrap();
        // the violation sits in the last row, after rows that would land
        let text_under_int = Batch::new(
            Schema::from_pairs(&[("n", DataType::Int)]),
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Text("x".into())],
            ],
        )
        .unwrap();
        let err = s.put_table("tmp", text_under_int).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type_error: column `n` of `tmp` expects int, got text"
        );
        let required = Schema::new(vec![bigdawg_common::Field::required("n", DataType::Int)]);
        let null_under_not_null =
            Batch::new(required, vec![vec![Value::Int(1)], vec![Value::Null]]).unwrap();
        let err = s.put_table("tmp", null_under_not_null).unwrap_err();
        assert_eq!(
            err.to_string(),
            "schema_mismatch: column `n` of `tmp` is NOT NULL"
        );
        assert_eq!(s.object_names(), vec!["kept"]);
    }

    #[test]
    fn dml_returns_affected() {
        let mut s = RelationalShim::new("pg");
        s.execute_native("CREATE TABLE t (x INT)").unwrap();
        let b = s
            .execute_native("INSERT INTO t VALUES (1), (2), (3)")
            .unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(3));
    }
}
